"""Every public function, class and method of ``pulseox`` has a caller.

A public name of ``src/pulseox/*.py`` must be referenced by name, as a bare
name or an attribute, from code under ``src/``, ``demos/`` or ``perfbench/``.
Strings do not count, and neither does a reference inside the definition's
own body (recursion). A name that only tests reach is test-only code and
belongs in the tests, unless ``TEST_ONLY`` lists it with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "perfbench")

TEST_ONLY = {
    "pipeline.run_group_experiment": "runs the cross-site and skin-tone experiments of acceptance criterion 9",
    "metrics.error_cdf": "the error CDF of the evaluation, a figure the metrics tests draw and check",
    "synth.read_truth": "reads back the truth sidecars that gen_cohort writes, for the synthesis tests",
}


def parse_callers():
    """``{path: module AST}`` of every Python file in the caller directories."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for d in CALLER_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    }


def public_definitions(trees):
    """``{qualified name: (bare name, node)}`` of every public module-level
    function and class of the package, and every public method of a public
    class."""
    defs = {}
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "pulseox":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs[f"{path.stem}.{node.name}"] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = (item.name, item)
    return defs


def references(trees):
    """``{name: [enclosing definitions of each read]}`` over every bare name
    and attribute read in ``trees``."""
    found = {}

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node}
        if isinstance(node, ast.Name):
            found.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            found.setdefault(node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for tree in trees.values():
        walk(tree, frozenset())
    return found


def reached(name, node, refs):
    """Whether ``name`` is read anywhere outside the body of ``node``."""
    return any(node not in enclosing for enclosing in refs.get(name, []))


def test_every_public_name_is_reached_outside_the_tests():
    trees = parse_callers()
    refs = references(trees)
    unreached = [
        qualname
        for qualname, (name, node) in public_definitions(trees).items()
        if qualname not in TEST_ONLY and not reached(name, node, refs)
    ]
    assert not unreached, f"public names that only tests reach: {unreached}"


def test_test_only_names_exist_and_have_no_caller():
    # an entry whose name is gone, or that has gained a caller, is stale
    trees = parse_callers()
    refs = references(trees)
    defs = public_definitions(trees)
    for qualname in TEST_ONLY:
        assert qualname in defs, qualname
        assert not reached(*defs[qualname], refs), qualname
