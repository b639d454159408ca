"""Every public function, class, method and option of ``pulseox`` has a
caller, and no module reads another's private names.

A public name of ``src/pulseox/*.py`` must be referenced by name, as a bare
name or an attribute, from code under ``src/``, ``demos/`` or ``perfbench/``.
Strings do not count, and neither does a reference inside the definition's
own body (recursion). A name that only tests reach is test-only code and
belongs in the tests, unless ``TEST_ONLY`` lists it with its reason.

Every option has a caller too: each defaulted parameter of a public function
or method, and each defaulted field of a public dataclass, is set by some call
in those directories, unless ``UNSET_OPTIONS`` lists it with its reason. An
option that only tests set is a configuration that no command runs.

A module of ``src/pulseox/`` reads a ``_private`` name of another pulseox
module only where ``PRIVATE_READS`` lists it with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "perfbench")

TEST_ONLY = {}

PRIVATE_READS = {}


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


#: Defaulted options that no caller outside the tests sets, with their reasons.
UNSET_OPTIONS = {
    "spo2.EnhancedConfig.corr_threshold": (
        "perfbench/tracer.py builds EnhancedConfig() to count gate passes, and ROADMAP item 5 "
        "records the threshold in model.json"
    ),
    "metrics.EvalReport.extras": "a container that is filled after construction",
}


def _name(node):
    """The bare name a callee or decorator is read by, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def signatures(defs):
    """``{qualified name: (callee, node, positional, defaulted)}`` of every
    public function and method, and every public class: a call reads it by
    ``callee``, fills ``positional`` by position (``self`` left out), and may
    leave ``defaulted`` unset. A dataclass's parameters are its fields, another
    class's those of its ``__init__``."""
    sigs = {}
    for qualname, (name, node) in defs.items():
        fn = node
        if isinstance(node, ast.ClassDef):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            if any(_name(d) == "dataclass" for d in node.decorator_list):
                sigs[qualname] = (name, node, [f.target.id for f in fields], [f.target.id for f in fields if f.value is not None])
                continue
            fn = next((s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"), None)
            if fn is None:
                continue
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        bound = fn is not node or qualname.count(".") == 2  # a constructor or a method
        sigs[qualname] = (name, node, positional[bound:], defaulted)
    return sigs


def calls(trees):
    """``{callee: [(enclosing definitions, positional count, keywords)]}``
    of every call in ``trees``. ``functools.partial(f, ...)`` counts as a
    call of ``f``. After a ``*`` splat the count is None (every position);
    a ``**`` splat adds None to the keywords (every name)."""
    found = {}

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node}
        if isinstance(node, ast.Call):
            callee, args = _name(node.func), node.args
            if callee == "partial" and args:
                callee, args = _name(args[0]), args[1:]
            n = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
            found.setdefault(callee, []).append((enclosing, n, {k.arg for k in node.keywords}))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for tree in trees.values():
        walk(tree, frozenset())
    return found


def unset_options(trees):
    """Qualified names of the defaulted options that no call outside their
    own definition sets: by position, by keyword, through ``partial``,
    through a ``**`` splat, or, for a dataclass field, through
    ``dataclasses.replace``."""
    found = calls(trees)
    unset = []
    for qualname, (callee, node, positional, defaulted) in signatures(public_definitions(trees)).items():
        sites = [c for c in found.get(callee, []) if node not in c[0]]
        if isinstance(node, ast.ClassDef):
            sites += [(e, 0, kw) for e, _, kw in found.get("replace", [])]  # replace(obj, field=...)
        for p in defaulted:
            pos = positional.index(p) if p in positional else len(positional)
            if not any(n is None or pos < n or p in kw or None in kw for _, n, kw in sites):
                unset.append(f"{qualname}.{p}")
    return unset


def test_every_public_option_has_a_caller():
    unset = unset_options(parse_callers())
    only_tests = [name for name in unset if name not in UNSET_OPTIONS]
    assert not only_tests, f"defaulted options that only tests set: {only_tests}"
    # an exemption whose option is gone, or that has gained a caller, is stale
    assert sorted(unset) == sorted(UNSET_OPTIONS)


def private_reads():
    """``{"reader -> module._name"}`` of every ``_private`` name that a module of
    ``src/pulseox/`` imports from, or reads as an attribute of, another
    pulseox module imported relatively."""
    found = set()
    for path in sorted((ROOT / "src" / "pulseox").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> pulseox module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add(f"{path.stem} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                found.add(f"{path.stem} -> {modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_name():
    # an allowed entry that no longer occurs is stale
    assert private_reads() == set(PRIVATE_READS)
