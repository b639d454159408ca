"""Record the digests of the default seed's inputs and outputs.

    python3 perfbench/record_digests.py

Runs every workload once and writes ``perfbench/digests.json``. Later runs
on the default seed count every output that differs as a failure, so run
this only when a change to the outputs is intended.
"""

import json
import os

import run
import workloads


def main():
    os.environ.update(run.ONE_BLAS_THREAD)
    workloads.RECORDED_DIGESTS.unlink(missing_ok=True)  # check against nothing but the range checks
    doc = {}
    for workload in workloads.WORKLOADS:
        result, _, digests = run.run(workload, workloads.DEFAULT_SEED, 1, 0, probes=0)
        if result["failed"]:
            raise SystemExit(f"{workload}: outputs failed their checks; not recording")
        doc.update(digests)
    key = workloads.BENCH.key
    workloads.RECORDED_DIGESTS.write_text(
        json.dumps({key: {str(workloads.DEFAULT_SEED): doc}}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
