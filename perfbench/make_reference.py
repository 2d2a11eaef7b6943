"""Regenerate ``reference.json``: every pooled op's pinned output values.

    python3 perfbench/make_reference.py

Run from the root of a source checkout, at the commit whose outputs the
benchmark should pin.  Takes about 90 s.  Each op is also put
through the workload's invariant checks, and the script stops if one
fails, so the reference never pins an output that breaks an invariant.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

import run


def records(workload, prepare_args) -> dict:
    out = {}
    for args in prepare_args:
        workload.prepare(*args)
        for spec in workload.cycle:
            result = workload.run(spec)
            failures, _ = workload.check(spec, result)
            failures = [f for f in failures if not f.startswith("no reference")]
            if failures:
                sys.exit(f"{workload.name} {workload.key(spec)}: {failures}")
            out[workload.key(spec)] = workload.record(spec, result)
            print(f"{workload.name}/{workload.size} {workload.key(spec)}", flush=True)
    return out


def dump(reference: dict) -> str:
    """JSON with one line per op, so a regenerated file diffs by op."""
    workloads = []
    for name, sizes in sorted(reference.items()):
        blocks = []
        for size, ops in sorted(sizes.items()):
            body = ",\n".join(
                f"   {json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
                for key, rec in sorted(ops.items())
            )
            blocks.append(f"  {json.dumps(size)}: {{\n{body}\n  }}")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


def main() -> None:
    run.import_redar()
    from bench_workloads import REFERENCE_PATH, Bound, OrderSelect, Sweep
    from redar import CovarianceFloorWarning

    warnings.simplefilter("ignore", CovarianceFloorWarning)
    reference: dict = {}
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        for size in ("tiny", "full"):
            sweep = Sweep(size, reference={})
            bound = Bound(size, reference={})
            order = OrderSelect(size, reference={})
            pools = {
                sweep: [(sweep.params["pool"],)],
                bound: [
                    ([(dims, s) for dims in bound.params["dims"] for s in bound.params["pool"]],)
                ],
                order: [(s, Path(tmp)) for s in order.params["pool"]],
            }
            for workload, prepare_args in pools.items():
                reference.setdefault(workload.name, {})[size] = records(workload, prepare_args)
    REFERENCE_PATH.write_text(dump(reference))
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
