"""Record the output digests the benchmark's correctness gate checks.

Run from the root of a checkout::

    python3 perfbench/record_digests.py --workload campaign --seeds 0-20 1998

For each seed it makes the workload's input and runs one unit, then
files the unit's digest in digests.json under the workload's input shape.
Existing entries for other seeds are kept; an existing entry that
disagrees with the new digest is an error unless ``--replace`` is given,
which is for a change that alters the program's output on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        low, dash, high = spec.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if dash else [int(low)])
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges such as 0-20")
    parser.add_argument("--replace", action="store_true")
    args = parser.parse_args(argv)

    workloads = run._load_program()
    if workloads is None:
        return 2
    workload = workloads.WORKLOADS[args.workload]
    doc = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    table = doc.get(workload.name)
    if table is None or table.get("shape") != workload.shape():
        table = {"shape": workload.shape(), "seeds": {}}
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in _seeds(args.seeds):
        work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        try:
            unit = workload.run(workload.prepare(seed, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if unit.problems:
            print(f"seed {seed}: {'; '.join(unit.problems)}", file=sys.stderr)
            status = 1
            continue
        old = table["seeds"].get(str(seed))
        if old is not None and old != unit.digest and not args.replace:
            print(f"seed {seed}: digest {unit.digest} differs from the "
                  f"stored {old}", file=sys.stderr)
            status = 1
            continue
        table["seeds"][str(seed)] = unit.digest
        print(f"{workload.name} seed {seed}: {unit.digest}")
    # Re-read: another workload may have been recorded meanwhile.
    doc = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    doc[workload.name] = table
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
