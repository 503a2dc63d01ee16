"""The full reproduction pipeline: run a multi-machine trace study and
print the paper's tables.

This is the example-sized version of what the benchmark suite does for
every table and figure.  Scale it up with the flags below (the paper's
collection was 45 machines for 4 weeks; this defaults to 6 machines for 2
simulated minutes, a few seconds of wall time).

Run:  python examples/trace_study.py [--machines N] [--seconds S] [--seed K]
"""

import argparse

from repro import StudyConfig, TraceWarehouse, run_study
from repro.analysis.activity import user_activity_table
from repro.analysis.patterns import access_pattern_table
from repro.analysis.report import summarize_observations


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machines", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--scale", type=float, default=0.12,
                        help="file-system content scale (1.0 = paper-sized)")
    args = parser.parse_args()

    print(f"running study: {args.machines} machines x {args.seconds:.0f}s "
          f"simulated, seed {args.seed} ...")
    result = run_study(StudyConfig(
        n_machines=args.machines, duration_seconds=args.seconds,
        seed=args.seed, content_scale=args.scale))
    print(f"collected {result.total_records} trace records from "
          f"{len(result.collectors)} machines "
          f"({sorted(set(result.machine_categories.values()))})")

    warehouse = TraceWarehouse.from_study(result)
    print(f"warehouse: {warehouse.n_records} rows, "
          f"{len(warehouse.instances)} open-close instances\n")

    print(summarize_observations(warehouse, result.perf).format())

    print("\nTable 2 (user activity):")
    print(user_activity_table(warehouse, result.duration_ticks).format())

    print("\nTable 3 (access patterns):")
    print(access_pattern_table(warehouse).format())


if __name__ == "__main__":
    main()
