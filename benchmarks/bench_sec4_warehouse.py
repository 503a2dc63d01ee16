"""§4 — the data-analysis substrate itself.

The paper reports that its SQL-Server warehouse ran whole-table
statistics at 30% of the time of a hand-optimised C pass over the raw
traces, and justifies the two-fact-table design by the cost of touching
every record.  This bench measures our equivalents: columnar fact-table
construction throughput and instance-table (second fact table) build
throughput over the study's records.
"""

from repro.analysis.sessions import build_instances
from repro.analysis.warehouse import TraceWarehouse

from benchmarks.conftest import print_header, print_row


def _print_throughput(benchmark, label: str, records: int) -> None:
    # --benchmark-disable runs the function once without timing it.
    if benchmark.stats is None:
        return
    rate = records / benchmark.stats.stats.mean
    print_row(label, "-", f"{rate / 1e6:.2f}M records/s")


def test_sec4_warehouse_build(benchmark, study):
    wh = benchmark(TraceWarehouse.from_study, study)
    print_header("Section 4: warehouse construction")
    print_row("trace fact-table rows", "-", str(wh.n_records))
    _print_throughput(benchmark, "load throughput", study.total_records)
    assert wh.n_records == study.total_records


def test_sec4_instance_build(benchmark, warehouse):
    instances = benchmark(build_instances, warehouse)
    print_header("Section 4: instance (second fact table) construction")
    print_row("instances built", "-", str(len(instances)))
    _print_throughput(benchmark, "build throughput", warehouse.n_records)
    # The two-fact-table design's premise: instances are far fewer than
    # records, so per-session queries avoid touching the raw table.
    assert len(instances) < warehouse.n_records / 3
