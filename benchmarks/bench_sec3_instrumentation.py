"""§3.2 — the instrumentation's own behaviour.

The paper reports operational facts about the tracing machinery: 54 event
kinds; 3,000-record buffers filling in an hour when idle and 3–5 seconds
under heavy load; 80 K–1.4 M events per machine-day.  This bench measures
the same quantities for the simulated driver (scaled: our machines are
busier per second than 1998 desktops).
"""

import numpy as np

from repro.nt.tracing.records import N_EVENT_KINDS, TraceEventKind

from benchmarks.conftest import print_header, print_row


def _instrumentation_stats(study, warehouse):
    per_machine_rates = []
    for collector in study.collectors:
        # .records builds a fresh list on every access: read it once.
        records = collector.records
        if not records:
            continue
        t = np.asarray([r.t_start for r in records])
        span = (t.max() - t.min()) / 1e7
        per_machine_rates.append(len(records) / max(span, 1e-9))
    distinct_kinds = len(np.unique(warehouse.kind))
    return per_machine_rates, distinct_kinds


def test_sec3_instrumentation(benchmark, study, warehouse):
    rates, distinct_kinds = benchmark(_instrumentation_stats, study,
                                      warehouse)
    print_header("Section 3: the tracing machinery")
    print_row("event kinds defined", "54", str(N_EVENT_KINDS))
    print_row("distinct kinds observed in this study", "-",
              str(distinct_kinds))
    print_row("records/machine-second", "~1-16 (1998 desktops)",
              f"{min(rates):.0f}-{max(rates):.0f}")
    buffer_fill_seconds = 3000 / max(rates)
    print_row("3000-record buffer fill time under load", "3-5 s",
              f"{buffer_fill_seconds:.1f} s")
    per_day = np.mean(rates) * 86400
    print_row("implied events per machine-day", "80k-1.4M",
              f"{per_day / 1e6:.1f}M (busier than 1998 users)")

    assert N_EVENT_KINDS == 54
    assert distinct_kinds > 15  # a broad slice of the vocabulary in use
    assert all(r > 0 for r in rates)
