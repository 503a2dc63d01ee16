"""Reproduction of "File system usage in Windows NT 4.0" (Vogels, SOSP'99).

Three layers:

* :mod:`repro.nt` — a simulated Windows NT 4.0 I/O subsystem (I/O manager,
  IRP and FastIO paths, cache manager with read-ahead and lazy writing, VM
  manager with paging and image loading, FAT/NTFS volumes, a CIFS-style
  redirector, and the trace filter driver the paper's methodology rests on).
* :mod:`repro.workload` — synthetic file-system content and heavy-tailed
  application/user behaviour standing in for the paper's 45 production
  machines.
* :mod:`repro.analysis` + :mod:`repro.stats` — the paper's measurement
  pipeline: the two-fact-table warehouse, the per-section analyses, and the
  heavy-tail statistics toolbox.

Quickstart::

    from repro import StudyConfig, run_study, TraceWarehouse
    from repro.analysis import summarize_observations

    result = run_study(StudyConfig(n_machines=4, duration_seconds=120))
    wh = TraceWarehouse.from_study(result)
    print(summarize_observations(wh, result.perf).format())
"""

from repro.nt.perf import PerfRegistry
from repro.nt.system import Machine, MachineConfig
from repro.workload.study import (StudyConfig, StudyError, StudyResult,
                                  StudyTelemetry, run_study)
from repro.replay import (ReplayConfig, ReplayResult, replay_archive,
                          replay_collector)
from repro.analysis.warehouse import TraceWarehouse

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "MachineConfig",
    "PerfRegistry",
    "ReplayConfig",
    "ReplayResult",
    "StudyConfig",
    "StudyError",
    "StudyResult",
    "StudyTelemetry",
    "replay_archive",
    "replay_collector",
    "run_study",
    "TraceWarehouse",
    "__version__",
]
