"""The simulated Windows NT 4.0 I/O subsystem.

Subpackages mirror the components the paper instruments and analyses:

* :mod:`repro.nt.fs` — volumes, file/directory nodes, FAT and NTFS driver
  personalities, and the disk service-time model.
* :mod:`repro.nt.io` — the I/O manager, IRPs, file objects, layered device
  stacks and the FastIO dispatch path.
* :mod:`repro.nt.cache` — the cache manager: read-ahead, lazy writing, the
  copy interface the FastIO path lands in.
* :mod:`repro.nt.mm` — the VM manager: sections, memory-mapped files, paging
  I/O, and image (executable/DLL) loading.
* :mod:`repro.nt.net` — a CIFS-style network redirector and file server.
* :mod:`repro.nt.tracing` — the trace filter driver (54 event kinds, dual
  timestamps, 3,000-record buffers), collector, and snapshot walker.
* :mod:`repro.nt.perf` — the performance-monitor subsystem: per-machine
  counters and latency histograms fed by the components above.
* :mod:`repro.nt.win32` — the Win32-level API processes call
  (CreateFile/ReadFile/... plus the runtime-library control-op chatter).
* :mod:`repro.nt.system` — :class:`~repro.nt.system.Machine`, which wires it
  all together.
"""

from repro.nt.perf import PerfRegistry
from repro.nt.system import Machine, MachineConfig

__all__ = ["Machine", "MachineConfig", "PerfRegistry"]
