"""Kernel-originated file-system requests.

The cache manager and lazy writer issue real IRPs for housekeeping — most
visibly the SetEndOfFile that trims delayed-write page overshoot before a
written file is closed (§8.3).  Routing them through the I/O manager means
the trace filter records them, just as the paper's driver did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.status import NtStatus
from repro.nt.io.fileobject import FileObject
from repro.nt.io.irp import Irp, IrpMajor, SetInformationClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine

# The system process issues these requests.
SYSTEM_PROCESS_ID = 0


class FsServices:
    """IRP-issuing helpers used by kernel components."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._perf_set_end_of_file = machine.perf.counter("cc.set_end_of_file")

    def issue_set_end_of_file(self, fo: FileObject, size: int) -> NtStatus:
        """The cache manager's pre-close SetEndOfFile (§8.3)."""
        irp = Irp(IrpMajor.SET_INFORMATION, fo, SYSTEM_PROCESS_ID)
        irp.information_class = SetInformationClass.END_OF_FILE
        irp.set_size = size
        self._perf_set_end_of_file.add(1)
        return self.machine.io.send_irp(irp)
