"""Device objects and the driver model.

Windows NT layers drivers: a filter (the paper's trace driver) attaches on
top of a file-system driver's device object for a volume, and the I/O
manager always presents requests to the *top* of the stack.  A driver
handles a request itself or passes it to the device below.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.common.status import NtStatus
from repro.nt.fs.volume import Volume
from repro.nt.io.fastio import FastIoOp, FastIoResult
from repro.nt.io.irp import Irp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.io.iomanager import IoManager


class DeviceObject:
    """One device in a stack; ``lower`` points toward the file system."""

    __slots__ = ("driver", "volume", "lower", "name")

    def __init__(self, driver: "Driver", volume: Optional[Volume],
                 name: str) -> None:
        self.driver = driver
        self.volume = volume
        self.lower: Optional[DeviceObject] = None
        self.name = name

    def attach_on_top_of(self, lower: "DeviceObject") -> None:
        """Layer this device over ``lower`` (filter attachment)."""
        self.lower = lower
        if self.volume is None:
            self.volume = lower.volume

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Device {self.name}>"


class Driver:
    """Base driver: default behaviour passes everything down the stack.

    A leaf driver (a file system) overrides :meth:`dispatch` and
    :meth:`fastio` to complete requests; a filter overrides them to observe
    and then call :meth:`forward_irp` / :meth:`forward_fastio`.
    """

    name = "driver"

    def __init__(self, io: "IoManager") -> None:
        self.io = io

    # ------------------------------------------------------------------ #
    # IRP path.

    def dispatch(self, irp: Irp, device: DeviceObject) -> NtStatus:
        """Handle an IRP arriving at ``device``; default: pass down."""
        return self.forward_irp(irp, device)

    def forward_irp(self, irp: Irp, device: DeviceObject) -> NtStatus:
        """Send the IRP to the next-lower device."""
        if device.lower is None:
            return irp.complete(NtStatus.INVALID_DEVICE_REQUEST)
        return device.lower.driver.dispatch(irp, device.lower)

    # ------------------------------------------------------------------ #
    # FastIO path.

    def fastio(self, op: FastIoOp, irp_like: Irp,
               device: DeviceObject) -> FastIoResult:
        """Handle a FastIO call; default: pass down.

        ``irp_like`` carries the same parameter block an IRP would (file
        object, offset, length) without entering the IRP path — convenient
        and faithful: real FastIO routines take the same arguments.

        A filter that failed to implement pass-through here would block the
        whole system's FastIO access (the §10 hazard); the base class always
        forwarding is the "well-written filter" behaviour.
        """
        return self.forward_fastio(op, irp_like, device)

    def forward_fastio(self, op: FastIoOp, irp_like: Irp,
                       device: DeviceObject) -> FastIoResult:
        """Send the FastIO call to the next-lower device."""
        if device.lower is None:
            return FastIoResult.declined()
        return device.lower.driver.fastio(op, irp_like, device.lower)
