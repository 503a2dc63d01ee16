"""Quickstart: build one traced NT machine, do some file work, read the
trace.

Runs in under a second.  Shows the core loop of the library: a
:class:`~repro.nt.system.Machine` with a mounted volume and a trace filter,
Win32-level file operations, and the resulting trace records — including
the IRP-then-FastIO pattern and the two-stage close.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro.common.clock import TICKS_PER_SECOND
from repro.common.flags import CreateDisposition, FileAccess
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.records import TraceEventKind


def main() -> None:
    # One NT 4.0 machine with a 2 GB NTFS volume, tracing installed.
    machine = Machine(MachineConfig(name="quickstart", seed=7))
    volume = Volume("C", Volume.NTFS, capacity_bytes=2 * 1024**3)
    machine.mount("C", volume)

    process = machine.create_process("demo.exe", interactive=True)
    w = machine.win32

    # Set up a directory and a file the paper-style way: probe, create,
    # write, close, read back.
    w.create_directory(process, r"C:\work")
    status, _ = w.create_file(process, r"C:\work\notes.txt")
    print(f"existence probe -> {status.name}")

    status, handle = w.create_file(
        process, r"C:\work\notes.txt",
        access=FileAccess.GENERIC_WRITE,
        disposition=CreateDisposition.OVERWRITE_IF)
    for _ in range(6):
        w.write_file(process, handle, 4096)
    w.close_handle(process, handle)

    status, handle = w.create_file(process, r"C:\work\notes.txt")
    while True:
        status, got = w.read_file(process, handle, 4096)
        if status.is_error or got == 0:
            break
    w.close_handle(process, handle)

    # Let the lazy writer flush and the deferred closes land.
    machine.run_until(machine.clock.now + 3 * TICKS_PER_SECOND)
    collector = machine.finish_tracing()

    print(f"\n{len(collector)} trace records, "
          f"{len(collector.name_records)} name records")
    kinds = Counter(TraceEventKind(r.kind).name for r in collector.records)
    for kind, count in kinds.most_common():
        print(f"  {kind:<40} {count}")

    print("\nkey perf counters:")
    for key in ("cc.cache_maps_initialized", "cc.copy_read.hits",
                "cc.copy_read.misses", "cc.copy_write.calls",
                "lw.deferred_closes", "cc.set_end_of_file"):
        print(f"  {key:<32} {machine.perf.value(key)}")


if __name__ == "__main__":
    main()
