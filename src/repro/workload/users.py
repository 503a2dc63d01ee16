"""The five usage categories of §2, and machine construction.

Walk-up, pool, personal, administrative and scientific machines differ in
hardware (CPU class, memory, disk technology), content (developer machines
carry an SDK-like package; scientific ones carry datasets) and in their
application mix.  A fraction of walk-up machines run FAT, which drops
creation/last-access time maintenance (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nt.fs.disk import IDE_DISK, SCSI_ULTRA2_DISK, DiskModel
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.workload.apps import (
    AppModel,
    BigBufferMailerApp,
    CompilerApp,
    DbAdminApp,
    FrontPageApp,
    InstallerApp,
    JavaToolApp,
    MailApp,
    NotepadApp,
    ScientificApp,
    WebBrowserApp)
from repro.workload.content import ContentCatalog, build_system_volume


@dataclass(frozen=True)
class UsageCategory:
    """One §2 usage category: hardware band plus application mix."""

    name: str
    cpu_mhz: tuple[int, int]
    memory_mb: tuple[int, int]
    disk: DiskModel
    disk_capacity_gb: tuple[float, float]
    fat_probability: float
    developer: bool
    scientific: bool
    # (app class, launch weight) for session applications.
    app_mix: tuple[tuple[type[AppModel], float], ...]
    # Heavy-tailed session launch interarrival scale (seconds).
    session_interarrival_xm: float = 8.0


CATEGORY_PROFILES: dict[str, UsageCategory] = {
    "walkup": UsageCategory(
        name="walkup", cpu_mhz=(200, 233), memory_mb=(64, 96),
        disk=IDE_DISK, disk_capacity_gb=(2.0, 4.0), fat_probability=0.3,
        developer=False, scientific=False,
        app_mix=((NotepadApp, 3.0), (WebBrowserApp, 3.0), (MailApp, 2.0),
                 (CompilerApp, 0.5), (InstallerApp, 0.2)),
        session_interarrival_xm=8.0),
    "pool": UsageCategory(
        name="pool", cpu_mhz=(300, 450), memory_mb=(96, 128),
        disk=IDE_DISK, disk_capacity_gb=(4.0, 6.0), fat_probability=0.0,
        developer=True, scientific=False,
        app_mix=((CompilerApp, 4.0), (JavaToolApp, 2.0), (WebBrowserApp, 2.0),
                 (NotepadApp, 1.0), (BigBufferMailerApp, 0.5)),
        session_interarrival_xm=6.0),
    "personal": UsageCategory(
        name="personal", cpu_mhz=(200, 266), memory_mb=(64, 128),
        disk=IDE_DISK, disk_capacity_gb=(2.0, 6.0), fat_probability=0.1,
        developer=False, scientific=False,
        app_mix=((MailApp, 3.0), (WebBrowserApp, 3.0), (NotepadApp, 2.0),
                 (FrontPageApp, 1.0), (BigBufferMailerApp, 0.5),
                 (CompilerApp, 0.5), (InstallerApp, 0.2)),
        session_interarrival_xm=10.0),
    "administrative": UsageCategory(
        name="administrative", cpu_mhz=(200, 233), memory_mb=(64, 96),
        disk=IDE_DISK, disk_capacity_gb=(2.0, 4.0), fat_probability=0.1,
        developer=False, scientific=False,
        app_mix=((DbAdminApp, 4.0), (MailApp, 2.0), (WebBrowserApp, 1.0)),
        session_interarrival_xm=10.0),
    "scientific": UsageCategory(
        name="scientific", cpu_mhz=(450, 450), memory_mb=(256, 512),
        disk=SCSI_ULTRA2_DISK, disk_capacity_gb=(9.0, 18.0),
        fat_probability=0.0, developer=False, scientific=True,
        app_mix=((ScientificApp, 4.0), (DbAdminApp, 1.0),
                 (WebBrowserApp, 0.5)),
        session_interarrival_xm=12.0),
}


@dataclass
class BuiltMachine:
    """A machine ready to run its workload."""

    machine: Machine
    catalog: ContentCatalog
    category: UsageCategory
    username: str
    remote_prefix: str = ""
    remote_catalog: ContentCatalog | None = field(default=None)


def build_machine(name: str, category_name: str, seed: int,
                  content_scale: float = 0.2,
                  username: str | None = None,
                  spans_enabled: bool = False,
                  verifier_enabled: bool = False,
                  metrics_interval_seconds: float = 0.0) -> BuiltMachine:
    """Construct one traced machine of the given category with content."""
    category = CATEGORY_PROFILES[category_name]
    seeder = np.random.default_rng(seed)
    config = MachineConfig(
        name=name,
        category=category_name,
        cpu_mhz=int(seeder.integers(category.cpu_mhz[0],
                                    category.cpu_mhz[1] + 1)),
        memory_mb=int(seeder.integers(category.memory_mb[0],
                                      category.memory_mb[1] + 1)),
        disk=category.disk,
        disk_capacity_gb=float(seeder.uniform(*category.disk_capacity_gb)),
        fs_type=(Volume.FAT if seeder.random() < category.fat_probability
                 else Volume.NTFS),
        seed=seed,
        spans_enabled=spans_enabled,
        verifier_enabled=verifier_enabled,
        metrics_interval_seconds=metrics_interval_seconds,
    )
    machine = Machine(config)
    volume = Volume(
        label=f"{name}-C", fs_type=config.fs_type,
        capacity_bytes=int(config.disk_capacity_gb * 1024**3),
        disk=config.disk)
    user = username or f"user{seed % 1000:03d}"
    catalog = build_system_volume(
        volume, machine.rng, username=user, scale=content_scale,
        developer=category.developer, scientific=category.scientific)
    machine.mount("C", volume)
    return BuiltMachine(machine=machine, catalog=catalog, category=category,
                        username=user)
