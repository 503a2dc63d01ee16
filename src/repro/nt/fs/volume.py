"""Volumes: a mounted file-system namespace plus space accounting.

A volume carries the personality differences the paper's snapshot walker
had to cope with: FAT volumes do not maintain creation or last-access
times (§3.1), and both personalities round allocations to clusters.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.flags import FileAttributes
from repro.common.status import NtStatus
from repro.nt.fs.disk import DiskModel, IDE_DISK
from repro.nt.fs.nodes import DirectoryNode, FileNode, Node
from repro.nt.fs.path import split_path


class Volume:
    """One mounted file system (local disk volume or server share)."""

    FAT = "FAT"
    NTFS = "NTFS"

    def __init__(self, label: str, fs_type: str = NTFS,
                 capacity_bytes: int = 4 * 1024**3,
                 cluster_size: int = 4096,
                 disk: DiskModel = IDE_DISK,
                 is_remote: bool = False) -> None:
        if fs_type not in (self.FAT, self.NTFS):
            raise ValueError(f"unknown fs type: {fs_type}")
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if cluster_size <= 0 or cluster_size & (cluster_size - 1):
            raise ValueError("cluster size must be a positive power of two")
        self.label = label
        self.fs_type = fs_type
        self.capacity_bytes = capacity_bytes
        self.cluster_size = cluster_size
        self.disk = disk
        self.is_remote = is_remote
        self._next_node_id = 1
        self.bytes_used = 0
        self.root = DirectoryNode(0, "", FileAttributes.DIRECTORY, now=0)
        # Position of the last media transfer, for sequential-access pricing.
        self._last_accessed_node_id: Optional[int] = None
        self._last_accessed_end: int = 0

    # ------------------------------------------------------------------ #
    # Personality.

    @property
    def maintains_creation_time(self) -> bool:
        """FAT volumes do not keep creation times (§3.1)."""
        return self.fs_type == self.NTFS

    @property
    def maintains_access_time(self) -> bool:
        """FAT volumes do not keep last-access times (§3.1)."""
        return self.fs_type == self.NTFS

    # ------------------------------------------------------------------ #
    # Namespace.

    def resolve(self, path: str) -> Optional[Node]:
        """Node at ``path`` or None; intermediate non-directories fail."""
        node: Node = self.root
        for component in split_path(path):
            if not isinstance(node, DirectoryNode):
                return None
            child = node.lookup(component)
            if child is None:
                return None
            node = child
        return node

    def resolve_parent(self, path: str) -> tuple[Optional[DirectoryNode], str]:
        """(parent directory, final component) for ``path``.

        The parent is None when any intermediate component is missing or is
        a file — the OBJECT_PATH_NOT_FOUND case.
        """
        parts = split_path(path)
        if not parts:
            return None, ""
        node: Node = self.root
        for component in parts[:-1]:
            if not isinstance(node, DirectoryNode):
                return None, parts[-1]
            child = node.lookup(component)
            if child is None:
                return None, parts[-1]
            node = child
        if not isinstance(node, DirectoryNode):
            return None, parts[-1]
        return node, parts[-1]

    def create_file(self, parent: DirectoryNode, name: str,
                    attributes: FileAttributes, now: int) -> FileNode:
        """Create and attach a new regular file."""
        node = FileNode(self._allocate_id(), name, attributes, now)
        if not self.maintains_creation_time:
            node.creation_time = 0
        parent.attach(node)
        self._touch_write(parent, now)
        return node

    def create_directory(self, parent: DirectoryNode, name: str,
                         attributes: FileAttributes, now: int) -> DirectoryNode:
        """Create and attach a new directory."""
        node = DirectoryNode(self._allocate_id(), name, attributes, now)
        if not self.maintains_creation_time:
            node.creation_time = 0
        parent.attach(node)
        self._touch_write(parent, now)
        return node

    def remove_node(self, node: Node, now: int) -> NtStatus:
        """Unlink a node from its parent; directories must be empty."""
        if node.parent is None:
            return NtStatus.CANNOT_DELETE
        if isinstance(node, DirectoryNode) and len(node) > 0:
            return NtStatus.DIRECTORY_NOT_EMPTY
        if isinstance(node, FileNode):
            self._release(node.allocation_size)
            node.allocation_size = 0
        parent = node.parent
        parent.detach(node)
        self._touch_write(parent, now)
        return NtStatus.SUCCESS

    def walk(self) -> Iterator[Node]:
        """Depth-first traversal of every node below the root.

        Directories are yielded before their contents, matching the paper's
        snapshot records from which "the original tree can be recovered".
        """
        stack: list[Node] = list(self.root.children())
        stack.reverse()
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, DirectoryNode):
                children = list(node.children())
                children.reverse()
                stack.extend(children)

    # ------------------------------------------------------------------ #
    # Space accounting.

    def cluster_round(self, nbytes: int) -> int:
        """Round a byte count up to whole clusters."""
        if nbytes <= 0:
            return 0
        mask = self.cluster_size - 1
        return (nbytes + mask) & ~mask

    def set_file_size(self, node: FileNode, new_size: int, now: int) -> NtStatus:
        """Extend or truncate a file, adjusting the space accounting."""
        if new_size < 0:
            return NtStatus.INVALID_PARAMETER
        new_alloc = self.cluster_round(new_size)
        delta = new_alloc - node.allocation_size
        if delta > 0 and self.bytes_used + delta > self.capacity_bytes:
            return NtStatus.DISK_FULL
        self.bytes_used += delta
        node.allocation_size = new_alloc
        node.size = new_size
        if node.valid_data_length > new_size:
            node.valid_data_length = new_size
        self._touch_write(node, now)
        return NtStatus.SUCCESS

    def _release(self, allocation: int) -> None:
        self.bytes_used = max(0, self.bytes_used - allocation)

    @property
    def fullness(self) -> float:
        """Fraction of capacity in use (the paper saw 54%–87%)."""
        return self.bytes_used / self.capacity_bytes

    # ------------------------------------------------------------------ #
    # Media access pricing.

    def media_service_ticks(self, node: FileNode, offset: int, nbytes: int,
                            rng) -> int:
        """Disk time for a transfer, cheap when it continues the last one."""
        sequential = (self._last_accessed_node_id == node.node_id
                      and offset == self._last_accessed_end)
        self._last_accessed_node_id = node.node_id
        self._last_accessed_end = offset + nbytes
        return self.disk.service_ticks(nbytes, rng, sequential=sequential)

    # ------------------------------------------------------------------ #
    # Internals.

    def _allocate_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _touch_write(self, node: Node, now: int) -> None:
        node.last_write_time = now
        if self.maintains_access_time:
            node.last_access_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Volume {self.label} {self.fs_type} "
                f"{self.bytes_used}/{self.capacity_bytes}B>")
