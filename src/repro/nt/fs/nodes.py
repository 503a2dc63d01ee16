"""On-volume objects: files and directories.

Nodes are *content-free*: the study measures request streams, sizes and
timestamps, never byte values, so a file tracks its sizes and times but
stores no data.  The cache manager layers page state on top separately.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.flags import FileAttributes
from repro.nt.fs.path import casefold_component, extension_of

# Attribute masks folded to plain ints once, when the module loads:
# IntFlag arithmetic would build a FileAttributes member per node.
_DIRECTORY_MASK = int(FileAttributes.DIRECTORY)
_NOT_DIRECTORY_MASK = ~_DIRECTORY_MASK
_TEMPORARY_MASK = int(FileAttributes.TEMPORARY)


class Node:
    """Common state of files and directories."""

    __slots__ = (
        "node_id",
        "name",
        "parent",
        "attributes",
        "creation_time",
        "last_access_time",
        "last_write_time",
        "delete_pending",
        "open_count",
    )

    def __init__(self, node_id: int, name: str, attributes: int,
                 now: int) -> None:
        self.node_id = node_id
        self.name = name
        self.parent: Optional["DirectoryNode"] = None
        self.attributes = attributes
        self.creation_time = now
        self.last_access_time = now
        self.last_write_time = now
        self.delete_pending = False
        self.open_count = 0

    @property
    def is_directory(self) -> bool:
        # int() both sides: a plain-int & skips IntFlag.__and__'s member
        # re-resolution, which dominates this hot property otherwise.
        return bool(int(self.attributes) & _DIRECTORY_MASK)

    @property
    def extension(self) -> str:
        """Lower-cased type suffix (the paper's 'short name' form)."""
        return extension_of(self.name)

    def full_path(self) -> str:
        """Absolute volume-relative path of this node."""
        parts: list[str] = []
        node: Optional[Node] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "\\" + "\\".join(reversed(parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_directory else "file"
        return f"<{kind} {self.full_path()!r} id={self.node_id}>"


class FileNode(Node):
    """A regular file: sizes plus bookkeeping the cache/VM layers use.

    ``size`` is the end-of-file; ``allocation_size`` the cluster-rounded
    on-disk reservation; ``valid_data_length`` how far data has actually
    been written (the quantity SetEndOfFile trims back, §8.3).
    """

    __slots__ = ("size", "allocation_size", "valid_data_length",
                 "cache_map", "section", "share_grants")

    def __init__(self, node_id: int, name: str, attributes: FileAttributes,
                 now: int) -> None:
        super().__init__(node_id, name, int(attributes) & _NOT_DIRECTORY_MASK,
                         now)
        self.size = 0
        self.allocation_size = 0
        self.valid_data_length = 0
        # Set by the cache manager when caching is initialised for the file.
        self.cache_map = None
        # Set by the VM manager when a section (mapping) exists.
        self.section = None
        # Active (desired_access, share_mode) grants of current opens,
        # for NT sharing-mode arbitration.
        self.share_grants: list[tuple[int, int]] = []

    @property
    def is_temporary(self) -> bool:
        return bool(int(self.attributes) & _TEMPORARY_MASK)


class DirectoryNode(Node):
    """A directory: case-insensitive child map."""

    __slots__ = ("_children",)

    def __init__(self, node_id: int, name: str, attributes: FileAttributes,
                 now: int) -> None:
        super().__init__(node_id, name, int(attributes) | _DIRECTORY_MASK,
                         now)
        self._children: dict[str, Node] = {}

    def lookup(self, component: str) -> Optional[Node]:
        """Child by name, case-insensitively; None when absent."""
        return self._children.get(casefold_component(component))

    def attach(self, child: Node) -> None:
        """Add a child; the name must be free."""
        key = casefold_component(child.name)
        if key in self._children:
            raise ValueError(f"name collision in {self.full_path()!r}: {child.name!r}")
        self._children[key] = child
        child.parent = self

    def detach(self, child: Node) -> None:
        """Remove a child; it must be present."""
        key = casefold_component(child.name)
        if self._children.get(key) is not child:
            raise ValueError(f"{child.name!r} is not a child of {self.full_path()!r}")
        del self._children[key]
        child.parent = None

    def children(self) -> Iterator[Node]:
        """All children in insertion order."""
        return iter(self._children.values())

    @property
    def n_files(self) -> int:
        return sum(1 for c in self._children.values() if not c.is_directory)

    @property
    def n_subdirectories(self) -> int:
        return sum(1 for c in self._children.values() if c.is_directory)

    def __len__(self) -> int:
        return len(self._children)
