"""Node-local files and location references.

HAMR's locality-awareness (§3.3): any flowlet may write data to its node's
local disk and pass a small :class:`LocationRef` downstream instead of the
bulk data; a later flowlet routes back to the owning node (by partitioning
on the reference) and reads the data locally. K-Means (Alg. 1) and
Classification use exactly this pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.common.errors import StorageError
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.dataplane.batch import batch_nbytes


@dataclass
class LocalFile:
    """A named file on one node's local disks."""

    node_id: int
    name: str
    records: list[Any]
    nbytes: int  # pre-scale logical bytes

    @property
    def nrecords(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class LocationRef:
    """A small handle naming data at rest on a node (file + slice).

    This is the paper's "small data e.g. index or identifier" passed
    between flowlets in place of the real payload. Its logical size is a
    fixed handful of bytes regardless of what it points to.
    """

    node_id: int
    file_name: str
    offset: int = 0
    length: int = -1  # -1 means "to end of file"

    #: logical wire size of a reference (two ints + a short name)
    logical_size = 24


class LocalFS:
    """Per-node local file namespace with charged read/write processes."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.cost = cluster.cost
        self._files: dict[tuple[int, str], LocalFile] = {}

    # -- namespace ---------------------------------------------------------------

    def exists(self, node: Node, name: str) -> bool:
        return (node.node_id, name) in self._files

    def get_file(self, node_id: int, name: str) -> LocalFile:
        try:
            return self._files[(node_id, name)]
        except KeyError:
            raise StorageError(f"LocalFS: no file {name!r} on node {node_id}") from None

    def files_on(self, node: Node) -> list[str]:
        return sorted(name for (nid, name) in self._files if nid == node.node_id)

    def delete(self, node: Node, name: str) -> None:
        self._files.pop((node.node_id, name), None)

    # -- ingest (free) -------------------------------------------------------------

    def ingest(self, node: Node, name: str, records: Iterable[Any]) -> LocalFile:
        """Place records on ``node`` without charging time (pre-run state)."""
        key = (node.node_id, name)
        if key in self._files:
            raise StorageError(f"LocalFS: file {name!r} exists on node {node.node_id}")
        recs = list(records)
        nbytes = batch_nbytes(recs)
        file = LocalFile(node.node_id, name, recs, nbytes)
        self._files[key] = file
        return file

    # -- synchronous placement (costs charged by the caller) ---------------------

    def place(self, node: Node, name: str, records: Iterable[Any]) -> tuple["LocationRef", int]:
        """Write/append synchronously; returns ``(ref, nbytes)``.

        Used by :class:`~repro.core.context.TaskContext`, which defers the
        disk-time charge to the surrounding engine task. ``nbytes`` is the
        pre-scale logical size the caller must charge.
        """
        recs = list(records)
        nbytes = batch_nbytes(recs)
        key = (node.node_id, name)
        file = self._files.get(key)
        if file is None:
            file = LocalFile(node.node_id, name, [], 0)
            self._files[key] = file
        offset = len(file.records)
        file.records.extend(recs)
        file.nbytes += nbytes
        return LocationRef(node.node_id, name, offset=offset, length=len(recs)), nbytes

    def resolve(self, node: Node, ref: LocationRef) -> tuple[list[Any], int]:
        """Resolve a ref synchronously; returns ``(records, nbytes)`` for the
        caller to charge as a deferred disk read."""
        if ref.node_id != node.node_id:
            raise StorageError(
                f"LocationRef for node {ref.node_id} resolved on node {node.node_id}; "
                "route the reference back to its owner first"
            )
        file = self.get_file(ref.node_id, ref.file_name)
        if ref.length < 0:
            records = file.records[ref.offset :]
        else:
            records = file.records[ref.offset : ref.offset + ref.length]
        nbytes = batch_nbytes(records)
        return list(records), nbytes

    # -- charged processes -----------------------------------------------------------

    def write(self, node: Node, name: str, records: Iterable[Any]):
        """Process: write (or append to) a local file, charging disk time.

        Returns a :class:`LocationRef` spanning the newly written records.
        """
        recs = list(records)
        nbytes = batch_nbytes(recs)
        key = (node.node_id, name)
        file = self._files.get(key)
        if file is None:
            file = LocalFile(node.node_id, name, [], 0)
            self._files[key] = file
        offset = len(file.records)
        file.records.extend(recs)
        file.nbytes += nbytes
        yield node.disk_write(nbytes)
        return LocationRef(node.node_id, name, offset=offset, length=len(recs))

    def read(self, node: Node, name: str):
        """Process: read a whole local file on its owning node."""
        file = self.get_file(node.node_id, name)
        yield node.disk_read(file.nbytes)
        return list(file.records)

    def read_ref(self, node: Node, ref: LocationRef):
        """Process: resolve a :class:`LocationRef` (must run on the owning node)."""
        if ref.node_id != node.node_id:
            raise StorageError(
                f"LocationRef for node {ref.node_id} resolved on node {node.node_id}; "
                "route the reference back to its owner first"
            )
        file = self.get_file(ref.node_id, ref.file_name)
        if ref.length < 0:
            records = file.records[ref.offset :]
        else:
            records = file.records[ref.offset : ref.offset + ref.length]
        nbytes = batch_nbytes(records)
        yield node.disk_read(nbytes)
        return list(records)
