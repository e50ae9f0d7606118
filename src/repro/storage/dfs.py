"""An HDFS-like distributed file system.

Files are sequences of records chunked into blocks; each block is
replicated on ``cost.hdfs_replication`` workers, placed round-robin with
distinct replicas per block. Readers get per-block :class:`InputSplit`
objects carrying the preferred (replica-holding) nodes, which is what both
engines use for data-local task placement — Hadoop's "assign computation to
the node closest to the data" (§3.3).

Block boundaries are computed in *scaled* bytes, so the number of splits —
and hence Hadoop's map-task count — matches the modeled data volume, not
the (smaller) real volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.common.errors import StorageError
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.dataplane.batch import BatchBuilder, RecordBatch
from repro.obs import DISK, NETWORK
from repro.obs import hostprof as _hostprof


@dataclass
class Block:
    """One DFS block: real records plus logical size and replica placement."""

    block_id: int
    records: list[Any]
    nbytes: int  # pre-scale logical bytes
    replica_nodes: list[int]  # node ids holding a replica

    @property
    def nrecords(self) -> int:
        return len(self.records)


@dataclass
class DistributedFile:
    """A named DFS file: an ordered list of blocks."""

    name: str
    blocks: list[Block] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    @property
    def nrecords(self) -> int:
        return sum(block.nrecords for block in self.blocks)

    def records(self) -> Iterator[Any]:
        for block in self.blocks:
            yield from block.records


@dataclass(frozen=True)
class InputSplit:
    """The unit of loader/map parallelism: one block plus locality hints."""

    file_name: str
    block: Block

    @property
    def preferred_nodes(self) -> list[int]:
        return self.block.replica_nodes

    @property
    def nbytes(self) -> int:
        return self.block.nbytes

    @property
    def nrecords(self) -> int:
        return self.block.nrecords


class DFS:
    """The cluster-wide block store."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.cost = cluster.cost
        self._files: dict[str, DistributedFile] = {}
        self._next_block_id = 0
        self._placement_cursor = 0
        # Metrics
        self.bytes_written = 0  # scaled
        self.bytes_read = 0  # scaled

    # -- namespace -------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def get_file(self, name: str) -> DistributedFile:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"DFS: no such file {name!r}") from None

    # -- ingest (free, pre-run data placement) ----------------------------------

    def ingest(self, name: str, records: Iterable[Any]) -> DistributedFile:
        """Place ``records`` as a new file without charging any time.

        Models data already resident in HDFS before the measured job starts.
        """
        if name in self._files:
            raise StorageError(f"DFS: file {name!r} already exists")
        with _hostprof.scope(_hostprof.STORAGE, "dfs.ingest") as frame:
            file = DistributedFile(name)
            self._files[name] = file
            builder = BatchBuilder(
                self.cost.hdfs_block_size,
                scale_fn=self.cost.scaled_bytes,
            )
            for record in records:
                sealed = builder.add(record)
                if sealed is not None:
                    self._seal_block(file, sealed.records, sealed.nbytes)
            last = builder.drain()
            if last is not None:
                self._seal_block(file, last.records, last.nbytes)
            elif not file.blocks:
                self._seal_block(file, [], 0)
            frame.units(builder.records_added, file.nbytes)
        return file

    def _seal_block(self, file: DistributedFile, records: list[Any], nbytes: int) -> None:
        replicas = self._place_replicas()
        block = Block(self._next_block_id, records, nbytes, replicas)
        self._next_block_id += 1
        file.blocks.append(block)

    def _place_replicas(self) -> list[int]:
        workers = self.cluster.workers
        replication = min(self.cost.hdfs_replication, len(workers))
        start = self._placement_cursor
        self._placement_cursor = (self._placement_cursor + 1) % len(workers)
        return [workers[(start + i) % len(workers)].node_id for i in range(replication)]

    # -- charged operations (simulation processes: spawn or yield them) ---------

    def read_block(
        self,
        block: Block,
        reader: Node,
        cost_divisor: float = 1.0,
        job: str | None = None,
        span=None,
    ):
        """Process: read one block at ``reader``, local if it holds a replica.

        Returns the block's records. A remote read charges the replica
        holder's disk plus a network transfer; a local read only the disk.
        ``cost_divisor`` discounts charges for aggregated (key-space-
        bounded) files under the scale model. ``span`` attributes the
        charges to the calling task's span. The records come back as a
        :class:`~repro.dataplane.RecordBatch` carrying the block's cached
        size, so consumers never re-size them.
        """
        nbytes = block.nbytes / cost_divisor
        self.bytes_read += int(self.cost.scaled_bytes(nbytes))
        obs, sim = reader.obs, reader.sim
        if reader.node_id in block.replica_nodes:
            obs.count("dfs.local_reads", node=reader.node_id)
            t0 = sim.now
            yield reader.disk_read(nbytes)
            if obs.enabled and job is not None:
                obs.charge(job, DISK, sim.now - t0, node=reader.node_id, span=span)
        else:
            obs.count("dfs.remote_reads", node=reader.node_id)
            holder = self._node_by_id(block.replica_nodes[0])
            t0 = sim.now
            yield holder.disk_read(nbytes)
            t1 = sim.now
            yield self.cluster.network.send(holder, reader, nbytes)
            if obs.enabled and job is not None:
                obs.charge(job, DISK, t1 - t0, node=reader.node_id, span=span)
                obs.charge(job, NETWORK, sim.now - t1, node=reader.node_id, span=span)
        return RecordBatch(block.records, nbytes=block.nbytes)

    def write(
        self,
        name: str,
        records: Sequence[Any],
        writer: Node,
        cost_divisor: float = 1.0,
        job: str | None = None,
        span=None,
    ):
        """Process: write a new file from ``writer``, with pipelined replication.

        Charges: local disk write for the first replica, plus a network send
        and remote disk write per additional replica (HDFS write pipeline).
        ``cost_divisor`` discounts charges for aggregated output files.
        ``records`` may be any sequence, including a
        :class:`~repro.dataplane.RecordBatch`. Returns the created
        :class:`DistributedFile`.
        """
        if name in self._files:
            raise StorageError(f"DFS: file {name!r} already exists")
        file = DistributedFile(name)
        self._files[name] = file

        builder = BatchBuilder(
            self.cost.hdfs_block_size,
            scale_fn=lambda nbytes: self.cost.scaled_bytes(nbytes / cost_divisor),
        )
        for record in records:
            sealed = builder.add(record)
            if sealed is not None:
                yield from self._write_block(
                    file, sealed.records, sealed.nbytes, writer, cost_divisor, job, span
                )
        last = builder.drain()
        if last is not None:
            yield from self._write_block(
                file, last.records, last.nbytes, writer, cost_divisor, job, span
            )
        elif not file.blocks:
            yield from self._write_block(file, [], 0, writer, cost_divisor, job, span)
        return file

    def _write_block(
        self,
        file: DistributedFile,
        records: list[Any],
        nbytes: int,
        writer: Node,
        cost_divisor: float = 1.0,
        job: str | None = None,
        span=None,
    ):
        charge_bytes = nbytes / cost_divisor
        replicas = self._place_replicas()
        # Prefer the writer itself as first replica (HDFS local-write rule).
        if writer.node_id in [w.node_id for w in self.cluster.workers]:
            if writer.node_id in replicas:
                replicas.remove(writer.node_id)
            else:
                replicas.pop()
            replicas.insert(0, writer.node_id)
        block = Block(self._next_block_id, list(records), nbytes, replicas)
        self._next_block_id += 1
        self.bytes_written += int(self.cost.scaled_bytes(charge_bytes)) * len(replicas)

        first = self._node_by_id(replicas[0])
        obs, sim = writer.obs, self.cluster.sim
        t0 = sim.now
        events = [first.disk_write(charge_bytes)]
        previous = first
        for node_id in replicas[1:]:
            node = self._node_by_id(node_id)
            events.append(self.cluster.network.send(previous, node, charge_bytes))
            events.append(node.disk_write(charge_bytes))
            previous = node
        yield self.cluster.sim.all_of(events)
        if obs.enabled:
            obs.count("dfs.blocks_written", node=writer.node_id)
            obs.count("dfs.replica_bytes", int(charge_bytes) * len(replicas), node=writer.node_id)
            if job is not None:
                # The write pipeline overlaps replica disk writes with the
                # inter-replica sends; the critical path is disk-bound, so
                # the elapsed wait is blamed to DISK.
                obs.charge(job, DISK, sim.now - t0, node=writer.node_id, span=span)
        file.blocks.append(block)

    def concat(self, name: str, part_names: Sequence[str]) -> DistributedFile:
        """Create a file aliasing the blocks of existing files, in order.

        Free of charge — it is a namespace operation, like exposing a
        directory of reducer part files as one logical output.
        """
        if name in self._files:
            raise StorageError(f"DFS: file {name!r} already exists")
        file = DistributedFile(name)
        for part in part_names:
            file.blocks.extend(self.get_file(part).blocks)
        self._files[name] = file
        return file

    # -- splits ------------------------------------------------------------------

    def splits(self, name: str) -> list[InputSplit]:
        file = self.get_file(name)
        return [InputSplit(name, block) for block in file.blocks]

    def _node_by_id(self, node_id: int) -> Node:
        return self.cluster.nodes[node_id]
