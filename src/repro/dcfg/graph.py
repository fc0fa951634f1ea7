"""The dynamic control-flow graph and its construction.

A DCFG differs from a static CFG in that every edge is annotated with the
number of times it was traversed during the (replayed) execution.  We build
it per thread — consecutive block executions on the same thread form an edge
— and merge the per-thread counts, mirroring the per-thread edge recording of
the paper's pin-tool (Sec. IV-D).

Because edges only join a thread's own consecutive blocks, the recording
run and every replay of it produce the same counts.  The pipeline
therefore attaches a :class:`DCFGBuilder` to the recording engine and
needs no analysis replay; :func:`build_dcfg_from_pinball` is the fallback
when the pinball came from a cache instead.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..errors import ProgramStructureError
from ..exec_engine.observers import Observer
from ..isa.blocks import BasicBlock
from ..isa.image import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.ring import EventBatch

#: The virtual entry node (threads' first blocks hang off it).
ENTRY = -1


class DCFG:
    """A dynamic control-flow graph with edge trip counts."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.edge_counts: Dict[Tuple[int, int], int] = defaultdict(int)
        self.node_counts: Dict[int, int] = defaultdict(int)

    def add_edge(self, src: int, dst: int, count: int = 1) -> None:
        if count <= 0:
            raise ProgramStructureError(f"edge count must be positive, got {count}")
        self.edge_counts[(src, dst)] += count

    def add_node_executions(self, bid: int, count: int) -> None:
        self.node_counts[bid] += count

    @property
    def nodes(self) -> Set[int]:
        found = set(self.node_counts)
        for src, dst in self.edge_counts:
            found.add(src)
            found.add(dst)
        found.discard(ENTRY)
        return found

    def successors(self) -> Dict[int, List[int]]:
        succ: Dict[int, List[int]] = defaultdict(list)
        for (src, dst) in self.edge_counts:
            succ[src].append(dst)
        return dict(succ)

    def predecessors(self) -> Dict[int, List[int]]:
        pred: Dict[int, List[int]] = defaultdict(list)
        for (src, dst) in self.edge_counts:
            pred[dst].append(src)
        return dict(pred)

    def reachable_from(self, entry: int = ENTRY) -> Set[int]:
        """Nodes reachable from ``entry`` (``entry`` itself included)."""
        succ = self.successors()
        seen = {entry}
        stack = [entry]
        while stack:
            node = stack.pop()
            for child in succ.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def edge_trip_count(self, src: int, dst: int) -> int:
        return self.edge_counts.get((src, dst), 0)

    def block(self, bid: int) -> BasicBlock:
        return self.program.blocks[bid]


class DCFGBuilder(Observer):
    """Observer that accumulates per-thread edges during a (re)play.

    ``track_threads=True`` additionally keeps each thread's own edge
    multiset, from which :meth:`thread_graph` reconstructs the per-thread
    subgraph — what the lint dominance-certification pass reasons over
    (a marker-dominance claim must hold on every thread's own walk, not
    just the merged graph).  The default stays off: the merged graph is
    all the profiling pipeline needs, and the per-thread dicts would
    roughly double the builder's memory.

    Edges join consecutive blocks of one thread, so the graph depends only
    on each thread's own block order: the builder needs neither flushes
    before syncs nor start indices.
    """

    needs_flush_before_sync = False
    needs_start_index = False

    def __init__(
        self, program: Program, nthreads: int, track_threads: bool = False
    ) -> None:
        self.dcfg = DCFG(program)
        self._last: List[int] = [ENTRY] * nthreads
        self._thread_edges: Optional[List[Dict[Tuple[int, int], int]]] = (
            [defaultdict(int) for _ in range(nthreads)]
            if track_threads else None
        )

    def on_block(self, tid: int, block, repeat: int, start_index: int) -> None:
        self._chain(tid, block.bid, repeat)

    def on_block_batch(self, batch: "EventBatch") -> None:
        """Batched :meth:`on_block`: one loop over the batch's columns.

        The recording engine flushes at every sync (the recorder orders
        blocks against syncs), so the batches a builder sees there are
        small — a median of 86 events on a ref app.  A numpy reduction's
        fixed cost per batch exceeds this loop at that size.
        """
        chain = self._chain
        for tid, bid, repeat in zip(
            batch.tid.tolist(), batch.bid.tolist(), batch.repeat.tolist()
        ):
            chain(tid, bid, repeat)

    def _chain(self, tid: int, bid: int, repeat: int) -> None:
        """Add ``repeat`` executions of ``bid`` to thread ``tid``'s walk."""
        edge = (self._last[tid], bid)
        self._last[tid] = bid
        dcfg = self.dcfg
        dcfg.edge_counts[edge] += 1
        dcfg.node_counts[bid] += repeat
        if repeat > 1:
            dcfg.edge_counts[(bid, bid)] += repeat - 1
        if self._thread_edges is not None:
            edges = self._thread_edges[tid]
            edges[edge] += 1
            if repeat > 1:
                edges[(bid, bid)] += repeat - 1

    def result(self) -> DCFG:
        return self.dcfg

    @property
    def tracks_threads(self) -> bool:
        return self._thread_edges is not None

    def thread_graph(self, tid: int) -> DCFG:
        """One thread's own subgraph (requires ``track_threads=True``).

        Node execution counts are derived from in-flow — every execution
        of a block on this thread arrived over exactly one recorded edge
        (the virtual ENTRY edge for its first block) — so the flow
        conservation laws hold on the reconstruction by construction.
        """
        if self._thread_edges is None:
            raise ProgramStructureError(
                "DCFGBuilder was constructed without track_threads=True"
            )
        graph = DCFG(self.dcfg.program)
        for (src, dst), count in self._thread_edges[tid].items():
            graph.add_edge(src, dst, count)
            graph.add_node_executions(dst, count)
        return graph

    def thread_graphs(self) -> List[DCFG]:
        if self._thread_edges is None:
            raise ProgramStructureError(
                "DCFGBuilder was constructed without track_threads=True"
            )
        return [self.thread_graph(t) for t in range(len(self._thread_edges))]


def build_dcfg_from_pinball(program: Program, pinball) -> DCFG:
    """Replay a pinball and build its DCFG (the paper's analysis step)."""
    from ..pinplay.replayer import ConstrainedReplayer

    builder = DCFGBuilder(program, pinball.nthreads)
    ConstrainedReplayer(program, pinball, observers=(builder,)).run()
    return builder.result()
