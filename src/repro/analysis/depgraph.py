"""The exported trace dependence graph.

Nodes are trace event indices; edges carry a kind tag:

* ``reg-raw`` / ``reg-war`` / ``reg-waw`` — vector/mask register
  dependences from the def-use pass;
* ``mem-raw`` / ``mem-war`` / ``mem-waw`` / ``fence`` — memory ordering
  from the footprint pass;
* ``vl`` — vector-length state: every instruction depends on the vsetvl
  governing it, and each vsetvl depends on its predecessor and on every
  instruction that executed under the previous grant.

All edges point forward in program order, so the graph is a DAG by
construction; any topological order is a legal execution order, which
:mod:`repro.analysis.replay` exploits to validate the edge set against
ground truth (bit-identical final state under reordering).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.trace import Trace
from .columns import SETVL, TraceColumns
from .footprint import MemoryFootprint, build_footprint

#: Edge kinds, in rough severity order for display.
EDGE_KINDS = ("reg-raw", "reg-war", "reg-waw",
              "mem-raw", "mem-war", "mem-waw", "fence", "vl")


@dataclass(frozen=True)
class DepEdge:
    src: int
    dst: int
    kind: str


@dataclass
class DepGraph:
    """Dependence DAG over one trace's events."""

    n_nodes: int
    edges: List[DepEdge]
    #: Adjacency: node -> sorted successor indices (deduplicated).
    succs: Dict[int, List[int]] = field(default_factory=dict)
    preds: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def critical_path(self) -> Tuple[int, int]:
        """(depth, width): longest dependence chain and the maximum number
        of nodes sharing one as-soon-as-possible level — the headroom
        numbers an instruction scheduler cares about."""
        level = [0] * self.n_nodes
        for node in range(self.n_nodes):
            preds = self.preds.get(node, ())
            if preds:
                level[node] = 1 + max(level[p] for p in preds)
        if not self.n_nodes:
            return (0, 0)
        counts: Dict[int, int] = {}
        for lvl in level:
            counts[lvl] = counts.get(lvl, 0) + 1
        return (max(level) + 1, max(counts.values()))

    def topological_order(self, prefer_late: bool = False) -> List[int]:
        """A topological order via Kahn's algorithm.

        ``prefer_late=False`` breaks ties toward program order (lowest
        ready node first); ``prefer_late=True`` picks the highest ready
        node, producing a maximally different — but still legal —
        schedule for the replay equivalence test.
        """
        indegree = [0] * self.n_nodes
        for node, preds in self.preds.items():
            indegree[node] = len(preds)
        sign = -1 if prefer_late else 1
        ready = [sign * node for node in range(self.n_nodes)
                 if indegree[node] == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node = sign * heapq.heappop(ready)
            order.append(node)
            for succ in self.succs.get(node, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, sign * succ)
        if len(order) != self.n_nodes:
            raise AssertionError("dependence graph contains a cycle")
        return order

    def to_json(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for edge in self.edges:
            by_kind[edge.kind] = by_kind.get(edge.kind, 0) + 1
        depth, width = self.critical_path()
        return {
            "nodes": self.n_nodes,
            "edges": [[e.src, e.dst, e.kind] for e in self.edges],
            "edge_counts": by_kind,
            "depth": depth,
            "width": width,
        }


def dependence_edge_groups(
        trace: Trace, columns: Optional[TraceColumns] = None,
        footprint: Optional[MemoryFootprint] = None
) -> List[Tuple[np.ndarray, np.ndarray, str]]:
    """The raw dependence relation as ``(src, dst, kind)`` array groups.

    This is the bulk form :func:`build_depgraph` dedups into
    :class:`DepEdge` objects; duplicates across groups are possible.
    """
    cols = columns if columns is not None else TraceColumns(trace)
    if footprint is None or not footprint.has_deps:
        footprint = build_footprint(trace, cols, with_deps=True)
    groups: List[Tuple[np.ndarray, np.ndarray, str]] = []

    def _pairs(src: np.ndarray, dst: np.ndarray, kind: str) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src):
            groups.append((src, dst, kind))

    # Register dependences, straight off the use->def bindings: RAW from
    # the reaching definition, WAR from each reader to the def that kills
    # the value it read, WAW between consecutive defs of one register.
    bound = np.nonzero(cols.use_def >= 0)[0]
    use_pos = cols.use_def[bound]
    _pairs(cols.def_event[use_pos], cols.use_event[bound], "reg-raw")
    killer = cols.def_killed_by[use_pos]
    war = (killer >= 0) & (cols.use_event[bound] != killer)
    _pairs(cols.use_event[bound][war], killer[war], "reg-war")
    same = cols.def_sorted_reg[1:] == cols.def_sorted_reg[:-1]
    _pairs(cols.def_sorted_event[:-1][same],
           cols.def_sorted_event[1:][same], "reg-waw")

    # vl-state dependences: every governed instruction depends on its
    # vsetvl, each vsetvl on its predecessor and on every instruction
    # that executed under the previous grant.
    governed = (cols.op_id != SETVL) & (cols.vl_setter >= 0)
    _pairs(cols.vl_setter[governed], cols.index[governed], "vl")
    if len(cols.setvl_event):
        nxt = np.searchsorted(cols.setvl_event, cols.index, side="right")
        fenced = governed & (nxt < len(cols.setvl_event))
        _pairs(cols.index[fenced],
               cols.setvl_event[nxt[fenced]], "vl")
        _pairs(cols.setvl_event[:-1], cols.setvl_event[1:], "vl")

    by_kind: Dict[str, List[Tuple[int, int]]] = {}
    for src, dst, kind in footprint.edges:
        by_kind.setdefault(kind, []).append((src, dst))
    for kind, pairs in by_kind.items():
        arr = np.asarray(pairs, dtype=np.int64)
        groups.append((arr[:, 0], arr[:, 1], kind))
    return groups


def build_depgraph(trace: Trace, columns: Optional[TraceColumns] = None,
                   footprint: Optional[MemoryFootprint] = None) -> DepGraph:
    """Assemble the dependence DAG from the columnar def-use facts and
    the footprint pass's memory dependence relation."""
    raw_edges: List[Tuple[int, int, str]] = []
    for src, dst, kind in dependence_edge_groups(trace, columns, footprint):
        raw_edges.extend(zip(src.tolist(), dst.tolist(), (kind,) * len(src)))

    edges = [DepEdge(src, dst, kind)
             for src, dst, kind in sorted(set(raw_edges))]
    succs: Dict[int, List[int]] = {}
    preds: Dict[int, List[int]] = {}
    seen = set()
    for edge in edges:
        if edge.src >= edge.dst:
            raise AssertionError(
                f"non-forward dependence edge {edge.src}->{edge.dst}")
        if (edge.src, edge.dst) in seen:
            continue
        seen.add((edge.src, edge.dst))
        succs.setdefault(edge.src, []).append(edge.dst)
        preds.setdefault(edge.dst, []).append(edge.src)
    return DepGraph(n_nodes=len(trace.events), edges=edges,
                    succs=succs, preds=preds)
