"""Trace events: vector instructions, scalar blocks, and memory patterns.

A workload trace is a sequence of :class:`VectorInstr` and
:class:`ScalarBlock` events. Memory-touching events carry a compact
:class:`MemAccess` pattern (base + stride + count, or an explicit address
vector for gathers/scatters) that machine models expand to cache-line
requests; this keeps traces small while driving a real cache simulator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import IsaError
from .opcodes import Category, OpInfo, opinfo

LINE_BYTES = 64


def _pickle_by_fields(cls):
    """Pickle ``cls`` instances as ``cls(*field values)``.

    The default reduction reads each instance's ``__dict__``, which on
    CPython 3.11+ materialises a dict the event then keeps for the rest
    of its life, so publishing a trace to the cell cache would grow the
    memory of every later simulation over it.
    """
    values = operator.attrgetter(*(f.name for f in fields(cls)))
    cls.__reduce__ = lambda self: (cls, values(self))
    return cls


@_pickle_by_fields
@dataclass(frozen=True)
class MemAccess:
    """A compact description of the addresses one instruction touches.

    Either a (base, stride, count) arithmetic pattern, or an explicit
    ``addresses`` vector for indexed accesses. ``elem_bytes`` is the access
    granularity (always 4 for the 32-bit integer ISA).
    """

    base: int = 0
    stride: int = 0
    count: int = 0
    elem_bytes: int = 4
    is_store: bool = False
    addresses: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.addresses is None and self.count > 0 and self.stride == 0 and self.count > 1:
            raise IsaError("strided pattern with zero stride and count > 1")
        if self.addresses is not None:
            addrs = np.asarray(self.addresses)
            if not np.issubdtype(addrs.dtype, np.integer):
                raise IsaError(
                    f"gather/scatter addresses must be integers "
                    f"(got dtype {addrs.dtype})")
            if addrs.size and int(addrs.min()) < 0:
                raise IsaError("gather/scatter addresses must be non-negative")

    @property
    def num_accesses(self) -> int:
        if self.addresses is not None:
            return int(len(self.addresses))
        return self.count

    def element_addresses(self) -> np.ndarray:
        """Byte address of every element access."""
        if self.addresses is not None:
            return np.asarray(self.addresses, dtype=np.int64)
        return self.base + self.stride * np.arange(self.count, dtype=np.int64)

    def line_addresses(self) -> np.ndarray:
        """Unique cache-line addresses, in first-touch order."""
        lines = self.element_addresses() // LINE_BYTES
        # np.unique sorts; preserve first-touch order for realistic streams.
        _, first = np.unique(lines, return_index=True)
        return lines[np.sort(first)] * LINE_BYTES

    def total_bytes(self) -> int:
        return self.num_accesses * self.elem_bytes


@_pickle_by_fields
@dataclass(frozen=True)
class VectorInstr:
    """One dynamic vector instruction in a trace."""

    op: str
    vl: int
    vd: int = -1
    vs1: int = -1
    vs2: int = -1
    #: Scalar operand (shift amounts, vx forms, slide offsets).
    scalar: int = 0
    masked: bool = False
    mem: Optional[MemAccess] = None
    #: Index-register source for indexed memory ops (for dependency tracking).
    vidx: int = -1
    #: Merge-old register for masked ops / vslideup: lanes the instruction
    #: does not produce are taken from this register.  Deliberately NOT
    #: part of :attr:`sources` — the timing models treat the merge as part
    #: of the writeback, so dependence chains (and cycle counts) ignore it;
    #: the static analyzer reads it via :attr:`reads`.
    vold: int = -1

    def __post_init__(self) -> None:
        info = self.info  # validates the opcode
        if info.category.is_memory and self.mem is None:
            raise IsaError(f"memory instruction {self.op} missing MemAccess")
        if self.vl < 0:
            raise IsaError("vector length must be non-negative")

    @property
    def info(self) -> OpInfo:
        return opinfo(self.op)

    @property
    def category(self) -> Category:
        return self.info.category

    @property
    def sources(self) -> Tuple[int, ...]:
        regs = [r for r in (self.vs1, self.vs2, self.vidx) if r >= 0]
        if self.info.is_store and self.vd >= 0:
            regs.append(self.vd)  # stores read their "destination" register
        return tuple(regs)

    @property
    def dest(self) -> int:
        if self.info.is_store or self.info.writes_scalar:
            return -1
        return self.vd

    @property
    def reads(self) -> Tuple[int, ...]:
        """Every register whose *value* this instruction consumes.

        Superset of :attr:`sources`: adds the merge-old register and, for
        masked instructions, the v0 predicate.  The static analyzer uses
        this; the timing scoreboards keep using :attr:`sources` so cycle
        accounting is unchanged.
        """
        regs = list(self.sources)
        if self.vold >= 0:
            regs.append(self.vold)
        if self.masked:
            regs.append(0)
        return tuple(regs)


@_pickle_by_fields
@dataclass(frozen=True)
class ScalarBlock:
    """A block of scalar instructions between vector instructions.

    ``n_instr`` counts all scalar instructions in the block; ``accesses``
    describes its memory traffic as patterns that machine models expand to
    cache-line requests.
    """

    n_instr: int
    accesses: Tuple[MemAccess, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_instr < 0:
            raise IsaError("scalar block size must be non-negative")

    @property
    def n_mem(self) -> int:
        return sum(a.num_accesses for a in self.accesses)


TraceEvent = object  # VectorInstr | ScalarBlock (kept loose for typing on 3.9)


def iter_vector(events: Sequence[TraceEvent]) -> Iterator[VectorInstr]:
    for event in events:
        if isinstance(event, VectorInstr):
            yield event


def iter_scalar(events: Sequence[TraceEvent]) -> Iterator[ScalarBlock]:
    for event in events:
        if isinstance(event, ScalarBlock):
            yield event
