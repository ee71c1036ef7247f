"""A bit-exact EVE engine: whole kernels through real micro-programs.

:class:`EveFunctionalEngine` duck-types the workload-facing API of
:class:`~repro.isa.intrinsics.VectorContext`, but every arithmetic result
is produced by executing the ROM's micro-programs on the bit-level
:class:`~repro.sram.EveSram` — no numpy arithmetic on the data path.  Any
kernel written against the intrinsics API therefore runs unchanged on
either context, and comparing their outputs validates the paper's
function/timing split end to end.

Modelling notes:

* The engine uses one wide SRAM (arrays side by side); column groups are
  local, so this is equivalent to broadcasting the μop stream to the
  array pool.
* Register allocation is compiler-style: handles own architectural
  registers; when the 31-register pool wraps onto a live value it is
  *spilled* (read out through the memory path) and transparently reloaded
  at its next use.  ``spills`` counts these events.
* The DTU's transpose and the VRU's fold are performed functionally
  (host-side bit reshuffling), exactly the role those hardware blocks play.
* ``vx`` operand forms splat the scalar through the data-in port first,
  as the VCU would.
* Known proxies (documented in DESIGN.md): ``vmulh``/``vmulhu`` and
  signed division with negative operands are not bit-exact and raise.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..faults.inject import NULL_FAULTS
from ..isa.intrinsics import wrap32
from ..isa.memory import Buffer, VirtualMemory
from ..sram.eve_sram import EveSram
from ..sram.layout import RegisterLayout
from ..uops.executor import Binding, MicroEngine
from ..uops.rom import MacroOpRom

_I32 = np.int32


class EveVec:
    """Handle to a vector value resident in the EVE SRAM.

    When the register allocator wraps onto a live value it spills it to
    memory (as compiled code would); ``spilled`` holds the value until the
    handle's next use reloads it into a fresh register.
    """

    __slots__ = ("reg", "spilled", "__weakref__")

    def __init__(self, reg: int = -1) -> None:
        self.reg = reg
        self.spilled: Optional[np.ndarray] = None


class EveMask(EveVec):
    """Handle to a 0/1 mask value resident in the EVE SRAM."""


Operand = Union[EveVec, int, np.integer]


class EveFunctionalEngine:
    """Bit-exact vector execution on the EVE SRAM pool.

    Queued macro-ops run as blocks of ROM micro-programs on the
    :class:`MicroEngine` (:meth:`~repro.uops.executor.MicroEngine.run_block`),
    and every register read or write goes through the SRAM.
    """

    def __init__(self, factor: int, capacity: int = 64,
                 num_vregs: int = 32, element_bits: int = 32,
                 faults=None) -> None:
        segments = element_bits // factor
        rows = max(256, num_vregs * segments)
        cols = capacity * factor
        self.layout = RegisterLayout(rows=rows, cols=cols,
                                     element_bits=element_bits,
                                     factor=factor, num_vregs=num_vregs)
        if self.layout.elements_per_array != capacity:
            raise SimulationError("functional engine layout mismatch")
        self.faults = faults if faults is not None else NULL_FAULTS
        self.sram = EveSram(rows, cols, factor)
        self.sram.faults = self.faults
        self.rom = MacroOpRom(factor, element_bits, strict=True)
        self.engine = MicroEngine(faults=self.faults)
        self.vm = VirtualMemory()
        self.capacity = capacity
        self._pending: list = []     # macro ops awaiting block execution
        self.vl = 0
        self.cycles = 0
        self.spills = 0
        self._next_reg = 1
        self._num_vregs = num_vregs
        self._bound: dict = {}       # reg -> weakref to the owning handle
        self._pinned: set = set()    # regs an in-flight op depends on

    # -- register allocation (with compiler-style spilling) -----------------

    def _alloc(self, owner: Optional[EveVec] = None) -> int:
        """Claim the next non-pinned register, spilling any live value."""
        for _ in range(self._num_vregs):
            reg = self._next_reg
            self._next_reg += 1
            if self._next_reg >= self._num_vregs:
                self._next_reg = 1
            if reg in self._pinned:
                continue
            holder = self._bound.get(reg)
            handle = holder() if holder is not None else None
            if handle is not None and handle.reg == reg and handle.spilled is None:
                handle.spilled = self._dp_read(reg)
                handle.reg = -1
                self.spills += 1
            if owner is not None:
                self._bound[reg] = weakref.ref(owner)
            else:
                self._bound.pop(reg, None)
            return reg
        raise SimulationError("register pool exhausted (all pinned)")

    def _new_handle(self, cls=EveVec) -> EveVec:
        handle = cls()
        handle.reg = self._alloc(owner=handle)
        return handle

    def _ensure(self, handle: EveVec) -> int:
        """Make a handle's value register-resident; reload if spilled."""
        if handle.reg >= 0:
            holder = self._bound.get(handle.reg)
            if holder is not None and holder() is handle:
                return handle.reg
        if handle.spilled is None:
            raise SimulationError(
                "stale register handle (overwritten without a spill)")
        reg = self._alloc(owner=handle)
        self._dp_write(reg, handle.spilled)
        handle.reg = reg
        handle.spilled = None
        return reg

    def _pin_source(self, value: EveVec) -> int:
        reg = self._ensure(value)
        self._pinned.add(reg)
        return reg

    def _pin_operand(self, value: Operand) -> Tuple[int, Optional[EveVec]]:
        """Pin a Vec operand, or splat a scalar into a pinned temp."""
        if isinstance(value, EveVec):
            return self._pin_source(value), None
        temp = self._new_handle()
        self._pinned.add(temp.reg)
        self._run("splat", {"vd": temp.reg}, scalar=int(value))
        return temp.reg, temp

    def _run(self, macro: str, regs: dict, scalar: int = 0, **params) -> None:
        """Queue one macro-operation for block execution.

        Emission order is execution order: any datapath read or write
        (spill, reload, host observation) flushes the pending block first,
        so the macro stream the datapath sees is byte-for-byte the
        sequence the per-macro interpreter executed.
        """
        if self.faults.enabled:
            self.faults.on_macro(macro)
        self._pending.append((macro, regs, int(scalar), params))

    def _flush(self) -> None:
        """Execute the pending macro block on the bit datapath."""
        if self._pending:
            block, self._pending = self._pending, []
            rom, layout = self.rom, self.layout
            self.cycles += self.engine.run_block(
                [(rom.program(macro, **params),
                  Binding(layout=layout, regs=regs, scalar=scalar))
                 for macro, regs, scalar, params in block],
                self.sram)

    def _dp_read(self, reg: int) -> np.ndarray:
        self._flush()
        return self.sram.read_vreg(self.layout, reg)

    def _dp_write(self, reg: int, values: np.ndarray) -> None:
        self._flush()
        self.sram.write_vreg(self.layout, reg, values)

    def _read(self, handle_or_reg) -> np.ndarray:
        reg = (self._ensure(handle_or_reg)
               if isinstance(handle_or_reg, EveVec) else handle_or_reg)
        return self._dp_read(reg)[: self.vl]

    def peek(self, handle: EveVec) -> np.ndarray:
        """Host-side read of a handle's current value (``vl`` elements).

        Public observation port for the differential fuzzer: reloads the
        handle if it was spilled, exactly as its next use would.
        """
        return self._read(handle).copy()

    def _write_new(self, values: np.ndarray, cls=EveVec) -> EveVec:
        handle = self._new_handle(cls)
        full = np.zeros(self.capacity, dtype=np.int64)
        full[: len(values)] = np.asarray(values, dtype=np.int64)
        self._dp_write(handle.reg, full)
        return handle

    # -- control ----------------------------------------------------------------

    def setvl(self, avl: int) -> int:
        self.vl = min(int(avl), self.capacity)
        return self.vl

    def vmfence(self) -> None:
        """No-op functionally: memory effects are immediate here."""

    def scalar(self, n_instr: int, accesses=()) -> None:
        """Scalar bookkeeping has no data-path effect in the oracle."""

    # -- memory (the DTU performs the transpose functionally) ----------------------

    def vle32(self, buf: Buffer, offset: int = 0) -> EveVec:
        return self._write_new(buf.data[offset:offset + self.vl])

    def vse32(self, vec: EveVec, buf: Buffer, offset: int = 0,
              mask: Optional[EveMask] = None) -> None:
        values = self._read(vec).astype(_I32)
        target = buf.data[offset:offset + self.vl]
        if mask is None:
            target[:] = values
        else:
            np.copyto(target, values, where=self._read(mask) != 0)

    def vlse32(self, buf: Buffer, offset: int, stride_elems: int) -> EveVec:
        last = offset + stride_elems * (self.vl - 1)
        return self._write_new(buf.data[offset:last + 1:stride_elems])

    def vsse32(self, vec: EveVec, buf: Buffer, offset: int,
               stride_elems: int) -> None:
        last = offset + stride_elems * (self.vl - 1)
        buf.data[offset:last + 1:stride_elems] = self._read(vec).astype(_I32)

    def vluxei32(self, buf: Buffer, index: EveVec) -> EveVec:
        idx = self._read(index)
        return self._write_new(buf.data[idx])

    def vsuxei32(self, vec: EveVec, buf: Buffer, index: EveVec) -> None:
        idx = self._read(index)
        buf.data[idx] = self._read(vec).astype(_I32)

    # -- binary ops through the ROM ---------------------------------------------------

    #: Macros that complement one source in place (Figure 4a): the VCU
    #: must break a vs1/vs2 alias with a register copy first, or the
    #: complement corrupts the other operand (found by the differential
    #: fuzzer: ``vsub(a, a)`` returned ``-2a - 1``).
    _ALIAS_UNSAFE = frozenset({"sub", "rsub"})

    def _unalias(self, src_reg: int) -> int:
        """Copy ``src_reg`` into a pinned temporary; returns the copy."""
        temp = self._new_handle()
        self._pinned.add(temp.reg)
        self._run("move", {"vs1": src_reg, "vd": temp.reg})
        return temp.reg

    def _binary(self, macro: str, a: EveVec, b: Operand, cls=EveVec,
                **params) -> EveVec:
        self._pinned.clear()
        try:
            a_reg = self._pin_source(a)
            b_reg, _temp = self._pin_operand(b)
            if macro in self._ALIAS_UNSAFE and b_reg == a_reg:
                b_reg = self._unalias(b_reg)
            vd = self._new_handle(cls)
            self._run(macro, {"vs1": a_reg, "vs2": b_reg, "vd": vd.reg},
                      **params)
        finally:
            self._flush()
            self._pinned.clear()
        return vd

    def _masked_binary(self, macro: str, a: EveVec, b: Operand,
                       mask: EveMask, old: Optional[EveVec]) -> EveVec:
        self._pinned.clear()
        try:
            a_reg = self._pin_source(a)
            b_reg, _temp = self._pin_operand(b)
            if macro in self._ALIAS_UNSAFE and b_reg == a_reg:
                b_reg = self._unalias(b_reg)
            m_reg = self._pin_source(mask)
            vd = self._new_handle()
            self._pinned.add(vd.reg)
            # Seed the destination with `old` (or zeros): masked-off
            # groups keep it, the masked program writes the rest.
            if old is not None:
                self._run("move", {"vs1": self._pin_source(old), "vd": vd.reg})
            else:
                self._run("splat", {"vd": vd.reg}, scalar=0)
            self._run(macro, {"vs1": a_reg, "vs2": b_reg, "vd": vd.reg,
                              "vm": m_reg}, masked=True)
        finally:
            self._flush()
            self._pinned.clear()
        return vd

    def vadd(self, a: EveVec, b: Operand, mask=None, old=None) -> EveVec:
        if mask is not None:
            return self._masked_binary("add", a, b, mask, old)
        return self._binary("add", a, b)

    def vsub(self, a: EveVec, b: Operand, mask=None, old=None) -> EveVec:
        if mask is not None:
            return self._masked_binary("sub", a, b, mask, old)
        return self._binary("sub", a, b)

    def vrsub(self, a: EveVec, b: Operand) -> EveVec:
        return self._binary("rsub", a, b)

    def vand(self, a, b):
        return self._binary("logic", a, b, op="and")

    def vor(self, a, b):
        return self._binary("logic", a, b, op="or")

    def vxor(self, a, b):
        return self._binary("logic", a, b, op="xor")

    def vnot(self, a):
        return self._binary("logic", a, 0, op="not")

    def vmin(self, a, b):
        return self._binary("minmax", a, b, op="min", signed=True)

    def vmax(self, a, b):
        return self._binary("minmax", a, b, op="max", signed=True)

    def vminu(self, a, b):
        return self._binary("minmax", a, b, op="min", signed=False)

    def vmaxu(self, a, b):
        return self._binary("minmax", a, b, op="max", signed=False)

    def vmul(self, a, b):
        return self._binary("mul", a, b)

    # -- saturating ops: executed exactly as the VCU decomposes them ---------------

    def vsadd(self, a: EveVec, b: Operand) -> EveVec:
        total = self.vadd(a, b)
        t1 = self.vxor(a, total)
        t4 = self.vand(t1, self.vnot(self.vxor(a, b)))
        overflow = self.vmslt(t4, 0)
        saturated = self.vxor(self.vsra(a, 31), 2 ** 31 - 1)
        return self.vmerge(overflow, saturated, total)

    def vssub(self, a: EveVec, b: Operand) -> EveVec:
        diff = self.vsub(a, b)
        t1 = self.vxor(a, diff)
        t4 = self.vand(t1, self.vxor(a, b))
        overflow = self.vmslt(t4, 0)
        saturated = self.vxor(self.vsra(a, 31), 2 ** 31 - 1)
        return self.vmerge(overflow, saturated, diff)

    def vsaddu(self, a: EveVec, b: Operand) -> EveVec:
        total = self.vadd(a, b)
        overflow = self._binary("compare", total, a, cls=EveMask,
                                op="lt", signed=False)
        return self.vmerge(overflow, self.vmv(-1), total)

    def vssubu(self, a: EveVec, b: Operand) -> EveVec:
        diff = self.vsub(a, b)
        underflow = self._binary("compare", a, b, cls=EveMask,
                                 op="lt", signed=False)
        return self.vmerge(underflow, self.vmv(0), diff)

    def vmulh(self, a, b):
        raise SimulationError(
            "vmulh is a timing proxy only; the bit-exact oracle does not "
            "implement the high half (see DESIGN.md)")

    vmulhu = vmulh

    # -- division (spills one register to lend the micro-program scratch) --------------

    def _div_like(self, op: str, a: EveVec, b: Operand) -> EveVec:
        if op in ("div", "rem"):
            negative = (self._read(a) < 0).any()
            if isinstance(b, EveVec):
                negative = negative or (self._read(b) < 0).any()
            else:
                negative = negative or int(b) < 0
            if negative:
                raise SimulationError(
                    "signed division with negative operands is a timing "
                    "proxy only (see DESIGN.md)")
        self._pinned.clear()
        try:
            a_reg = self._pin_source(a)
            b_reg, _temp = self._pin_operand(b)
            vd = self._new_handle()
            self._pinned.add(vd.reg)
            scratch = self._alloc()  # the VCU's spilled register
            self._pinned.add(scratch)
            self._run("div", {"vs1": a_reg, "vs2": b_reg, "vd": vd.reg,
                              "vm": scratch}, op=op)
        finally:
            self._flush()
            self._pinned.clear()
        return vd

    def vdiv(self, a, b):
        return self._div_like("div", a, b)

    def vrem(self, a, b):
        return self._div_like("rem", a, b)

    def vdivu(self, a, b):
        return self._div_like("divu", a, b)

    def vremu(self, a, b):
        return self._div_like("remu", a, b)

    # -- shifts -------------------------------------------------------------------------

    def _shift(self, op: str, a: EveVec, b: Operand) -> EveVec:
        self._pinned.clear()
        try:
            a_reg = self._pin_source(a)
            if isinstance(b, EveVec):
                b_reg = self._pin_source(b)
                vd = self._new_handle()
                self._run("shift_variable",
                          {"vs1": a_reg, "vs2": b_reg, "vd": vd.reg}, op=op)
            else:
                vd = self._new_handle()
                amount = int(b) & 31
                self._run("shift_scalar", {"vs1": a_reg, "vd": vd.reg},
                          scalar=amount, op=op, amount=amount)
        finally:
            self._flush()
            self._pinned.clear()
        return vd

    def vsll(self, a, b):
        return self._shift("sll", a, b)

    def vsrl(self, a, b):
        return self._shift("srl", a, b)

    def vsra(self, a, b):
        return self._shift("sra", a, b)

    # -- compares, select ----------------------------------------------------------------

    def _compare(self, op: str, a: EveVec, b: Operand) -> EveMask:
        return self._binary("compare", a, b, cls=EveMask, op=op, signed=True)

    def vmseq(self, a, b):
        return self._compare("eq", a, b)

    def vmsne(self, a, b):
        return self._compare("ne", a, b)

    def vmslt(self, a, b):
        return self._compare("lt", a, b)

    def vmsle(self, a, b):
        return self._compare("le", a, b)

    def vmsgt(self, a, b):
        return self._compare("gt", a, b)

    def vmsge(self, a, b):
        return self._compare("ge", a, b)

    def vmerge(self, mask: EveMask, a: EveVec, b: Operand) -> EveVec:
        self._pinned.clear()
        try:
            a_reg = self._pin_source(a)
            b_reg, _temp = self._pin_operand(b)
            m_reg = self._pin_source(mask)
            vd = self._new_handle()
            self._run("merge", {"vs1": a_reg, "vs2": b_reg, "vd": vd.reg,
                                "vm": m_reg})
        finally:
            self._flush()
            self._pinned.clear()
        return vd

    # -- moves -------------------------------------------------------------------------

    def vmv(self, value: Operand) -> EveVec:
        self._pinned.clear()
        try:
            if isinstance(value, EveVec):
                src = self._pin_source(value)
                vd = self._new_handle()
                self._run("move", {"vs1": src, "vd": vd.reg})
            else:
                vd = self._new_handle()
                self._run("splat", {"vd": vd.reg}, scalar=int(value))
        finally:
            self._flush()
            self._pinned.clear()
        return vd

    def viota(self, start: int = 0, step: int = 1) -> EveVec:
        # Index generation is a VRU/DTU service (like a load of a ramp).
        return self._write_new(
            wrap32(np.arange(self.vl, dtype=np.int64) * step + start))

    # -- reductions / cross-element (the VRU, functionally) --------------------------------

    def _reduce(self, fold, init: int, a: EveVec, mask=None) -> int:
        values = self._read(a).astype(np.int64)
        if mask is not None:
            values = values[self._read(mask) != 0]
        return int(wrap32(np.array([fold(values, init)]))[0])

    def vredsum(self, a, init: int = 0, mask=None) -> int:
        return self._reduce(lambda v, i: v.sum() + i, init, a, mask)

    def vredmax(self, a, init: int = -(2 ** 31)) -> int:
        return self._reduce(lambda v, i: max(v.max(initial=i), i), init, a)

    def vredmin(self, a, init: int = 2 ** 31 - 1) -> int:
        return self._reduce(lambda v, i: min(v.min(initial=i), i), init, a)

    def vrgather(self, a: EveVec, index: EveVec) -> EveVec:
        values = self._read(a)
        idx = self._read(index)
        in_range = (idx >= 0) & (idx < self.vl)
        return self._write_new(
            np.where(in_range, values[np.clip(idx, 0, self.vl - 1)], 0))

    def vslidedown(self, a: EveVec, offset: int) -> EveVec:
        values = self._read(a)
        result = np.zeros(self.vl, dtype=np.int64)
        if offset < self.vl:
            result[: self.vl - offset] = values[offset:]
        return self._write_new(result)

    def vslideup(self, a: EveVec, offset: int, old=None) -> EveVec:
        values = self._read(a)
        result = (self._read(old).astype(np.int64).copy() if old is not None
                  else np.zeros(self.vl, dtype=np.int64))
        if offset < self.vl:
            result[offset:] = values[: self.vl - offset]
        return self._write_new(result)

    def vmv_x_s(self, a: EveVec) -> int:
        return int(self._read(a)[0])

    def vmv_s_x(self, value: int) -> EveVec:
        result = np.zeros(self.vl, dtype=np.int64)
        result[0] = int(wrap32(np.array([int(value)]))[0])
        return self._write_new(result)
