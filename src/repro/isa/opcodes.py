"""Opcode table for the 32-bit integer RVV subset EVE supports.

Each opcode carries the Table IV characterisation category it is counted
under (``ctrl``, ``ialu``, ``imul``, ``xe``, ``us``, ``st``, ``idx``) and the
macro-operation family the EVE ROM implements it with.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import IsaError


class Category(enum.Enum):
    """Instruction categories used by Table IV's characterisation columns."""

    CTRL = "ctrl"          # vector control (vsetvl, vmfence)
    IALU = "ialu"          # integer ALU (add/sub/logic/shift/compare/min/max)
    IMUL = "imul"          # integer multiply / divide / remainder
    XELEM = "xe"           # cross-element and reductions (vrgather, vred*)
    MEM_UNIT = "us"        # unit-stride memory
    MEM_STRIDE = "st"      # constant-stride memory
    MEM_INDEX = "idx"      # indexed (gather/scatter) memory

    @property
    def is_memory(self) -> bool:
        return self in (Category.MEM_UNIT, Category.MEM_STRIDE, Category.MEM_INDEX)

    @property
    def per_element(self) -> bool:
        """Memory categories issued as one request per element."""
        return self in (Category.MEM_STRIDE, Category.MEM_INDEX)


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one vector opcode."""

    name: str
    category: Category
    #: Macro-op family used to look up the micro-program in the EVE ROM.
    macro: str
    is_load: bool = False
    is_store: bool = False
    is_reduction: bool = False
    writes_scalar: bool = False


def _op(name: str, category: Category, macro: str, **kwargs: bool) -> tuple[str, OpInfo]:
    return name, OpInfo(name=name, category=category, macro=macro, **kwargs)


OPCODES: dict[str, OpInfo] = dict(
    [
        # --- control ---------------------------------------------------
        _op("vsetvl", Category.CTRL, "nop"),
        _op("vmfence", Category.CTRL, "nop"),
        # --- integer ALU -----------------------------------------------
        _op("vadd", Category.IALU, "add"),
        _op("vsub", Category.IALU, "add"),
        _op("vrsub", Category.IALU, "add"),
        _op("vand", Category.IALU, "logic"),
        _op("vor", Category.IALU, "logic"),
        _op("vxor", Category.IALU, "logic"),
        _op("vnot", Category.IALU, "logic"),
        _op("vsll", Category.IALU, "shift"),
        _op("vsrl", Category.IALU, "shift"),
        _op("vsra", Category.IALU, "shift"),
        _op("vmin", Category.IALU, "minmax"),
        _op("vmax", Category.IALU, "minmax"),
        _op("vminu", Category.IALU, "minmax"),
        _op("vmaxu", Category.IALU, "minmax"),
        _op("vmseq", Category.IALU, "compare"),
        _op("vmsne", Category.IALU, "compare"),
        _op("vmslt", Category.IALU, "compare"),
        _op("vmsle", Category.IALU, "compare"),
        _op("vmsgt", Category.IALU, "compare"),
        _op("vmsge", Category.IALU, "compare"),
        _op("vmerge", Category.IALU, "merge"),
        _op("vmv", Category.IALU, "move"),
        # Index ramp (RVV vid.v with an optional scale): result lane i is
        # vs1[i] + i*scalar.  Costed as one "add" macro so the historical
        # vmv+vadd modelling of viota keeps its cycle count.
        _op("vid", Category.IALU, "add"),
        # Fixed-point saturating ops (RVV vsadd family); the VCU decomposes
        # them into sequences of the base macro-operations.
        _op("vsadd", Category.IALU, "sadd"),
        _op("vssub", Category.IALU, "ssub"),
        _op("vsaddu", Category.IALU, "saddu"),
        _op("vssubu", Category.IALU, "ssubu"),
        # --- integer multiply / divide -----------------------------------
        _op("vmul", Category.IMUL, "mul"),
        _op("vmulh", Category.IMUL, "mul"),
        _op("vmulhu", Category.IMUL, "mul"),
        _op("vdiv", Category.IMUL, "div"),
        _op("vdivu", Category.IMUL, "div"),
        _op("vrem", Category.IMUL, "div"),
        _op("vremu", Category.IMUL, "div"),
        # --- cross-element / reductions ----------------------------------
        _op("vredsum", Category.XELEM, "reduce", is_reduction=True),
        _op("vredmax", Category.XELEM, "reduce", is_reduction=True),
        _op("vredmin", Category.XELEM, "reduce", is_reduction=True),
        _op("vredand", Category.XELEM, "reduce", is_reduction=True),
        _op("vredor", Category.XELEM, "reduce", is_reduction=True),
        _op("vredxor", Category.XELEM, "reduce", is_reduction=True),
        _op("vrgather", Category.XELEM, "gather_elem"),
        _op("vslideup", Category.XELEM, "slide"),
        _op("vslidedown", Category.XELEM, "slide"),
        _op("vmv.x.s", Category.XELEM, "move", writes_scalar=True),
        _op("vmv.s.x", Category.XELEM, "move"),
        # --- memory -------------------------------------------------------
        _op("vle32", Category.MEM_UNIT, "load", is_load=True),
        _op("vse32", Category.MEM_UNIT, "store", is_store=True),
        _op("vlse32", Category.MEM_STRIDE, "load", is_load=True),
        _op("vsse32", Category.MEM_STRIDE, "store", is_store=True),
        _op("vluxei32", Category.MEM_INDEX, "load", is_load=True),
        _op("vsuxei32", Category.MEM_INDEX, "store", is_store=True),
    ]
)


def opinfo(name: str) -> OpInfo:
    """Look up an opcode, raising :class:`IsaError` for unknown names."""
    try:
        return OPCODES[name]
    except KeyError:
        raise IsaError(f"unknown vector opcode {name!r}") from None
