"""Tests for trace events: MemAccess patterns, VectorInstr, ScalarBlock."""

import pickle

import numpy as np
import pytest

from repro.errors import IsaError
from repro.isa import MemAccess, ScalarBlock, VectorInstr
from repro.isa.opcodes import Category, OPCODES, opinfo


class TestMemAccess:
    def test_unit_stride_element_addresses(self):
        acc = MemAccess(base=0x1000, stride=4, count=4)
        assert list(acc.element_addresses()) == [0x1000, 0x1004, 0x1008, 0x100C]

    def test_unit_stride_single_line(self):
        acc = MemAccess(base=0x1000, stride=4, count=16)
        assert list(acc.line_addresses()) == [0x1000]

    def test_unit_stride_line_count(self):
        acc = MemAccess(base=0x1000, stride=4, count=64)
        assert len(acc.line_addresses()) == 4

    def test_unaligned_base_spans_extra_line(self):
        acc = MemAccess(base=0x1000 + 60, stride=4, count=16)
        assert len(acc.line_addresses()) == 2

    def test_large_stride_one_line_per_element(self):
        """The backprop pathology: 64-byte stride isolates every element."""
        acc = MemAccess(base=0x1000, stride=64, count=32)
        assert len(acc.line_addresses()) == 32

    def test_line_addresses_first_touch_order(self):
        addrs = np.array([0x2000, 0x1000, 0x2004], dtype=np.int64)
        acc = MemAccess(addresses=addrs, count=3)
        assert list(acc.line_addresses()) == [0x2000, 0x1000]

    def test_explicit_addresses(self):
        acc = MemAccess(addresses=np.array([0x40, 0x80]), count=2)
        assert acc.num_accesses == 2
        assert acc.total_bytes() == 8

    def test_zero_stride_multi_count_rejected(self):
        with pytest.raises(IsaError):
            MemAccess(base=0, stride=0, count=2)

    def test_total_bytes(self):
        assert MemAccess(base=0, stride=4, count=10).total_bytes() == 40


class TestVectorInstr:
    def test_memory_instr_requires_pattern(self):
        with pytest.raises(IsaError):
            VectorInstr(op="vle32", vl=8, vd=1)

    def test_unknown_opcode(self):
        with pytest.raises(IsaError):
            VectorInstr(op="vfmadd", vl=8)

    def test_negative_vl(self):
        with pytest.raises(IsaError):
            VectorInstr(op="vadd", vl=-1)

    def test_sources_include_index_register(self):
        instr = VectorInstr(op="vluxei32", vl=4, vd=3, vidx=7,
                            mem=MemAccess(addresses=np.zeros(4, dtype=np.int64),
                                          count=4))
        assert 7 in instr.sources

    def test_store_reads_its_data_register(self):
        instr = VectorInstr(op="vse32", vl=4, vd=5,
                            mem=MemAccess(base=0, stride=4, count=4,
                                          is_store=True))
        assert 5 in instr.sources
        assert instr.dest == -1

    def test_load_dest(self):
        instr = VectorInstr(op="vle32", vl=4, vd=5,
                            mem=MemAccess(base=0, stride=4, count=4))
        assert instr.dest == 5

    def test_scalar_writer_has_no_vector_dest(self):
        instr = VectorInstr(op="vmv.x.s", vl=1, vs1=2)
        assert instr.dest == -1

    def test_category(self):
        assert VectorInstr(op="vadd", vl=4, vd=1, vs1=2, vs2=3).category \
            is Category.IALU


class TestScalarBlock:
    def test_mem_count(self):
        block = ScalarBlock(n_instr=10, accesses=(
            MemAccess(base=0, stride=4, count=5),
            MemAccess(base=0x100, stride=4, count=3, is_store=True),
        ))
        assert block.n_mem == 8

    def test_negative_size_rejected(self):
        with pytest.raises(IsaError):
            ScalarBlock(n_instr=-1)


class TestPickling:
    def test_events_round_trip_by_field_values(self):
        gather = MemAccess(addresses=np.array([8, 0, 64], dtype=np.int64))
        events = [
            VectorInstr(op="vle32", vl=16, vd=1,
                        mem=MemAccess(base=0x1000, stride=4, count=16)),
            VectorInstr(op="vluxei32", vl=3, vd=2, vidx=3, masked=True,
                        mem=gather),
            ScalarBlock(n_instr=7, accesses=(
                MemAccess(base=0x200, stride=4, count=2, is_store=True),)),
        ]
        loaded = pickle.loads(pickle.dumps(events))
        assert [type(e) for e in loaded] == [type(e) for e in events]
        assert loaded[0] == events[0]
        assert loaded[2] == events[2]
        assert loaded[1].vidx == 3 and loaded[1].masked
        assert np.array_equal(loaded[1].mem.addresses, gather.addresses)

    def test_reduction_rebuilds_from_field_values(self):
        instr = VectorInstr(op="vadd", vl=8, vd=1, vs1=2, vs2=3)
        cls, values = instr.__reduce__()
        assert cls is VectorInstr and cls(*values) == instr


class TestOpcodeTable:
    def test_every_opcode_has_category_and_macro(self):
        for name, info in OPCODES.items():
            assert info.name == name
            assert info.macro
            assert isinstance(info.category, Category)

    def test_memory_flags_consistent(self):
        for info in OPCODES.values():
            if info.is_load or info.is_store:
                assert info.category.is_memory
            if info.category.is_memory:
                assert info.is_load != info.is_store  # exactly one

    def test_reductions_are_cross_element(self):
        for info in OPCODES.values():
            if info.is_reduction:
                assert info.category is Category.XELEM

    def test_opinfo_unknown(self):
        with pytest.raises(IsaError):
            opinfo("vnope")

    def test_table4_categories_all_present(self):
        """Every Table IV mix column has at least one opcode behind it."""
        present = {info.category for info in OPCODES.values()}
        assert present == set(Category)
