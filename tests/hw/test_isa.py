"""Unit tests: ISA, assembler, program model, rewriting."""

import pytest

from repro.hw import Machine, MachineConfig
from repro.hw.events import Signal
from repro.hw.isa import (
    Assembler,
    BRANCH_OPS,
    Instruction,
    JUMP_OPS,
    Op,
    OP_NAMES,
    Program,
    ProgramError,
)
from repro.simos.thread import _fresh_context
from repro.validate.oracle import expected_signal_counts


def build_simple():
    asm = Assembler()
    asm.func("main")
    asm.li("r1", 5)
    asm.li("r2", 0)
    asm.label("loop")
    asm.addi("r2", "r2", 1)
    asm.blt("r2", "r1", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


class TestAssembler:
    def test_build_produces_program(self):
        prog = build_simple()
        assert isinstance(prog, Program)
        assert len(prog) == 5
        assert prog.entry == "main"

    def test_labels_bound_to_indices(self):
        prog = build_simple()
        assert prog.label_at("main") == 0
        assert prog.label_at("loop") == 2

    def test_unknown_label_raises(self):
        prog = build_simple()
        with pytest.raises(ProgramError):
            prog.label_at("nope")

    def test_function_table(self):
        prog = build_simple()
        fn = prog.functions["main"]
        assert fn.start == 0 and fn.end == 5
        assert 3 in fn
        assert prog.function_at(3).name == "main"
        assert prog.function_at(99) is None

    def test_duplicate_label_rejected(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(ProgramError):
            asm.label("x")

    def test_duplicate_function_rejected(self):
        asm = Assembler()
        asm.func("f")
        asm.ret()
        asm.endfunc()
        with pytest.raises(ProgramError):
            asm.func("f")

    def test_unclosed_function_rejected(self):
        asm = Assembler()
        asm.func("f")
        asm.ret()
        with pytest.raises(ProgramError):
            asm.build(entry="f")

    def test_endfunc_without_func_rejected(self):
        asm = Assembler()
        with pytest.raises(ProgramError):
            asm.endfunc()

    def test_undefined_branch_target_rejected(self):
        asm = Assembler()
        asm.func("main")
        asm.jmp("nowhere")
        asm.endfunc()
        with pytest.raises(ProgramError):
            asm.build()

    def test_missing_entry_rejected(self):
        asm = Assembler()
        asm.func("f")
        asm.halt()
        asm.endfunc()
        with pytest.raises(ProgramError):
            asm.build(entry="main")

    def test_register_parsing(self):
        asm = Assembler()
        asm.func("main")
        asm.li("r31", 1)
        asm.fli("f31", 1.0)
        asm.halt()
        asm.endfunc()
        prog = asm.build()
        assert prog.instructions[0].a == 31

    def test_bad_register_name_rejected(self):
        asm = Assembler()
        with pytest.raises(ProgramError):
            asm.li("x1", 0)
        with pytest.raises(ProgramError):
            asm.li("r32", 0)
        with pytest.raises(ProgramError):
            asm.fadd("r1", "f1", "f2")  # int reg where float expected

    def test_reserve_data_accumulates(self):
        asm = Assembler()
        a = asm.reserve_data(10)
        b = asm.reserve_data(5)
        assert (a, b) == (0, 10)
        asm.func("main")
        asm.halt()
        asm.endfunc()
        assert asm.build().data_size == 15

    def test_negative_reserve_rejected(self):
        asm = Assembler()
        with pytest.raises(ProgramError):
            asm.reserve_data(-1)

    def test_init_array_records_data(self):
        asm = Assembler()
        asm.reserve_data(2)
        base = asm.init_array([1.5, 2.5])
        asm.func("main")
        asm.halt()
        asm.endfunc()
        prog = asm.build(extra_data=1)
        assert prog.data_init == ((base, (1.5, 2.5)),)
        assert prog.initial_memory(0) == [0, 0, 1.5, 2.5, 0]

    def test_data_init_out_of_range_rejected(self):
        asm = Assembler()
        asm.init_word(7, 1)  # nothing reserved
        asm.func("main")
        asm.halt()
        asm.endfunc()
        with pytest.raises(ProgramError):
            asm.build()


def _summing_program(override=None):
    """Sums a three-word array, then loops that many times, so the
    executed instruction count depends on the memory image."""
    asm = Assembler()
    base = asm.init_array([3, 5, 7])
    if override is not None:
        asm.init_word(base + 1, override)
    asm.func("main")
    asm.li("r1", base)
    for k in range(3):
        asm.load("r2", "r1", k)
        asm.add("r3", "r3", "r2")
    asm.label("loop")
    asm.addi("r4", "r4", 1)
    asm.blt("r4", "r3", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


class TestDataSection:
    """``.data`` is a sequence of ``(base, values)`` runs applied in order."""

    def test_init_word_after_init_array_overrides_element(self):
        prog = _summing_program(override=11)
        assert prog.data_init == ((0, (3, 5, 7)), (1, (11,)))
        assert prog.initial_memory(2) == [3, 11, 7, 0, 0]

    def test_run_ending_past_data_section_rejected(self):
        prog = build_simple()
        parts = (prog.instructions, prog.labels, prog.functions)
        with pytest.raises(ProgramError, match=r"\[2, 5\)"):
            Program(*parts, data_size=4, data_init=[(2, (1, 2, 3))])
        with pytest.raises(ProgramError):
            Program(*parts, data_size=4, data_init=[(-1, (1,))])
        ok = Program(*parts, data_size=4, data_init=[(1, (1, 2, 3))])
        assert ok.initial_memory(0) == [0, 1, 2, 3]

    def test_insert_and_remove_carry_runs(self):
        prog = _summing_program(override=11)
        inserted, _ = prog.insert({0: [Instruction(Op.NOP)]})
        removed, _ = inserted.remove([0])
        for new in (inserted, removed):
            assert new.data_init == prog.data_init
            assert new.initial_memory(3) == prog.initial_memory(3)

    def test_loaders_build_equal_memory(self):
        for override, total in ((None, 15), (11, 21)):
            prog = _summing_program(override)
            want = prog.initial_memory(4)
            m = Machine(MachineConfig(engine="off"))
            m.load(prog, heap_words=4)
            assert m.cpu.memory == want
            assert _fresh_context(prog, 4, tid=1).memory == want
            m.run_to_completion()
            assert m.cpu.iregs[3] == total
            # the oracle executes its own image: the data-dependent loop
            # makes its instruction count a function of that image.
            oracle = expected_signal_counts(prog, heap_words=4)
            assert oracle[Signal.TOT_INS] == m.counts[Signal.TOT_INS]
            assert oracle[Signal.TOT_INS] == 8 + 2 * total


class TestInstruction:
    def test_target_field_for_jumps_and_branches(self):
        assert Instruction(Op.JMP, "x").target() == "x"
        assert Instruction(Op.BEQ, 1, 2, "y").target() == "y"
        assert Instruction(Op.ADD, 1, 2, 3).target() is None

    def test_with_target_replaces(self):
        ins = Instruction(Op.JMP, "x").with_target(7)
        assert ins.a == 7

    def test_with_target_on_non_control_raises(self):
        with pytest.raises(ProgramError):
            Instruction(Op.ADD, 1, 2, 3).with_target(0)

    def test_all_opcodes_named(self):
        for i in range(Op.N_OPS):
            assert OP_NAMES[i], f"opcode {i} unnamed"

    def test_branch_and_jump_sets_disjoint(self):
        assert not (BRANCH_OPS & JUMP_OPS)


class TestResolve:
    def test_resolve_replaces_labels_with_indices(self):
        prog = build_simple()
        code = prog.resolve()
        blt = code[3]
        assert blt[0] == Op.BLT and blt[3] == 2  # target -> index of "loop"

    def test_resolve_leaves_non_control_untouched(self):
        prog = build_simple()
        code = prog.resolve()
        assert code[0] == (Op.LI, 1, 0, 0, 5)


class TestInsert:
    def test_insert_shifts_labels_to_head(self):
        prog = build_simple()
        new, remap = prog.insert({2: [Instruction(Op.PROBE, 9)]})
        # label "loop" must now point AT the probe so branches execute it
        assert new.label_at("loop") == 2
        assert new.instructions[2].op == Op.PROBE
        assert len(new) == len(prog) + 1

    def test_insert_remaps_pcs_to_original_instruction(self):
        prog = build_simple()
        new, remap = prog.insert({2: [Instruction(Op.PROBE, 9)]})
        # a machine paused at original index 2 resumes at the original
        # instruction, not the probe
        assert new.instructions[remap(2)].op == Op.ADDI
        assert remap(0) == 0
        assert remap(4) == 5

    def test_insert_preserves_control_flow_semantics(self):
        prog = build_simple()
        new, _ = prog.insert({2: [Instruction(Op.NOP)]})
        code = new.resolve()
        blt = code[4]
        assert blt[3] == 2  # still branches to the (shifted) loop head

    def test_insert_at_function_start_extends_function(self):
        prog = build_simple()
        new, _ = prog.insert({0: [Instruction(Op.PROBE, 1)]})
        fn = new.functions["main"]
        assert fn.start == 0
        assert new.instructions[fn.start].op == Op.PROBE

    def test_insert_multiple_points(self):
        prog = build_simple()
        new, remap = prog.insert(
            {0: [Instruction(Op.NOP)], 4: [Instruction(Op.NOP)]}
        )
        assert len(new) == 7
        assert new.instructions[remap(4)].op == Op.HALT

    def test_insert_out_of_range_rejected(self):
        prog = build_simple()
        with pytest.raises(ProgramError):
            prog.insert({99: [Instruction(Op.NOP)]})

    def test_insert_at_end_appends(self):
        prog = build_simple()
        new, _ = prog.insert({len(prog): [Instruction(Op.NOP)]})
        assert len(new) == len(prog) + 1
        assert new.instructions[-1].op == Op.NOP

    def test_insert_preserves_data(self):
        asm = Assembler()
        base = asm.init_array([3.0])
        asm.func("main")
        asm.halt()
        asm.endfunc()
        prog = asm.build()
        new, _ = prog.insert({0: [Instruction(Op.NOP)]})
        assert new.data_init == prog.data_init
        assert new.data_size == prog.data_size
        assert base == 0


class TestDisassemble:
    def test_disassemble_lists_labels_and_mnemonics(self):
        prog = build_simple()
        text = prog.disassemble()
        assert "main:" in text
        assert "loop:" in text
        assert "BLT" in text
        assert "HALT" in text
