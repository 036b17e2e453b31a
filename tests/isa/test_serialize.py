"""Program serialization round-trip tests."""

import pytest

from repro.isa.instructions import AtomicOp, InstrClass
from repro.isa.serialize import (
    FORMAT_VERSION,
    load_program,
    program_from_dict,
    program_to_dict,
    save_program,
)
from repro.workloads.litmus import atomic_counter
from repro.workloads.litmus_oracle import LITMUS_TESTS
from repro.workloads.synthetic import build_program


class TestRoundTrip:
    def test_litmus_round_trip(self, tmp_path):
        prog = LITMUS_TESTS["mp"].program(3)
        path = save_program(prog, tmp_path / "mp.json")
        clone = load_program(path)
        assert clone.name == prog.name
        assert clone.num_threads == prog.num_threads
        for a, b in zip(prog.traces, clone.traces):
            assert len(a) == len(b)
            for x, y in zip(a.instructions, b.instructions):
                assert x == y

    def test_synthetic_round_trip_preserves_every_field(self, tmp_path):
        prog = build_program("cq", 2, 800, seed=4)
        clone = load_program(save_program(prog, tmp_path / "cq.json"))
        for a, b in zip(prog.traces, clone.traces):
            for x, y in zip(a.instructions, b.instructions):
                assert (x.cls, x.pc, x.src_deps, x.addr, x.atomic_op) == (
                    y.cls,
                    y.pc,
                    y.src_deps,
                    y.addr,
                    y.atomic_op,
                )

    def test_initial_memory_round_trip(self, tmp_path):
        prog = atomic_counter(2, 3)
        prog.initial_memory[320] = 99
        clone = load_program(save_program(prog, tmp_path / "c.json"))
        assert clone.initial_memory == {320: 99}

    def test_loaded_program_simulates_identically(self, tmp_path):
        from repro.common.params import AtomicMode, SystemParams
        from repro.sim.multicore import simulate

        prog = build_program("fmm", 2, 600, seed=1)
        clone = load_program(save_program(prog, tmp_path / "p.json"))
        # Warmup metadata is dropped in serialization (non-plain types are
        # filtered), so compare against a warmup-free original.
        prog.metadata.pop("warmup", None)
        clone.metadata.pop("warmup", None)
        params = SystemParams.quick(atomic_mode=AtomicMode.EAGER)
        assert simulate(params, prog).cycles == simulate(params, clone).cycles


class TestFormat:
    def test_version_check(self):
        prog = LITMUS_TESTS["mp"].program()
        payload = program_to_dict(prog)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            program_from_dict(payload)

    def test_atomic_fields_encoded(self):
        prog = atomic_counter(1, 1)
        payload = program_to_dict(prog)
        record = payload["threads"][0]["instructions"][-1]
        assert record[0] == InstrClass.ATOMIC.value
        assert record[5] == AtomicOp.FAA.value

    def test_validation_on_load(self):
        prog = LITMUS_TESTS["mp"].program()
        payload = program_to_dict(prog)
        # Corrupt a dependency to point forward.
        payload["threads"][0]["instructions"][0][2] = [5]
        with pytest.raises(ValueError):
            program_from_dict(payload)
