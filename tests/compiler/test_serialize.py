"""Tests for artifact serialisation (schedule + register files)."""

import json

import pytest

from repro.compiler.codegen import generate_registers
from repro.compiler.serialize import (
    ArtifactError,
    load_artifact,
    registers_from_dict,
    registers_to_dict,
    save_artifact,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.combined import combined_schedule
from repro.core.paths import route_requests
from repro.patterns.classic import nearest_neighbour_2d, ring_pattern
from repro.topology.torus import TieBreak, Torus2D


@pytest.fixture()
def compiled(torus8):
    requests = nearest_neighbour_2d(8, 8, size=16)
    connections = route_requests(torus8, requests)
    schedule = combined_schedule(connections, torus8)
    return requests, connections, schedule


class TestScheduleRoundTrip:
    def test_roundtrip_preserves_slots(self, torus8, compiled):
        _, connections, schedule = compiled
        data = schedule_to_dict(schedule)
        loaded, loaded_conns = schedule_from_dict(torus8, data)
        assert loaded.degree == schedule.degree
        assert [
            {c.pair for c in cfg} for cfg in loaded
        ] == [
            {c.pair for c in cfg} for cfg in schedule
        ]

    def test_sizes_survive(self, torus8, compiled):
        _, _, schedule = compiled
        loaded, conns = schedule_from_dict(torus8, schedule_to_dict(schedule))
        assert all(c.request.size == 16 for c in conns)

    def test_json_serialisable(self, compiled):
        _, _, schedule = compiled
        json.dumps(schedule_to_dict(schedule))

    def test_conflicting_file_rejected(self, torus8):
        data = {
            "version": 1,
            "scheduler": "evil",
            "degree": 1,
            # (0,1) and (0,2) share the injection fiber: illegal slot.
            "slots": [[{"src": 0, "dst": 1}, {"src": 0, "dst": 2}]],
        }
        with pytest.raises(ArtifactError, match="not conflict-free"):
            schedule_from_dict(torus8, data)

    def test_degree_lie_rejected(self, torus8):
        data = {
            "version": 1, "scheduler": "x", "degree": 5,
            "slots": [[{"src": 0, "dst": 1}]],
        }
        with pytest.raises(ArtifactError, match="declared degree"):
            schedule_from_dict(torus8, data)

    def test_version_checked(self, torus8):
        with pytest.raises(ArtifactError, match="version"):
            schedule_from_dict(torus8, {"version": 99, "slots": [], "degree": 0})


class TestRegisterRoundTrip:
    def test_roundtrip(self, torus8, compiled):
        _, _, schedule = compiled
        regs = generate_registers(torus8, schedule)
        loaded = registers_from_dict(torus8, registers_to_dict(regs))
        assert loaded.words == regs.words
        assert loaded.degree == regs.degree

    def test_topology_mismatch_rejected(self, torus8, compiled):
        _, _, schedule = compiled
        regs = generate_registers(torus8, schedule)
        other = Torus2D(8, tie_break=TieBreak.POSITIVE)
        with pytest.raises(ArtifactError, match="loader topology"):
            registers_from_dict(other, registers_to_dict(regs))


#: Corruptions of switch 0's first word on a 5-port torus switch.
MALFORMED_WORDS = {
    "truncated": lambda word: word[:-1],
    "port_out_of_range": lambda word: [5, *word[1:]],
    "output_used_twice": lambda word: [1, 1, *word[2:]],
}


class TestMalformedRegisterWords:
    @pytest.mark.parametrize("corruption", sorted(MALFORMED_WORDS))
    def test_rejected_on_load(self, torus8, compiled, corruption):
        _, _, schedule = compiled
        doc = registers_to_dict(generate_registers(torus8, schedule))
        doc["words"]["0"][0] = MALFORMED_WORDS[corruption](doc["words"]["0"][0])
        with pytest.raises(ArtifactError, match="register image"):
            registers_from_dict(torus8, doc)


class TestArtifactFiles:
    def test_save_load_audit(self, tmp_path, torus8, compiled):
        _, _, schedule = compiled
        path = tmp_path / "stencil.json"
        save_artifact(path, torus8, schedule, name="stencil")
        loaded_schedule, loaded_regs = load_artifact(path, torus8)
        assert loaded_schedule.degree == schedule.degree
        assert loaded_regs.degree == max(schedule.degree, 1)

    def test_tampered_register_detected(self, tmp_path, torus8):
        requests = ring_pattern(64, size=4)
        connections = route_requests(torus8, requests)
        schedule = combined_schedule(connections, torus8)
        path = tmp_path / "ring.json"
        save_artifact(path, torus8, schedule)
        doc = json.loads(path.read_text())
        # Cut one circuit: dark the PE input of switch 0 in slot 0.
        words = doc["registers"]["words"]["0"]
        assert words[0][0] != -1
        words[0][0] = -1
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="does not realise"):
            load_artifact(path, torus8)

    def test_wrong_topology_rejected(self, tmp_path, torus8, torus4):
        requests = ring_pattern(64, size=4)
        schedule = combined_schedule(route_requests(torus8, requests), torus8)
        path = tmp_path / "a.json"
        save_artifact(path, torus8, schedule)
        with pytest.raises(ArtifactError, match="loader topology"):
            load_artifact(path, torus4)


class TestCanonicalJson:
    def test_sorts_keys_and_compacts(self):
        from repro.compiler.serialize import canonical_dumps

        assert canonical_dumps({"b": 1, "a": [2, {"z": 3, "y": 4}]}) == (
            '{"a":[2,{"y":4,"z":3}],"b":1}'
        )

    def test_integral_floats_coerced(self):
        from repro.compiler.serialize import canonical_dumps

        assert canonical_dumps({"k": 3.0}) == canonical_dumps({"k": 3})
        assert canonical_dumps(2.5) == "2.5"

    def test_non_finite_rejected(self):
        from repro.compiler.serialize import canonical_dumps

        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ArtifactError, match="non-finite"):
                canonical_dumps({"k": bad})

    def test_non_string_keys_coerced(self):
        from repro.compiler.serialize import canonical_dumps

        assert canonical_dumps({1: "x"}) == canonical_dumps({"1": "x"})

    def test_unsupported_types_rejected(self):
        from repro.compiler.serialize import canonical_dumps

        with pytest.raises(ArtifactError, match="type"):
            canonical_dumps({"k": {1, 2}})


class TestArtifactDigest:
    def test_golden_digest_of_fixed_doc(self):
        # Pins the canonical encoding itself.  If this moves, every
        # payload_sha256 in every cache directory is invalidated --
        # intended only alongside a FORMAT_VERSION bump.
        from repro.compiler.serialize import artifact_digest

        doc = {"version": 1, "b": [1, 2.0], "a": {"nested": True, "s": "x"}}
        assert artifact_digest(doc) == (
            "c4ff8fc4b1e10321a0e0b9c36d790116e9f4e17b7c2032947825ac3223244b0d"
        )

    def test_key_order_invariant(self):
        from repro.compiler.serialize import artifact_digest

        assert artifact_digest({"a": 1, "b": 2}) == artifact_digest(
            {"b": 2, "a": 1}
        )

    def test_golden_digest_of_compiled_schedule(self, torus4):
        # End-to-end determinism: routing + coloring + serialisation
        # must be byte-stable across processes and platforms.
        from repro.compiler.serialize import artifact_digest
        from repro.core.coloring import coloring_schedule
        from repro.patterns.classic import transpose_pattern

        requests = transpose_pattern(4)
        schedule = coloring_schedule(route_requests(torus4, requests))
        assert artifact_digest(schedule_to_dict(schedule)) == (
            "68be61eab1b0072a09f70244df715e1899ae20519174ea6e0968686d4c88a82f"
        )
