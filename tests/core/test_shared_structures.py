"""Tests of the structure payload (:mod:`repro.core.shared_structures`).

Four contracts are exercised: the buffer round trip reproduces the in-process
structure bit for bit, the packed payload decodes zero-copy into identical
skeletons, every malformed payload -- it arrives from another process -- is
refused with a clean :class:`~repro.exceptions.ModelError`, and pool
workers install the payload without ever exploring.
"""

from __future__ import annotations

import json
import multiprocessing
import struct
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig
from repro.attacks import (
    clear_structure_cache,
    get_model_structure,
    structure_cache_stats,
)
from repro.attacks.structure import SelfishForksStructure
from repro.core.engine import execute_sweep
from repro.core.shared_structures import (
    HEADER_BYTES,
    STRUCTURES_VERSION,
    install_structure_payload,
    pack_structures,
    unpack_structures,
)
from repro.exceptions import ModelError

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)
ATTACK = AttackParams(depth=2, forks=1, max_fork_length=4)

_HEADER = struct.Struct("<8Q")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


def assert_structures_identical(left: SelfishForksStructure, right: SelfishForksStructure):
    assert left.attack == right.attack
    assert left.signature == right.signature
    assert left.initial_state == right.initial_state
    assert left.state_labels == right.state_labels
    assert left.row_actions == right.row_actions
    for key in (
        "row_state",
        "state_row_offsets",
        "row_trans_offsets",
        "trans_succ",
        "trans_kind",
        "trans_sigma",
        "trans_mult",
        "trans_reward",
    ):
        left_array, right_array = getattr(left, key), getattr(right, key)
        assert left_array.dtype == right_array.dtype, key
        assert np.array_equal(left_array, right_array), key


class TestBufferRoundTrip:
    def test_from_buffers_is_bit_for_bit(self):
        structure = get_model_structure(ATTACK, PROTOCOL)
        rebuilt = SelfishForksStructure.from_buffers(structure.to_buffers())
        assert_structures_identical(structure, rebuilt)

    def test_round_trip_instantiates_identically(self):
        structure = get_model_structure(ATTACK, PROTOCOL)
        rebuilt = SelfishForksStructure.from_buffers(structure.to_buffers())
        for protocol in (PROTOCOL, ProtocolParams(p=0.45, gamma=0.9)):
            original = structure.instantiate(protocol)
            copy = rebuilt.instantiate(protocol)
            assert np.array_equal(original.trans_prob, copy.trans_prob)
            assert original.state_labels == copy.state_labels
            assert original.row_actions == copy.row_actions

    def test_boundary_support_round_trips(self):
        boundary = ProtocolParams(p=0.0, gamma=0.5)
        structure = get_model_structure(ATTACK, boundary)
        rebuilt = SelfishForksStructure.from_buffers(structure.to_buffers())
        assert_structures_identical(structure, rebuilt)


# ------------------------------------------------------------------- payload


def _payload() -> bytes:
    return pack_structures(
        [
            get_model_structure(AttackParams(1, 1, 4), PROTOCOL),
            get_model_structure(ATTACK, PROTOCOL),
        ]
    )


def _with_word(payload: bytes, index: int, value: int) -> bytes:
    """``payload`` with header word ``index`` replaced by ``value``."""
    words = list(_HEADER.unpack_from(payload))
    words[index] = value
    return _HEADER.pack(*words) + payload[HEADER_BYTES:]


def _rebuilt(payload: bytes, *, directory=None, data_cut: int = 0) -> bytes:
    """Re-assemble ``payload`` with a new directory and/or a shortened array
    region, keeping the header's sizes consistent so only the body is bad."""

    def align(offset: int) -> int:
        return (offset + 63) // 64 * 64

    words = list(_HEADER.unpack_from(payload))
    old_directory = payload[HEADER_BYTES : HEADER_BYTES + words[4]]
    data = payload[align(HEADER_BYTES + words[4]) :]
    if data_cut:
        data = data[:-data_cut]
    directory_bytes = (
        old_directory if directory is None else json.dumps(directory).encode("ascii")
    )
    data_start = align(HEADER_BYTES + len(directory_bytes))
    padding = bytes(data_start - HEADER_BYTES - len(directory_bytes))
    body = directory_bytes + padding + data
    words[3], words[4] = len(body), len(directory_bytes)
    return _HEADER.pack(*words) + body


def _directory(payload: bytes) -> list:
    size = _HEADER.unpack_from(payload)[4]
    return json.loads(payload[HEADER_BYTES : HEADER_BYTES + size])


def assert_refused(payload, match: str) -> None:
    """``payload`` raises a clean ModelError (never a raw decoding error)."""
    with pytest.raises(ModelError, match=match) as excinfo:
        unpack_structures(payload)
    assert not isinstance(excinfo.value, (IndexError, ValueError, TypeError))


class TestPayload:
    def test_round_trip_is_bit_for_bit_and_zero_copy(self):
        structures = [
            get_model_structure(AttackParams(1, 1, 4), PROTOCOL),
            get_model_structure(ATTACK, PROTOCOL),
        ]
        restored = unpack_structures(pack_structures(structures))
        assert len(restored) == 2
        for original, copy in zip(structures, restored):
            assert_structures_identical(original, copy)
            # The numeric arrays are read-only views into the payload bytes.
            assert not copy.trans_succ.flags.writeable
            assert not copy.trans_reward.flags.owndata

    def test_header_round_trip(self):
        payload = _payload()
        words = _HEADER.unpack_from(payload)
        assert words[2] == STRUCTURES_VERSION
        assert words[3] == len(payload) - HEADER_BYTES
        assert words[5:] == (0, 0, 0)

    def test_pack_empty_rejected(self):
        with pytest.raises(ModelError):
            pack_structures([])

    def test_short_buffer_refused(self):
        assert_refused(b"\x00" * 8, "too small")

    def test_foreign_magic_refused(self):
        assert_refused(bytes(HEADER_BYTES), "not a repro payload")

    def test_kind_magic_mismatch_refused(self):
        assert_refused(_with_word(_payload(), 1, 0x99), "kind magic mismatch")

    def test_version_mismatch_refused(self):
        assert_refused(
            _with_word(_payload(), 2, STRUCTURES_VERSION - 1),
            f"layout version {STRUCTURES_VERSION - 1}",
        )

    def test_body_overrun_refused(self):
        payload = _payload()
        assert_refused(_with_word(payload, 3, len(payload)), "bytes follow the header")
        assert_refused(payload[:-100], "bytes follow the header")

    def test_directory_overrun_refused(self):
        payload = _payload()
        assert_refused(_with_word(payload, 4, len(payload)), "overruns")

    def test_truncated_array_region_refused(self):
        assert_refused(_rebuilt(_payload(), data_cut=100), "malformed structure payload")

    def test_unknown_scenario_refused(self):
        payload = _payload()
        directory = _directory(payload)
        for entry in directory:
            entry[1] = "no-such-scenario@1"
        assert_refused(_rebuilt(payload, directory=directory), "no-such-scenario")

    def test_scenario_version_mismatch_refused(self):
        payload = _payload()
        directory = _directory(payload)
        for entry in directory:
            entry[1] = "selfish-forks@99"
        assert_refused(_rebuilt(payload, directory=directory), "version mismatch")

    def test_duplicate_buffer_entry_refused(self):
        payload = _payload()
        directory = _directory(payload)
        directory.append(list(directory[0]))
        assert_refused(_rebuilt(payload, directory=directory), "appears twice")

    def test_structure_naming_two_scenarios_refused(self):
        payload = _payload()
        directory = _directory(payload)
        directory[1][1] = "sm-actions@1"
        assert_refused(_rebuilt(payload, directory=directory), "names two scenarios")

    @pytest.mark.parametrize(
        "directory",
        [
            "not a list",
            [[0, "selfish-forks@1", "header"]],
            [[0, "selfish-forks@1", "header", "|O", [1], 0]],
            [[0, "selfish-forks@1", "header", "<i8", [-1], 0]],
            [[0, "selfish-forks@1", "header", "<i8", [8], -64]],
            [[0, "selfish-forks@1", "header", "<i8", [8], 0]],
        ],
        ids=[
            "not-a-list",
            "short-entry",
            "object-dtype",
            "negative-shape",
            "negative-offset",
            "missing-keys",
        ],
    )
    def test_malformed_directory_refused(self, directory):
        assert_refused(_rebuilt(_payload(), directory=directory), "malformed structure payload")

    def test_garbage_directory_bytes_refused(self):
        payload = _payload()
        size = _HEADER.unpack_from(payload)[4]
        garbled = payload[:HEADER_BYTES] + b"\xff" * size + payload[HEADER_BYTES + size :]
        assert_refused(garbled, "malformed structure payload")

    def test_non_bytes_refused(self):
        assert_refused(None, "malformed structure payload")


class TestInstallPayload:
    def test_install_replaces_cache_without_building(self):
        payload = _payload()  # explores two skeletons in this process
        get_model_structure(AttackParams(3, 1, 4), PROTOCOL)
        assert structure_cache_stats()["builds"] == 3
        assert install_structure_payload(payload) == 2
        stats = structure_cache_stats()
        assert (stats["builds"], stats["attaches"], stats["entries"]) == (0, 2, 2)
        get_model_structure(ATTACK, PROTOCOL)
        assert structure_cache_stats()["builds"] == 0

    def test_malformed_payload_leaves_cache_untouched(self):
        stale = _with_word(_payload(), 2, 0)
        before = structure_cache_stats()
        with pytest.raises(ModelError):
            install_structure_payload(stale)
        assert structure_cache_stats() == before


# ------------------------------------------------------------- pool workers


def report_attack_array_flags():
    """Worker-side probe: (owndata, writeable) of the cached attack structure.

    Must stay at module top level so the pool can pickle it by reference.
    """
    structure = get_model_structure(ATTACK, PROTOCOL)
    return (structure.trans_succ.flags.owndata, structure.trans_succ.flags.writeable)


def sweep_grid(**kwargs) -> SweepConfig:
    return SweepConfig(
        p_values=(0.1, 0.3),
        gammas=(0.5,),
        attack_configs=(AttackParams(1, 1, 4), ATTACK),
        analysis=AnalysisConfig(epsilon=1e-2),
        **kwargs,
    )


class TestEngineIntegration:
    def test_spawn_sweep_matches_serial(self, monkeypatch):
        serial = execute_sweep(sweep_grid(workers=1))
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "spawn")
        spawned = execute_sweep(sweep_grid(workers=4))
        assert not spawned.failures
        assert [(p.p, p.gamma, p.series, p.errev) for p in spawned.points] == [
            (p.p, p.gamma, p.series, p.errev) for p in serial.points
        ]

    def test_spawn_workers_install_without_building(self):
        """Acceptance: spawn workers at >= 4 parallelism perform zero builds.

        The pool uses the engine's own initializer and payload, then asks
        every worker for its ``structure_cache_stats()``: the parent built the
        skeletons once, the workers only installed them.
        """
        config = sweep_grid(workers=4)
        structures = [
            get_model_structure(attack, PROTOCOL) for attack in config.attack_configs
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=4,
            mp_context=context,
            initializer=install_structure_payload,
            initargs=(pack_structures(structures),),
        ) as pool:
            stats = [
                future.result()
                for future in [pool.submit(structure_cache_stats) for _ in range(8)]
            ]
        assert stats
        for worker_stats in stats:
            assert worker_stats["builds"] == 0
            assert worker_stats["attaches"] == len(structures)
            assert worker_stats["entries"] == len(structures)

    def test_fork_workers_use_the_payload_not_inherited_copies(self):
        """Fork workers must decode the payload, not reuse inherited copies.

        A fork-started worker inherits the parent's cache and build counters;
        the initializer must replace both, so the cached structure's arrays
        are read-only views of the payload (``owndata=False``) instead of the
        inherited private arrays.
        """
        config = sweep_grid(workers=2)
        structures = [
            get_model_structure(attack, PROTOCOL) for attack in config.attack_configs
        ]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=2,
            mp_context=context,
            initializer=install_structure_payload,
            initargs=(pack_structures(structures),),
        ) as pool:
            flags = [pool.submit(report_attack_array_flags).result() for _ in range(4)]
            stats = pool.submit(structure_cache_stats).result()
        # In the parent the same structure owns writable arrays.
        assert report_attack_array_flags() == (True, True)
        assert all(worker_flags == (False, False) for worker_flags in flags)
        assert stats["builds"] == 0

    def test_invalid_start_method_override_raises(self, monkeypatch):
        """A typo in REPRO_TEST_START_METHOD must fail loudly, not run fork."""
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "spwan")
        with pytest.raises(ValueError, match="REPRO_TEST_START_METHOD"):
            execute_sweep(sweep_grid(workers=2))
