"""Tests of the cached structural skeleton (:mod:`repro.attacks.structure`).

The cached path must reproduce the legacy from-scratch :class:`MDPBuilder`
construction exactly in topology and to float precision in probabilities, for
interior and boundary protocol parameters alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    SupportSignature,
    build_model_structure,
    build_selfish_forks_mdp,
    clear_structure_cache,
    get_model_structure,
    structure_cache_stats,
)
from repro.config import AttackParams, ProtocolParams
from repro.exceptions import ModelError


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


PROTOCOL_POINTS = [
    ProtocolParams(p=0.3, gamma=0.5),  # interior
    ProtocolParams(p=0.0, gamma=0.5),  # no adversarial mining
    ProtocolParams(p=1.0, gamma=0.5),  # no honest mining
    ProtocolParams(p=0.3, gamma=0.0),  # races always lost
    ProtocolParams(p=0.3, gamma=1.0),  # races always won
]


class TestRefillMatchesFromScratch:
    @pytest.mark.parametrize("protocol", PROTOCOL_POINTS, ids=lambda pr: f"p{pr.p}g{pr.gamma}")
    @pytest.mark.parametrize(
        "attack",
        [AttackParams(1, 1, 4), AttackParams(2, 1, 4), AttackParams(2, 2, 3)],
        ids=lambda a: f"d{a.depth}f{a.forks}l{a.max_fork_length}",
    )
    def test_cached_refill_equals_legacy_builder(self, protocol, attack):
        legacy = build_selfish_forks_mdp(protocol, attack, use_structure_cache=False).mdp
        cached = build_selfish_forks_mdp(protocol, attack, use_structure_cache=True).mdp
        assert cached.num_states == legacy.num_states
        assert cached.initial_state == legacy.initial_state
        assert cached.state_labels == legacy.state_labels
        assert cached.row_actions == legacy.row_actions
        assert np.array_equal(cached.row_state, legacy.row_state)
        assert np.array_equal(cached.state_row_offsets, legacy.state_row_offsets)
        assert np.array_equal(cached.row_trans_offsets, legacy.row_trans_offsets)
        assert np.array_equal(cached.trans_succ, legacy.trans_succ)
        assert np.array_equal(cached.trans_reward, legacy.trans_reward)
        np.testing.assert_allclose(cached.trans_prob, legacy.trans_prob, rtol=1e-13, atol=0.0)

    def test_probabilities_are_normalised(self):
        mdp = build_selfish_forks_mdp(ProtocolParams(p=0.3, gamma=0.5), AttackParams(2, 1, 4)).mdp
        sums = np.add.reduceat(mdp.trans_prob, mdp.row_trans_offsets[:-1])
        np.testing.assert_allclose(sums, 1.0, rtol=0.0, atol=1e-12)


class TestSupportSignature:
    def test_interior_point_signature(self):
        signature = SupportSignature.of(ProtocolParams(p=0.3, gamma=0.5))
        assert signature == SupportSignature(True, True, True, True)

    def test_boundary_signatures_differ(self):
        interior = SupportSignature.of(ProtocolParams(p=0.3, gamma=0.5))
        assert SupportSignature.of(ProtocolParams(p=0.0, gamma=0.5)) != interior
        assert SupportSignature.of(ProtocolParams(p=0.3, gamma=1.0)) != interior

    def test_instantiate_rejects_wrong_signature(self):
        attack = AttackParams(1, 1, 4)
        structure = build_model_structure(
            attack, SupportSignature.of(ProtocolParams(p=0.3, gamma=0.5))
        )
        with pytest.raises(ModelError):
            structure.instantiate(ProtocolParams(p=0.0, gamma=0.5))


class TestCacheBehaviour:
    def test_structure_is_shared_within_signature(self):
        attack = AttackParams(2, 1, 4)
        first = get_model_structure(attack, ProtocolParams(p=0.1, gamma=0.25))
        second = get_model_structure(attack, ProtocolParams(p=0.45, gamma=0.9))
        assert first is second

    def test_distinct_signature_builds_new_structure(self):
        attack = AttackParams(2, 1, 4)
        interior = get_model_structure(attack, ProtocolParams(p=0.1, gamma=0.5))
        boundary = get_model_structure(attack, ProtocolParams(p=0.0, gamma=0.5))
        assert interior is not boundary
        assert boundary.num_states < interior.num_states

    def test_clear_and_stats(self):
        attack = AttackParams(1, 1, 4)
        get_model_structure(attack, ProtocolParams(p=0.3, gamma=0.5))
        stats = structure_cache_stats()
        assert stats["entries"] == 1 and stats["states"] > 0
        clear_structure_cache()
        assert structure_cache_stats()["entries"] == 0

    def test_repeated_instantiations_are_independent(self):
        """Refilled MDPs must not share mutable probability arrays."""
        attack = AttackParams(1, 1, 4)
        first = build_selfish_forks_mdp(ProtocolParams(p=0.2, gamma=0.5), attack).mdp
        before = first.trans_prob.copy()
        build_selfish_forks_mdp(ProtocolParams(p=0.4, gamma=0.5), attack)
        assert np.array_equal(first.trans_prob, before)
