"""End-to-end checks of the paper's qualitative experimental claims (Section 4).

These tests regenerate Figure 2 -- single points and the whole default sweep
grid -- and assert the *shape* results the paper reports: who wins, how the
curves move with p, gamma, d and f, and where the d = f = 1 attack starts to
pay off.  :class:`TestSmActionsAnchor` pins the classic ADOPT/OVERRIDE/WAIT/
MATCH model (Sapirshtein, Sompolinsky & Zohar, FC 2016) as the external
anchor of the solver stack.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.config import AnalysisConfig, AttackParams, ProtocolParams
from repro.analysis import formal_analysis
from repro.attacks import (
    build_selfish_forks_mdp,
    build_sm_actions_mdp,
    eyal_sirer_relative_revenue,
    honest_errev,
    single_tree_errev,
)
from repro.attacks.single_tree import SingleTreeParams
from repro.core.sweep import SweepConfig, run_sweep

EPSILON = 1e-3


def attack_errev(p: float, gamma: float, depth: int, forks: int, max_fork_length: int = 4) -> float:
    model = build_selfish_forks_mdp(
        ProtocolParams(p=p, gamma=gamma),
        AttackParams(depth=depth, forks=forks, max_fork_length=max_fork_length),
    )
    result = formal_analysis(model.mdp, AnalysisConfig(epsilon=EPSILON))
    return result.strategy_errev


class TestFigure2Claims:
    def test_attack_dominates_honest_mining(self):
        # "Our selfish mining attack consistently achieves higher ERRev than both
        # baselines" -- at the paper's headline point p = 0.3.
        value = attack_errev(0.3, 0.5, depth=2, forks=1)
        assert value > honest_errev(ProtocolParams(p=0.3, gamma=0.5))

    def test_attack_dominates_single_tree_already_at_d2_f1(self):
        # "Already for d = 2 and f = 1 ... our attack achieves higher ERRev than
        # both baselines."
        protocol = ProtocolParams(p=0.3, gamma=0.5)
        ours = attack_errev(0.3, 0.5, depth=2, forks=1)
        baseline = single_tree_errev(protocol, SingleTreeParams(max_depth=4, max_width=5))
        assert ours > baseline

    def test_errev_increases_with_forking_number(self):
        d2f1 = attack_errev(0.3, 0.5, depth=2, forks=1)
        d2f2 = attack_errev(0.3, 0.5, depth=2, forks=2)
        assert d2f2 > d2f1

    def test_errev_increases_with_attack_depth(self):
        d1 = attack_errev(0.3, 0.5, depth=1, forks=1)
        d2 = attack_errev(0.3, 0.5, depth=2, forks=1)
        assert d2 > d1

    def test_errev_increases_with_adversarial_resource(self):
        values = [attack_errev(p, 0.5, depth=2, forks=1) for p in (0.1, 0.2, 0.3)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_errev_increases_with_gamma(self):
        # "Larger gamma values correspond to larger ERRev in our strategies."
        values = [attack_errev(0.3, gamma, depth=2, forks=1) for gamma in (0.0, 0.5, 1.0)]
        assert values == sorted(values)

    def test_zero_resource_adversary_earns_nothing(self):
        assert attack_errev(0.0, 0.5, depth=2, forks=1) == pytest.approx(0.0, abs=EPSILON)

    def test_attack_never_loses_to_honest_mining(self):
        # Honest mining is always available as a strategy, so the optimum cannot
        # be worse (up to the binary-search precision).
        for p in (0.1, 0.2, 0.3):
            assert attack_errev(p, 0.0, depth=2, forks=1) >= p - EPSILON


@pytest.fixture(scope="module")
def sweep():
    """The default Figure 2 grid, computed once for every grid-shape test."""
    sweep = run_sweep(SweepConfig())
    assert not sweep.failures, [
        f"{f.series} p={f.p} gamma={f.gamma}: {f.message}" for f in sweep.failures
    ]
    return sweep


class TestFigure2GridShape:
    """The same claims over every point of the default Figure 2 grid.

    ``SweepConfig()`` is p in {0, 0.05, ..., 0.3}, gamma in {0, 0.5, 1}, the
    (d, f) = (1, 1) and (2, 1) attacks plus the honest and single-tree series.
    """

    @staticmethod
    def attack_series(sweep):
        return [name for name in sweep.series_names() if name.startswith("ours")]

    @staticmethod
    def by_p(sweep, name, gamma):
        return {point.p: point.errev for point in sweep.series(name, gamma)}

    def test_grid_covers_every_series(self, sweep):
        assert sweep.gammas() == [0.0, 0.5, 1.0]
        assert sweep.series_names() == [
            "honest",
            "single-tree(f=5)",
            "ours(d=1,f=1)",
            "ours(d=2,f=1)",
        ]
        assert len(sweep.points) == 7 * 3 * 4

    def test_honest_baseline_is_diagonal(self, sweep):
        for point in sweep.series("honest"):
            assert point.errev == pytest.approx(point.p)

    def test_attack_dominates_honest_everywhere(self, sweep):
        for name in self.attack_series(sweep):
            for point in sweep.series(name):
                assert point.errev >= point.p - 2e-3, (name, point.p, point.gamma)

    def test_errev_monotone_in_p(self, sweep):
        for name in self.attack_series(sweep):
            for gamma in sweep.gammas():
                values = [point.errev for point in sweep.series(name, gamma)]
                assert all(b >= a - 5e-3 for a, b in zip(values, values[1:])), (name, gamma)

    def test_errev_monotone_in_gamma(self, sweep):
        gammas = sweep.gammas()
        for name in self.attack_series(sweep):
            by_gamma = {gamma: self.by_p(sweep, name, gamma) for gamma in gammas}
            for p in by_gamma[gammas[0]]:
                values = [by_gamma[gamma][p] for gamma in gammas]
                assert all(b >= a - 5e-3 for a, b in zip(values, values[1:])), (name, p)

    def test_d1f1_matches_honest_for_low_gamma(self, sweep):
        for gamma in (g for g in sweep.gammas() if g <= 0.5):
            for point in sweep.series("ours(d=1,f=1)", gamma):
                assert point.errev == pytest.approx(point.p, abs=5e-3), (point.p, gamma)

    def test_depth_two_strictly_better_at_top_p(self, sweep):
        for gamma in sweep.gammas():
            d1 = self.by_p(sweep, "ours(d=1,f=1)", gamma)
            d2 = self.by_p(sweep, "ours(d=2,f=1)", gamma)
            top_p = max(d1)
            assert d2[top_p] > d1[top_p], gamma

    def test_d2f1_at_least_single_tree_at_top_p(self, sweep):
        for gamma in sweep.gammas():
            ours = self.by_p(sweep, "ours(d=2,f=1)", gamma)
            tree = self.by_p(sweep, "single-tree(f=5)", gamma)
            top_p = max(ours)
            assert ours[top_p] >= tree[top_p] - 1e-9, gamma

    def test_pool_grid_is_bit_for_bit_the_serial_grid(self, sweep):
        pooled = run_sweep(SweepConfig(workers=2))
        assert not pooled.failures
        assert [
            (point.p, point.gamma, point.series, point.errev, point.beta_low, point.beta_up)
            for point in pooled.points
        ] == [
            (point.p, point.gamma, point.series, point.errev, point.beta_low, point.beta_up)
            for point in sweep.points
        ]

    def test_warm_chained_grid_within_epsilon(self, sweep):
        chained = run_sweep(
            SweepConfig(warm_start_across_points=True, reuse_p_axis_bounds=True)
        )
        assert not chained.failures
        assert [(point.p, point.gamma, point.series) for point in chained.points] == [
            (point.p, point.gamma, point.series) for point in sweep.points
        ]
        for warm, cold in zip(chained.points, sweep.points):
            assert warm.errev == pytest.approx(cold.errev, abs=EPSILON), warm



class TestTable1Points:
    """Table 1's default-tractable configurations at gamma = 0.5, p = 0.3."""

    @pytest.mark.parametrize(
        "depth, forks", [(1, 1), (2, 1), (2, 2)], ids=["d1_f1", "d2_f1", "d2_f2"]
    )
    def test_attack_never_loses_to_honest_mining(self, depth, forks):
        assert attack_errev(0.3, 0.5, depth=depth, forks=forks) >= 0.3 - EPSILON

    def test_single_tree_baseline_lies_below_the_largest_attack(self):
        baseline = single_tree_errev(
            ProtocolParams(p=0.3, gamma=0.5), SingleTreeParams(max_depth=4, max_width=5)
        )
        assert 0.0 < baseline < attack_errev(0.3, 0.5, depth=2, forks=2) < 1.0


class TestD1F1Claims:
    """The paper: d = f = 1 coincides with honest mining for gamma < 0.5 and only
    starts to pay off for gamma > 0.5 and p > 0.25."""

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    def test_matches_honest_mining_for_low_gamma(self, gamma):
        value = attack_errev(0.3, gamma, depth=1, forks=1)
        assert value == pytest.approx(0.3, abs=5e-3)

    @pytest.mark.parametrize("gamma", [0.75, 1.0])
    def test_pays_off_for_high_gamma_and_large_p(self, gamma):
        value = attack_errev(0.3, gamma, depth=1, forks=1)
        assert value > 0.3 + 0.01

    def test_does_not_pay_off_for_small_p(self):
        # Below the classic profitability threshold for gamma = 0.75 (~0.167)
        # withholding earns nothing extra, so the optimum collapses to honest
        # mining.
        value = attack_errev(0.15, 0.75, depth=1, forks=1)
        assert value == pytest.approx(0.15, abs=5e-3)


class TestChainQualityInterpretation:
    def test_chain_quality_is_one_minus_errev(self):
        protocol = ProtocolParams(p=0.3, gamma=0.5)
        value = attack_errev(0.3, 0.5, depth=2, forks=1)
        chain_quality = 1.0 - value
        assert chain_quality < 1.0 - honest_errev(protocol)


#: Precision of the sm-actions anchor's binary searches.
ANCHOR_EPSILON = 1e-4
#: Race truncation bounds ``l`` the anchor is solved at.
ANCHOR_LENGTHS = (8, 12, 20)
#: ``(gamma, p) -> (lower, upper)`` at ``l = 20``, rounded to 5 digits.
ANCHOR_TABLE = {
    (0.0, 1 / 3): (0.33685, 0.33960),
    (0.0, 0.4): (0.48584, 0.54059),
    (0.5, 1 / 3): (0.39178, 0.39612),
    (0.5, 0.4): (0.57227, 0.66547),
}


@lru_cache(maxsize=None)
def sm_actions_bounds(gamma: float, p: float, l: int) -> tuple:
    """``(lower, upper)``: the default variant's ``beta_low``, the overpaying ``beta_up``.

    Underpaying truncation discards the blocks past ``l`` and overpaying
    truncation settles them with the untruncated race's expected reward, so
    the two certified bounds sandwich the untruncated optimum.
    """
    protocol = ProtocolParams(p=p, gamma=gamma)
    config = AnalysisConfig(epsilon=ANCHOR_EPSILON)
    bounds = []
    for variant, side in (("", "beta_low"), ("overpaying", "beta_up")):
        attack = AttackParams(
            depth=1, forks=1, max_fork_length=l, scenario="sm-actions", variant=variant
        )
        result = formal_analysis(build_sm_actions_mdp(protocol, attack).mdp, config)
        bounds.append(getattr(result, side))
    return tuple(bounds)


class TestSmActionsAnchor:
    """The classic single-fork model against the literature's closed form."""

    @pytest.mark.parametrize("gamma, p", sorted(ANCHOR_TABLE))
    def test_eyal_sirer_lies_below_the_sandwich(self, gamma, p):
        # At l = 8 and 12 the truncation can still cost the lower bound more
        # than Eyal-Sirer's strategy earns (0.470 < 0.484 at (0, 0.4), l = 8),
        # so the closed form is compared at the largest l only.
        lower, upper = sm_actions_bounds(gamma, p, max(ANCHOR_LENGTHS))
        assert eyal_sirer_relative_revenue(p, gamma) <= lower <= upper

    @pytest.mark.parametrize("gamma, p", sorted(ANCHOR_TABLE))
    def test_bounds_tighten_with_l(self, gamma, p):
        bounds = [sm_actions_bounds(gamma, p, l) for l in ANCHOR_LENGTHS]
        lowers = [lower for lower, _ in bounds]
        uppers = [upper for _, upper in bounds]
        assert all(lower <= upper for lower, upper in bounds)
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)

    @pytest.mark.parametrize("gamma, p", sorted(ANCHOR_TABLE))
    def test_largest_l_reproduces_the_table(self, gamma, p):
        lower, upper = sm_actions_bounds(gamma, p, max(ANCHOR_LENGTHS))
        assert (lower, upper) == pytest.approx(ANCHOR_TABLE[gamma, p], abs=1e-5)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("p", [0.2, 0.25])
    @pytest.mark.parametrize("l", ANCHOR_LENGTHS)
    def test_honest_mining_is_optimal_at_small_p(self, gamma, p, l):
        lower, _ = sm_actions_bounds(gamma, p, l)
        assert lower == pytest.approx(p, abs=ANCHOR_EPSILON)
