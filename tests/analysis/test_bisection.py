"""Algorithm 1 is one bisection over beta whose probes are certified or solved.

A probe is decided by a lower certificate (a strategy solved earlier in the
search earns a gain >= 0 under ``r_beta``), by an upper one (one Bellman pass
of the latest solved strategy's bias bounds the optimal gain below 0), or by
a warm-started mean-payoff solve when neither holds.  Every property is
checked across the parameter space -- both ends of the gamma range, small and
large p, the smallest model, deeper ones and a two-fork one.
"""

from __future__ import annotations

import importlib
import math
import pickle

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cold_bisection import cold_bisection
from lp_oracle import solve_mean_payoff_lp
from repro import AnalysisConfig, AttackParams, ProtocolParams
from repro.analysis import dinkelbach_analysis, formal_analysis
from repro.analysis.rewards import beta_reward_weights
from repro.attacks import get_model_structure
from repro.mdp import EvaluationCache, solve_mean_payoff_batch

#: The policy-iteration module; ``repro.mdp.policy_iteration`` is the function.
PI_MODULE = importlib.import_module("repro.mdp.policy_iteration")
ALGORITHM1 = importlib.import_module("repro.analysis.algorithm1")

EPSILON = 1e-3

#: (depth, forks, gamma, p) of the analysed points.
CASES = [
    (1, 1, 0.5, 0.3),
    (1, 1, 1.0, 0.4),
    (2, 1, 0.0, 0.1),
    (2, 1, 0.5, 0.3),
    (2, 1, 1.0, 0.4),
    (2, 1, 0.25, 0.45),
    (1, 1, 0.0, 0.1),
    (2, 1, 0.75, 0.2),
    (2, 1, 0.0, 0.45),
    (3, 1, 0.5, 0.3),
    (2, 2, 0.5, 0.2),
    (2, 2, 1.0, 0.3),
]

CASE_IDS = [f"d{d}f{f}-g{gamma}-p{p}" for d, f, gamma, p in CASES]

_MODELS: dict = {}
_RESULTS: dict = {}


def _mdp(case):
    if case not in _MODELS:
        depth, forks, gamma, p = case
        protocol = ProtocolParams(p=p, gamma=gamma)
        attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
        _MODELS[case] = get_model_structure(attack, protocol).instantiate(protocol)
    return _MODELS[case]


def _analysis(case):
    if case not in _RESULTS:
        _RESULTS[case] = formal_analysis(_mdp(case), AnalysisConfig(epsilon=EPSILON))
    return _RESULTS[case]


with_case = pytest.mark.parametrize("case", CASES, ids=CASE_IDS)


def _solved(result):
    """The probes a mean-payoff solve decided."""
    return [record for record in result.iterations if record.certificate is None]


@with_case
def test_each_probe_is_the_midpoint(case):
    result = _analysis(case)
    low, up = 0.0, 1.0
    for record in result.iterations:
        assert record.beta == 0.5 * (low + up)
        low, up = record.beta_low, record.beta_up
    assert (low, up) == (result.beta_low, result.beta_up)


@with_case
def test_gain_sign_picks_the_half(case):
    result = _analysis(case)
    for record in result.iterations:
        if record.optimal_mean_payoff < 0.0:
            assert record.beta_up == record.beta
        else:
            assert record.beta_low == record.beta


@with_case
def test_interval_brackets_the_strategy(case):
    result = _analysis(case)
    assert result.interval_width < EPSILON
    assert result.errev_lower_bound == result.beta_low
    # Theorem 3.1: the strategy optimal for r_{beta_low} achieves at least
    # beta_low, and no strategy exceeds beta_up.
    assert result.beta_low - 1e-9 <= result.strategy_errev <= result.beta_up + 1e-9


@with_case
def test_probe_log_replays_as_one_warm_chained_batch(case):
    """The solved probes warm-chain exactly like ``solve_mean_payoff_batch`` over their betas.

    A certified probe logs no solver round, the bound that decided it and
    which certificate gave it.
    """
    result = _analysis(case)
    solved = _solved(result)
    weights = np.array([beta_reward_weights(record.beta) for record in solved])
    batch = solve_mean_payoff_batch(_mdp(case), weights)
    assert [solution.gain for solution in batch] == [
        record.optimal_mean_payoff for record in solved
    ]
    assert [solution.iterations for solution in batch] == [
        record.solver_iterations for record in solved
    ]
    assert all(record.solver_iterations > 0 for record in solved)
    for record in result.iterations:
        if record.certificate == "lower":
            assert record.solver_iterations == 0 and record.optimal_mean_payoff >= 0.0
            assert record.beta_low == record.beta
        elif record.certificate == "upper":
            assert record.solver_iterations == 0 and record.optimal_mean_payoff < 0.0
            assert record.beta_up == record.beta
        else:
            assert record.certificate is None
    # No strategy is solved before the first probe, so only a solve can decide it.
    assert result.iterations[0].certificate is None


@with_case
def test_total_iterations_add_up(case):
    result = _analysis(case)
    probe_iterations = sum(record.solver_iterations for record in result.iterations)
    # The remainder is the final solve at beta_low that extracts the strategy.
    assert result.total_solver_iterations > probe_iterations


@with_case
def test_lp_reference_certifies_the_interval(case):
    """The LP gain is >= 0 at the certified beta_low and < 0 past beta_up."""
    result = _analysis(case)
    mdp = _mdp(case)
    assert solve_mean_payoff_lp(mdp, beta_reward_weights(result.beta_low)).gain >= -1e-7
    if result.beta_up < 1.0:
        assert solve_mean_payoff_lp(mdp, beta_reward_weights(result.beta_up)).gain <= 1e-7


@with_case
def test_certified_bounds_bracket_the_lp_gain(case):
    """No lower certificate's bound exceeds the LP's gain, no upper one falls short of it."""
    result = _analysis(case)
    mdp = _mdp(case)
    for record in result.iterations:
        if record.certificate is None:
            continue
        gain = solve_mean_payoff_lp(mdp, beta_reward_weights(record.beta)).gain
        if record.certificate == "lower":
            assert record.optimal_mean_payoff <= gain + 1e-9, record
        else:
            assert record.optimal_mean_payoff >= gain - 1e-9, record


#: ``CASES`` plus an adversary without resource, whose ERRev* is 0.
WARM_CASES = CASES + [(2, 1, 0.5, 0.0)]
WARM_IDS = [f"d{d}f{f}-g{gamma}-p{p}" for d, f, gamma, p in WARM_CASES]


def _seeded_start(case):
    """A seeded random row choice for ``case``'s model and ``beta_low`` raised to its p."""
    mdp = _mdp(case)
    offsets = mdp.state_row_offsets
    rows = np.random.default_rng(7).integers(offsets[:-1], offsets[1:])
    return {"initial_strategy_rows": rows, "beta_low": case[3]}


@pytest.mark.parametrize(
    "case, seeded",
    [(case, False) for case in WARM_CASES] + [(case, True) for case in WARM_CASES],
    ids=WARM_IDS + [f"{case_id}-seeded" for case_id in WARM_IDS],
)
def test_warm_search_certifies_what_a_cold_one_does(case, seeded):
    """Certificates, warm starts and the shared evaluation cache move no probe and no value.

    A ``seeded`` search starts from random rows with ``beta_low`` raised to
    p, as a chained sweep starts a point from its neighbour's strategy and
    bound; the cold oracle bisects the same initial interval.  From other
    rows the final solve may stop at another optimal strategy for
    ``r_{beta_low}``, whose ERRev ties within float noise (at most 4.4e-16
    at ``d=2,f=2`` over three seeds).
    """
    config = AnalysisConfig(epsilon=EPSILON)
    options = _seeded_start(case) if seeded else {}
    warm = formal_analysis(_mdp(case), config, **options) if options else _analysis(case)
    cold = cold_bisection(_mdp(case), config, beta_low=options.get("beta_low", 0.0))
    assert [record.beta for record in warm.iterations] == cold.betas
    assert (warm.beta_low, warm.beta_up) == (cold.beta_low, cold.beta_up)
    if options:
        assert warm.strategy_errev == pytest.approx(cold.strategy_errev, abs=1e-12)
    else:
        assert warm.strategy_errev == cold.strategy_errev


def test_a_flipped_upper_certificate_parts_from_the_cold_search(monkeypatch):
    """Mutation check: with the upper certificate's sign flipped the cold comparison fails."""
    bound = ALGORITHM1.gain_upper_bound
    monkeypatch.setattr(ALGORITHM1, "gain_upper_bound", lambda *args: -bound(*args))
    config = AnalysisConfig(epsilon=EPSILON)
    parted = []
    for case in CASES:
        mutant = formal_analysis(_mdp(case), config)
        cold = cold_bisection(_mdp(case), config)
        if [record.beta for record in mutant.iterations] != cold.betas or (
            mutant.beta_low, mutant.beta_up
        ) != (cold.beta_low, cold.beta_up):
            parted.append(case)
    assert parted


@pytest.fixture()
def factorizations(monkeypatch):
    """Record ``(permc_spec, relax, panel_size)`` of every Poisson factorization.

    The stationary solve factors through ``spsolve`` and is not recorded.
    """
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(
            (kwargs.get("permc_spec", "COLAMD"), kwargs.get("relax"), kwargs.get("panel_size"))
        )
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


@pytest.fixture()
def evaluated(monkeypatch):
    """Record the rows of every strategy a solve looks up in an evaluation cache."""
    lookups = []
    lookup = EvaluationCache.evaluation

    def recording_lookup(self, mdp, rows):
        lookups.append(rows.tobytes())
        return lookup(self, mdp, rows)

    monkeypatch.setattr(EvaluationCache, "evaluation", recording_lookup)
    return lookups


@pytest.mark.parametrize("case", CASES[:3], ids=CASE_IDS[:3])
def test_warm_solves_reuse_the_incumbent_factor(case, factorizations, evaluated, monkeypatch):
    """Under the cache's cap a search factors each distinct strategy once.

    Every solver round looks its strategy up, and every solved probe looks
    its strategy up once more for the certificates' per-component solve.  At
    cap 0 the cache holds one factor; that lookup, and every solve after the
    first, reuses the factor of the strategy the previous solve returned.
    """
    warm = formal_analysis(_mdp(case), AnalysisConfig(epsilon=EPSILON))
    assert len(evaluated) == warm.total_solver_iterations + len(_solved(warm))
    assert len(factorizations) == len(set(evaluated))
    # The columns come in the model's cached order, so SuperLU never runs
    # COLAMD, and it factors without relaxed supernodes or panel blocking.
    assert set(factorizations) == {("NATURAL", 1, 1)}
    factorizations.clear()
    monkeypatch.setattr(PI_MODULE, "CACHED_FACTOR_ENTRIES", 0)
    capped = formal_analysis(_mdp(case), AnalysisConfig(epsilon=EPSILON))
    assert len(factorizations) == capped.total_solver_iterations - len(_solved(capped))


@pytest.mark.parametrize("case", CASES[:3], ids=CASE_IDS[:3])
def test_dinkelbach_reuses_the_incumbent_factor(case, factorizations, evaluated, monkeypatch):
    result = dinkelbach_analysis(_mdp(case), AnalysisConfig(epsilon=EPSILON))
    assert len(factorizations) == len(set(evaluated))
    factorizations.clear()
    monkeypatch.setattr(PI_MODULE, "CACHED_FACTOR_ENTRIES", 0)
    capped = dinkelbach_analysis(_mdp(case), AnalysisConfig(epsilon=EPSILON))
    solver_iterations = sum(record.solver_iterations for record in capped.iterations)
    assert len(factorizations) == solver_iterations - (capped.num_iterations - 1)


#: Models of the invariance check, each at the six ``point-d2f2`` inputs of
#: the benchmark and three more Figure 2 grid points, as ``(gamma, p)``.
INVARIANCE_MODELS = [(1, 1), (2, 1), (2, 2)]
INVARIANCE_POINTS = [
    (0.5, 0.1), (0.5, 0.2), (0.5, 0.3), (1.0, 0.1), (1.0, 0.2), (1.0, 0.3),
    (0.0, 0.15), (0.0, 0.3), (1.0, 0.25),
]


@pytest.mark.parametrize(
    "depth, forks", INVARIANCE_MODELS, ids=[f"d{d}f{f}" for d, f in INVARIANCE_MODELS]
)
def test_superlu_setting_decides_as_the_default_one(depth, forks, monkeypatch):
    """Without relaxed supernodes and panels SuperLU takes every decision its default takes.

    The oracle is the same search with ``splu`` stripped of ``relax`` and
    ``panel_size``: every probe, the certified interval, the strategy and its
    ERRev must be identical, and every probe's gain equal within 1e-12.
    """
    config = AnalysisConfig(epsilon=EPSILON)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    models = []
    for gamma, p in INVARIANCE_POINTS:
        protocol = ProtocolParams(p=p, gamma=gamma)
        models.append(get_model_structure(attack, protocol).instantiate(protocol))
    shipped = [formal_analysis(mdp, config) for mdp in models]

    splu = spla.splu

    def default_splu(*args, relax=None, panel_size=None, **kwargs):
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", default_splu)
    oracle = [formal_analysis(mdp, config) for mdp in models]
    for point, result, expected in zip(INVARIANCE_POINTS, shipped, oracle):
        assert [it.beta for it in result.iterations] == [it.beta for it in expected.iterations]
        assert (result.beta_low, result.beta_up) == (expected.beta_low, expected.beta_up), point
        assert np.array_equal(result.strategy.rows, expected.strategy.rows), point
        assert result.strategy_errev == expected.strategy_errev, point
        for it, want in zip(result.iterations, expected.iterations):
            assert it.optimal_mean_payoff == pytest.approx(want.optimal_mean_payoff, abs=1e-12)


def _search_values(result):
    """Every value of an Algorithm 1 result except its timings."""
    return (
        (result.beta_low, result.beta_up),
        [
            (
                it.beta,
                it.optimal_mean_payoff,
                it.beta_low,
                it.beta_up,
                it.solver_iterations,
                it.certificate,
            )
            for it in result.iterations
        ],
        result.strategy.rows.tobytes(),
        result.strategy_errev,
        result.total_solver_iterations,
    )


def _dinkelbach_values(result):
    return result.errev, result.strategy.rows.tobytes(), result.iterations


def _batch_values(solutions):
    return [
        (s.gain, s.bias.tobytes(), s.strategy.rows.tobytes(), s.iterations) for s in solutions
    ]


@pytest.mark.parametrize(
    "depth, forks", INVARIANCE_MODELS, ids=[f"d{d}f{f}" for d, f in INVARIANCE_MODELS]
)
def test_cache_hits_change_no_value(depth, forks, monkeypatch):
    """A search whose cache holds one factor (cap 0) computes every value of the default one.

    Algorithm 1, Dinkelbach and ``solve_mean_payoff_batch`` (over the search's
    probes and its final ``beta_low``) run at every invariance point under
    both caps; below the cap the default run factors fewer strategies.
    """
    config = AnalysisConfig(epsilon=EPSILON)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    models = []
    for gamma, p in INVARIANCE_POINTS:
        protocol = ProtocolParams(p=p, gamma=gamma)
        models.append(get_model_structure(attack, protocol).instantiate(protocol))
    factored = []
    evaluate = PI_MODULE._evaluate

    def counting_evaluate(mdp, rows):
        factored.append(rows.tobytes())
        return evaluate(mdp, rows)

    monkeypatch.setattr(PI_MODULE, "_evaluate", counting_evaluate)

    def run_all():
        factored.clear()
        values = []
        for mdp in models:
            search = formal_analysis(mdp, config)
            betas = [it.beta for it in search.iterations] + [search.beta_low]
            batch = solve_mean_payoff_batch(
                mdp, np.array([beta_reward_weights(beta) for beta in betas])
            )
            values.append(
                (
                    _search_values(search),
                    _dinkelbach_values(dinkelbach_analysis(mdp, config)),
                    _batch_values(batch),
                )
            )
        return values, len(factored)

    cached, cached_factors = run_all()
    monkeypatch.setattr(PI_MODULE, "CACHED_FACTOR_ENTRIES", 0)
    capped, capped_factors = run_all()
    for point, got, want in zip(INVARIANCE_POINTS, cached, capped):
        assert got == want, point
    if forks == 1:
        assert cached_factors < capped_factors
    else:
        # One d=2,f=2 factor is past the cap: the default already holds one only.
        assert cached_factors == capped_factors


def test_batch_returns_no_factor():
    """A SuperLU factor does not pickle, so a list that pickles holds none."""
    weights = np.array([beta_reward_weights(beta) for beta in (0.2, 0.4, 0.3)])
    batch = solve_mean_payoff_batch(_mdp(CASES[2]), weights)
    clone = pickle.loads(pickle.dumps(batch))
    assert [solution.gain for solution in clone] == [solution.gain for solution in batch]


def test_result_pickles_without_a_factor():
    """Pool workers return results by pickle; a SuperLU factor would not pickle."""
    result = _analysis(CASES[3])
    clone = pickle.loads(pickle.dumps(result))
    assert (clone.beta_low, clone.beta_up) == (result.beta_low, result.beta_up)
    assert np.array_equal(clone.strategy.rows, result.strategy.rows)


@pytest.mark.parametrize(
    "beta_low, beta_up, epsilon",
    [
        (0.0, 1.0, 2**-3),
        (0.0, 1.0, 0.01),
        (0.25, 0.75, 2**-6),
        (0.3, 0.6, 1e-3),
        (0.4, 0.45, 0.02),
    ],
)
def test_round_count_is_the_number_of_halvings(beta_low, beta_up, epsilon):
    """Rounds stop once the width drops *below* epsilon: one probe per halving."""
    case = (2, 1, 0.5, 0.3)
    result = formal_analysis(
        _mdp(case),
        AnalysisConfig(epsilon=epsilon, evaluate_strategy=False),
        beta_low=beta_low,
        beta_up=beta_up,
    )
    expected = math.floor(math.log2((beta_up - beta_low) / epsilon)) + 1
    assert result.num_iterations == expected
    assert len(result.iterations) == expected
    assert beta_low <= result.beta_low <= result.beta_up <= beta_up
