"""Policy iteration takes every step of the loop it replaced.

:mod:`pi_oracle` keeps the old loop: rewards summed per transition, a
right-hand side formed from the weights in every evaluation, a ``Strategy``
check of every round's rows and ``np.array_equal`` as the stopping test.  Every
solve of Algorithm 1 (one per probe no certificate decides, plus the final
extraction) at the Figure 2 grid points of ``d=1,f=1`` and
``d=2,f=1``, and at the six ``point-d2f2`` benchmark points, is recorded round
by round; the oracle, started from the same rows under the same weights, must
give the same greedy rows after every round, the same number of rounds, and
gains within 1e-12.  The round test runs three rounds from the first-action
strategy, at ``d=2,f=2`` and, with ``REPRO_FULL=1``, on the ``d=3,f=2`` model
(133k states).
"""

from __future__ import annotations

import importlib
import itertools
import os

import numpy as np
import pytest

import pi_oracle
from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig
from repro.analysis import beta_reward_weights, formal_analysis
from repro.attacks import get_model_structure
from repro.exceptions import ConvergenceError
from repro.mdp import MarkovChain, Strategy, policy_iteration

#: The policy-iteration module; ``repro.mdp.policy_iteration`` is the function.
PI_MODULE = importlib.import_module("repro.mdp.policy_iteration")
MEAN_PAYOFF = importlib.import_module("repro.mdp.mean_payoff")

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the d=3,f=2 model is large; set REPRO_FULL=1")

FIGURE2 = SweepConfig()
FIGURE2_POINTS = [(gamma, p) for gamma in FIGURE2.gammas for p in FIGURE2.p_values]
#: The ``point-d2f2`` benchmark inputs at its default seed, as ``(gamma, p)``.
D2F2_POINTS = [(gamma, p) for gamma in (0.5, 1.0) for p in (0.1, 0.2, 0.3)]
SEARCHES = {
    "d1f1": ((1, 1), FIGURE2_POINTS),
    "d2f1": ((2, 1), FIGURE2_POINTS),
    "d2f2": ((2, 2), D2F2_POINTS),
}


def model(depth, forks, gamma, p):
    protocol = ProtocolParams(p=p, gamma=gamma)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    return get_model_structure(attack, protocol).instantiate(protocol)


class RoundRecorder:
    """Record every policy-iteration solve and, within it, each round's gain and greedy rows."""

    def __init__(self, monkeypatch):
        self.solves = []
        self.solving = False
        solve = PI_MODULE.policy_iteration
        greedy = PI_MODULE._greedy_improvement
        gain_and_bias = MarkovChain.gain_and_bias

        def recording_solve(mdp, reward_weights, **options):
            start = options.get("initial_strategy")
            record = {
                "mdp": mdp,
                "weights": np.asarray(reward_weights, dtype=float),
                "start": mdp.uniform_random_row_choice() if start is None else start.rows,
                "tolerance": options.get("tolerance", 1e-9),
                "gains": [],
                "rows": [],
            }
            self.solves.append(record)
            self.solving = True
            try:
                result = solve(mdp, reward_weights, **options)
            finally:
                self.solving = False
            record["iterations"] = result.iterations
            return result

        def recording_greedy(*args):
            rows, switched = greedy(*args)
            self.solves[-1]["rows"].append(rows.copy())
            return rows, switched

        def recording_gain_and_bias(chain, *args, **kwargs):
            gain, bias = gain_and_bias(chain, *args, **kwargs)
            if self.solving:  # not the oracle's, nor a strategy evaluation's
                self.solves[-1]["gains"].append(gain)
            return gain, bias

        monkeypatch.setattr(MEAN_PAYOFF, "policy_iteration", recording_solve)
        monkeypatch.setattr(PI_MODULE, "_greedy_improvement", recording_greedy)
        monkeypatch.setattr(MarkovChain, "gain_and_bias", recording_gain_and_bias)


def assert_rounds_match(record, oracle_rounds):
    assert len(oracle_rounds) == len(record["rows"]) == len(record["gains"])
    for index, ((gain, rows), got_rows, got_gain) in enumerate(
        zip(oracle_rounds, record["rows"], record["gains"])
    ):
        assert np.array_equal(got_rows, rows), index
        assert got_gain == pytest.approx(gain, abs=1e-12), index


@pytest.mark.parametrize("name", list(SEARCHES))
def test_every_search_solve_takes_the_old_loops_rounds(name, monkeypatch):
    (depth, forks), points = SEARCHES[name]
    recorder = RoundRecorder(monkeypatch)
    solved = 0
    for gamma, p in points:
        result = formal_analysis(model(depth, forks, gamma, p), AnalysisConfig(epsilon=1e-3))
        solved += sum(record.certificate is None for record in result.iterations)
    # Every probe no certificate decided, and the final strategy extraction.
    assert len(recorder.solves) == solved + len(points)
    for record in recorder.solves:
        oracle_rounds = list(
            pi_oracle.rounds(record["mdp"], record["weights"], record["start"], record["tolerance"])
        )
        assert record["iterations"] == len(oracle_rounds)
        assert_rounds_match(record, oracle_rounds)


ROUND_MODELS = {"d2f2": (2, 2), "d3f2": (3, 2)}
ROUNDS = 3


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=FULL_ONLY if name == "d3f2" else ()) for name in ROUND_MODELS]
)
def test_first_rounds_from_the_first_action_strategy(name, monkeypatch):
    mdp = model(*ROUND_MODELS[name], gamma=0.5, p=0.3)
    weights = beta_reward_weights(0.5)
    start = Strategy.first_action(mdp)
    recorder = RoundRecorder(monkeypatch)
    try:
        MEAN_PAYOFF.policy_iteration(mdp, weights, initial_strategy=start, max_iterations=ROUNDS)
    except ConvergenceError:
        pass
    (record,) = recorder.solves
    oracle_rounds = list(itertools.islice(pi_oracle.rounds(mdp, weights, start.rows), ROUNDS))
    assert len(oracle_rounds) == ROUNDS
    assert_rounds_match(record, oracle_rounds)


def test_a_solve_from_its_own_result_is_one_round():
    mdp = model(2, 1, gamma=0.5, p=0.3)
    weights = beta_reward_weights(0.4)
    result = policy_iteration(mdp, weights)
    again = policy_iteration(mdp, weights, initial_strategy=result.strategy)
    assert again.iterations == 1
    assert again.strategy.rows is result.strategy.rows
    assert again.gain == result.gain
    assert again.bias.tobytes() == result.bias.tobytes()
