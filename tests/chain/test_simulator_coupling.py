"""The MDP models the protocol: an exact step-by-step coupling with a concrete chain.

``simulator_oracle.couple`` replays a positional strategy on concrete blocks
and checks every step against the strategy's MDP: each mining step and each
decision step must be a positive-probability transition, each decision step's
reward must count the blocks it made final, and the rewards summed along the
path must equal the owner counts of the final main chain.  Nothing here is
statistical: one mismatch anywhere fails.

The mutation tests show that the check sees modelling errors: a copy of the
model with one taken transition redirected, zeroed or with its rewards
swapped, or with one visited state missing, fails within the same seeded
horizon.  The ``d=3,f=2`` model (133,299 states) runs with ``REPRO_FULL=1``.
"""

from __future__ import annotations

import functools
import os
from typing import Tuple

import numpy as np
import pytest

from repro.analysis import formal_analysis
from repro.attacks import build_selfish_forks_mdp, honest_strategy_rows
from repro.attacks.fork_state import TYPE_MINING
from repro.config import AnalysisConfig, AttackParams, ProtocolParams
from repro.mdp import MDP, Strategy
from simulator_oracle import CouplingError, couple, greedy_lead_rows

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the d=3,f=2 model is large; set REPRO_FULL=1")

#: Gamma 0 and 1 drop the race's losing or winning outcome from the model.
PROTOCOLS = [
    ProtocolParams(p=0.3, gamma=0.5),
    ProtocolParams(p=0.3, gamma=1.0),
    ProtocolParams(p=0.2, gamma=0.0),
]
MODELS = [(1, 1), (2, 1), (2, 2), (3, 1)]
STRATEGIES = ["optimal", "greedy-lead", "honest"]
SEEDS = (0, 1)
STEPS = 2_000


@functools.lru_cache(maxsize=None)
def _model(depth: int, forks: int, protocol: ProtocolParams) -> MDP:
    return build_selfish_forks_mdp(protocol, AttackParams(depth=depth, forks=forks)).mdp


@functools.lru_cache(maxsize=None)
def _strategy(depth: int, forks: int, protocol: ProtocolParams, name: str) -> Strategy:
    mdp = _model(depth, forks, protocol)
    if name == "optimal":
        return formal_analysis(mdp, AnalysisConfig(epsilon=1e-3)).strategy
    if name == "greedy-lead":
        return Strategy(mdp, greedy_lead_rows(mdp, race_on_tie=True))
    return Strategy(mdp, honest_strategy_rows(mdp))


def _copy(mdp: MDP, **arrays: object) -> MDP:
    """``mdp`` with some of its arrays replaced."""
    fields = {
        name: getattr(mdp, name)
        for name in (
            "num_states",
            "initial_state",
            "row_state",
            "state_row_offsets",
            "row_trans_offsets",
            "trans_succ",
            "trans_prob",
            "trans_reward",
            "row_actions",
            "state_labels",
        )
    }
    fields.update(arrays)
    return MDP(**fields)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda point: f"p{point.p}-g{point.gamma}")
@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"d{m[0]}f{m[1]}")
def test_every_step_is_an_mdp_step(model, name, protocol):
    depth, forks = model
    strategy = _strategy(depth, forks, protocol, name)
    attack = AttackParams(depth=depth, forks=forks)
    for seed in SEEDS:
        run = couple(strategy, protocol, attack, steps=STEPS, seed=seed)
        assert len(run.taken) == 2 * STEPS
        assert run.rewards == run.main_chain
        # Blocks reach depth d at the rate they are found, minus the orphans.
        assert 0 < sum(run.main_chain) <= STEPS
        if name == "honest":
            assert run.main_chain[0] == 0


@FULL_ONLY
@pytest.mark.parametrize("name", ["greedy-lead", "honest"])
def test_d3f2_every_step_is_an_mdp_step(name):
    protocol, attack = PROTOCOLS[0], AttackParams(depth=3, forks=2)
    strategy = _strategy(3, 2, protocol, name)
    assert strategy.mdp.num_states == 133_299
    for seed in SEEDS:
        run = couple(strategy, protocol, attack, steps=20_000, seed=seed)
        assert run.rewards == run.main_chain


# ------------------------------------------------------------------ mutations

PROTOCOL, ATTACK = PROTOCOLS[0], AttackParams(depth=2, forks=2)


@pytest.fixture(scope="module")
def clean() -> Tuple[Strategy, list]:
    """The optimal ``d=2,f=2`` strategy and the transitions its seeded run takes."""
    strategy = _strategy(2, 2, PROTOCOL, "optimal")
    return strategy, couple(strategy, PROTOCOL, ATTACK, steps=STEPS, seed=0).taken


def _mutant_fails(strategy: Strategy, mutant: MDP, match: str) -> None:
    with pytest.raises(CouplingError, match=match):
        couple(Strategy(mutant, strategy.rows), PROTOCOL, ATTACK, steps=STEPS, seed=0)


def test_redirected_successor_fails(clean):
    strategy, taken = clean
    mdp = strategy.mdp
    transition = taken[len(taken) // 2]
    row = int(np.searchsorted(mdp.row_trans_offsets, transition, side="right")) - 1
    targets = set(mdp.trans_succ[mdp.row_trans_offsets[row] : mdp.row_trans_offsets[row + 1]])
    elsewhere = next(state for state in range(mdp.num_states) if state not in targets)
    succ = mdp.trans_succ.copy()
    succ[transition] = elsewhere
    _mutant_fails(strategy, _copy(mdp, trans_succ=succ), "no positive-probability transition")


def test_zeroed_probability_fails(clean):
    strategy, taken = clean
    prob = strategy.mdp.trans_prob.copy()
    prob[taken[len(taken) // 2]] = 0.0
    _mutant_fails(strategy, _copy(strategy.mdp, trans_prob=prob), "no positive-probability")


def test_swapped_rewards_fail(clean):
    strategy, taken = clean
    reward = strategy.mdp.trans_reward.copy()
    transition = next(t for t in taken if reward[t, 0] != reward[t, 1])
    reward[transition] = reward[transition, ::-1]
    _mutant_fails(strategy, _copy(strategy.mdp, trans_reward=reward), "blocks final")


def test_missing_state_fails_instead_of_mining(clean):
    strategy, taken = clean
    mdp = strategy.mdp
    # A visited decision state in which the strategy releases: mining there
    # instead would leave the run on a path the MDP also has.
    released = next(
        int(mdp.row_state[row])
        for row in np.searchsorted(mdp.row_trans_offsets, taken, side="right") - 1
        if mdp.row_actions[row] != ("mine",)
    )
    assert mdp.state_labels[released][2] != TYPE_MINING
    labels = list(mdp.state_labels)
    labels[released] = ("renamed", released)
    _mutant_fails(strategy, _copy(mdp, state_labels=labels), "is not a state of the MDP")


def test_unmutated_copy_couples(clean):
    strategy, taken = clean
    copy = Strategy(_copy(strategy.mdp), strategy.rows)
    assert couple(copy, PROTOCOL, ATTACK, steps=STEPS, seed=0).taken == taken
