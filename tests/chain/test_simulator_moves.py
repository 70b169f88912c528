"""Unit tests of the chain simulator oracle's own moves.

``test_simulator_coupling.py`` checks whole runs against the MDP; these
tests pin the single moves of :class:`simulator_oracle.ChainOracle` those
runs are made of -- the mining draw, the race, the release, the revenue
window -- and the greedy-lead rows, with scripted random draws so that each
check is exact.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.attacks import build_selfish_forks_mdp, honest_strategy_rows
from repro.attacks.fork_state import ADVERSARY, HONEST, TYPE_ADVERSARY, TYPE_HONEST, TYPE_MINING
from repro.config import AttackParams, ProtocolParams
from repro.mdp import MDP, Strategy
from simulator_oracle import MINE, ChainOracle, CouplingError, couple, greedy_lead_rows

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)
ATTACK = AttackParams(depth=2, forks=2, max_fork_length=3)


class _Draws:
    """A scripted stand-in for ``random.Random``: hands out the given draws in order."""

    def __init__(self, *draws: float) -> None:
        self.draws = list(draws)

    def random(self) -> float:
        if not self.draws:
            raise AssertionError("the oracle drew more random numbers than scripted")
        return self.draws.pop(0)


def _chain(*draws: float) -> ChainOracle:
    chain = ChainOracle(PROTOCOL, ATTACK, seed=0)
    chain.rng = _Draws(*draws)
    return chain


@functools.lru_cache(maxsize=None)
def _model(depth: int, forks: int) -> MDP:
    return build_selfish_forks_mdp(PROTOCOL, AttackParams(depth=depth, forks=forks)).mdp


# ---------------------------------------------------------------- the start


@pytest.mark.parametrize("model", [(1, 1), (2, 1), (2, 2), (3, 1)], ids=lambda m: f"d{m[0]}f{m[1]}")
def test_fresh_chain_is_the_initial_state(model):
    depth, forks = model
    mdp = _model(depth, forks)
    chain = ChainOracle(PROTOCOL, AttackParams(depth=depth, forks=forks), seed=0)
    assert chain.label(TYPE_MINING) == mdp.state_labels[mdp.initial_state]
    assert chain.owners == [HONEST] * (depth + 1)
    assert chain.rewarded_owners() == (0, 0)


# ------------------------------------------------------------------- mining


def _total(sigma: int) -> float:
    return (1.0 - PROTOCOL.p) + PROTOCOL.p * sigma


@pytest.mark.parametrize("target", [0, 1])
def test_each_target_takes_a_p_wide_slice_of_the_draw(target):
    # A fresh d=2 chain has sigma = 2 targets: the lowest empty slot of the
    # tip (depth 1) and of the block below it (depth 2), in that order.
    chain = _chain((target + 0.5) * PROTOCOL.p / _total(2))
    assert chain.mine() == TYPE_ADVERSARY
    rows = chain.label(TYPE_ADVERSARY)[0]
    assert rows == tuple((1, 0) if depth == target else (0, 0) for depth in range(2))


@pytest.mark.parametrize("share", [0.01, 0.5, 0.99])
def test_the_honest_miner_takes_the_rest_of_the_draw(share):
    chain = _chain((2 * PROTOCOL.p + share * (1.0 - PROTOCOL.p)) / _total(2))
    assert chain.mine() == TYPE_HONEST
    assert chain.label(TYPE_HONEST)[0] == ((0, 0), (0, 0))


def test_fork_tips_and_empty_slots_are_both_targets():
    chain = _chain()
    chain.forks[chain.ids[-1]] = (2, 0)
    chain.forks[chain.ids[-2]] = (1, 1)
    # Tip: the fork in slot 1 and the empty slot 2; below: both fork tips.
    chain.rng = _Draws((3.5 * PROTOCOL.p) / _total(4))
    assert chain.mine() == TYPE_ADVERSARY
    assert chain.forks[chain.ids[-2]] == (1, 2)


def test_mining_caps_a_fork_at_max_fork_length():
    # Targets: the full fork and the empty slot of the tip, the empty slot below.
    chain = _chain(0.5 * PROTOCOL.p / _total(3))
    chain.forks[chain.ids[-1]] = (ATTACK.max_fork_length, 0)
    assert chain.mine() == TYPE_ADVERSARY
    assert chain.forks[chain.ids[-1]] == (ATTACK.max_fork_length, 0)


# ----------------------------------------------------------------- decisions


def test_mining_after_an_honest_block_appends_it():
    chain = _chain()
    chain.decide(TYPE_HONEST, MINE)
    assert chain.owners == [HONEST] * 4
    assert chain.ids == [0, 1, 2, 3]


def test_mining_after_an_adversary_block_changes_no_chain():
    chain = _chain()
    chain.decide(TYPE_ADVERSARY, MINE)
    assert chain.owners == [HONEST] * 3


def test_releasing_more_blocks_than_the_fork_has_fails():
    chain = _chain()
    chain.forks[chain.ids[-1]] = (1, 0)
    with pytest.raises(CouplingError, match="of a fork of length 1"):
        chain.decide(TYPE_ADVERSARY, ("release", 1, 1, 2))


@pytest.mark.parametrize(
    "state_type, action",
    [(TYPE_ADVERSARY, ("release", 2, 1, 1)), (TYPE_HONEST, ("release", 2, 1, 1))],
    ids=["tie-without-race", "shorter"],
)
def test_a_release_that_cannot_win_fails(state_type, action):
    chain = _chain()
    chain.forks[chain.ids[-2]] = (3, 0)
    with pytest.raises(CouplingError, match="cannot beat the public chain"):
        chain.decide(state_type, action)


def test_a_longer_release_wins_without_a_race():
    chain = _chain()  # no scripted draws: the release must not draw one
    chain.forks[chain.ids[-2]] = (2, 0)
    chain.decide(TYPE_ADVERSARY, ("release", 2, 1, 2))
    # The block above the base is orphaned and replaced by the two released.
    assert chain.owners == [HONEST, HONEST, ADVERSARY, ADVERSARY]
    assert chain.ids == [0, 1, 3, 4]


@pytest.mark.parametrize("won", [True, False])
def test_a_race_is_won_with_probability_gamma(won):
    draw = PROTOCOL.gamma - 0.01 if won else PROTOCOL.gamma
    chain = _chain(draw)
    chain.forks[chain.ids[-1]] = (1, 0)
    chain.decide(TYPE_HONEST, ("release", 1, 1, 1))
    # The pending honest block and the released one race for the same height.
    assert chain.owners[-1] == (ADVERSARY if won else HONEST)
    assert len(chain.owners) == 4
    assert chain.forks[chain.ids[-2]] == ((0, 0) if won else (1, 0))


def test_a_partial_release_reroots_the_rest_on_the_new_tip():
    chain = _chain()
    chain.forks[chain.ids[-1]] = (3, 1)
    chain.decide(TYPE_ADVERSARY, ("release", 1, 1, 1))
    assert chain.owners[-1] == ADVERSARY
    assert chain.forks[chain.ids[-2]] == (0, 1)
    assert chain.forks[chain.ids[-1]] == (2, 0)


# -------------------------------------------------------------------- revenue


def test_settle_returns_each_final_block_once():
    chain = _chain()
    assert chain.settle() == (0, 0)
    chain.decide(TYPE_HONEST, MINE)
    assert chain.settle() == (0, 1)
    assert chain.settle() == (0, 0)


def test_settle_forgets_forks_that_left_the_window():
    chain = _chain()
    chain.forks = {0: (1, 0), 1: (2, 0), 2: (1, 0)}
    chain.settle()
    assert set(chain.forks) == {1, 2}
    assert chain.label(TYPE_MINING)[0] == ((1, 0), (2, 0))
    chain.decide(TYPE_HONEST, MINE)
    assert chain.label(TYPE_MINING)[0] == ((0, 0), (1, 0))


def test_settled_blocks_are_the_rewarded_heights():
    chain = _chain()
    settled = [0, 0]
    for owner in [HONEST, HONEST, ADVERSARY, HONEST, ADVERSARY, ADVERSARY]:
        if owner == HONEST:
            chain.decide(TYPE_HONEST, MINE)
        else:
            chain.forks[chain.ids[-1]] = (1, 0)
            chain.decide(TYPE_ADVERSARY, ("release", 1, 1, 1))
        gained = chain.settle()
        settled = [settled[0] + gained[0], settled[1] + gained[1]]
    assert tuple(settled) == chain.rewarded_owners()
    # Heights 2 .. tip - d + 1: height 1 and the last d - 1 blocks are not counted.
    assert chain.rewarded_owners() == (2, 4)
    assert sum(chain.rewarded_owners()) == len(chain.owners) - ATTACK.depth - 1


# ---------------------------------------------------------------- greedy lead


@pytest.mark.parametrize("race_on_tie", [True, False])
def test_greedy_lead_picks_one_row_of_each_state(race_on_tie):
    mdp = _model(2, 2)
    rows = greedy_lead_rows(mdp, race_on_tie)
    np.testing.assert_array_equal(mdp.row_state[rows], np.arange(mdp.num_states))
    for state, row in enumerate(rows.tolist()):
        action = mdp.row_actions[row]
        if mdp.state_labels[state][2] == TYPE_MINING:
            assert action == MINE
        elif action != MINE:
            _, depth, _, blocks = action
            pending = mdp.state_labels[state][2] == TYPE_HONEST
            public = depth - 1 + pending
            # Just enough to win, or a tie race after an honest block.
            if blocks != public + 1:
                assert race_on_tie and pending and blocks == public


def test_racing_on_ties_changes_only_states_after_an_honest_block():
    mdp = _model(2, 2)
    racing, strict = greedy_lead_rows(mdp, True), greedy_lead_rows(mdp, False)
    changed = np.flatnonzero(racing != strict)
    assert changed.size > 0
    for state in changed.tolist():
        assert mdp.state_labels[state][2] == TYPE_HONEST
        assert mdp.row_actions[strict[state]] == MINE
        _, depth, _, blocks = mdp.row_actions[racing[state]]
        assert blocks == depth


# ------------------------------------------------------------------ couple


def test_couple_is_reproducible_per_seed():
    mdp = _model(2, 1)
    strategy = Strategy(mdp, greedy_lead_rows(mdp, race_on_tie=True))
    attack = AttackParams(depth=2, forks=1)
    first = couple(strategy, PROTOCOL, attack, steps=500, seed=7)
    assert couple(strategy, PROTOCOL, attack, steps=500, seed=7).taken == first.taken
    assert couple(strategy, PROTOCOL, attack, steps=500, seed=8).taken != first.taken


def test_couple_without_steps_takes_no_transition():
    mdp = _model(1, 1)
    strategy = Strategy(mdp, honest_strategy_rows(mdp))
    run = couple(strategy, PROTOCOL, AttackParams(depth=1, forks=1), steps=0, seed=0)
    assert run.taken == []
    assert run.rewards == run.main_chain == (0, 0)
