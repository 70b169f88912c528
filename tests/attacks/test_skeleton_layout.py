"""CSR layout invariants of explored skeletons (:class:`~repro.attacks.registry.ScenarioStructure`).

:func:`assert_csr_layout` states what every explored skeleton must look like
for :meth:`~repro.attacks.registry.ScenarioStructure.instantiate` and the
solvers to index it safely: array dtype kinds and lengths, CSR offsets rising
strictly from 0 (every state owns an action row, every row a transition),
``row_state`` agreeing with the offsets, successors and the initial state
inside the state range, known probability tags, positive multiplicities and
finite rewards.  Every support signature of every scenario is checked, and the
helper itself is checked to fire on each kind of defect, so a passing layout
test is never vacuous.
"""

from __future__ import annotations

import copy
from typing import Callable, Optional, Tuple

import numpy as np
import pytest

from repro import AttackParams, ProtocolParams
from repro.attacks import clear_structure_cache, get_model_structure
from repro.attacks.fork_state import (
    PROB_ADVERSARY,
    PROB_GAMMA,
    PROB_GAMMA_HONEST,
    PROB_HONEST,
    PROB_ONE,
    PROB_ONE_MINUS_GAMMA,
    PROB_ONE_MINUS_GAMMA_HONEST,
)
from repro.attacks.registry import ScenarioStructure

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)

#: Every symbolic probability tag ``instantiate`` refills.
PROB_KINDS = (
    PROB_ONE,
    PROB_ADVERSARY,
    PROB_HONEST,
    PROB_GAMMA,
    PROB_ONE_MINUS_GAMMA,
    PROB_GAMMA_HONEST,
    PROB_ONE_MINUS_GAMMA_HONEST,
)

#: One skeleton per scenario, with every optional array non-empty (the
#: overpaying ``sm-actions`` variant carries settlement arrays).
ATTACKS = {
    "selfish-forks": AttackParams(depth=2, forks=1, max_fork_length=4),
    "sm-actions": AttackParams(
        depth=1, forks=1, max_fork_length=4, scenario="sm-actions", variant="overpaying"
    ),
}
SCENARIOS = sorted(ATTACKS)


def _check_array(
    structure: ScenarioStructure, name: str, shape: Tuple[Optional[int], ...], kinds: str
) -> np.ndarray:
    """The array ``name``, asserted to have a dtype kind in ``kinds`` and ``shape``."""
    array = getattr(structure, name)
    assert array.dtype.kind in kinds, f"{name}: dtype {array.dtype}, expected kind {kinds!r}"
    assert array.ndim == len(shape) and all(
        want is None or got == want for got, want in zip(array.shape, shape)
    ), f"{name}: shape {array.shape}, expected {shape}"
    return array


def _assert_rising(name: str, offsets: np.ndarray, total: int) -> None:
    assert offsets[0] == 0 and offsets[-1] == total and bool((np.diff(offsets) >= 1).all()), (
        f"{name} must rise strictly from 0 to {total} "
        f"(every state needs an action row, every row a transition)"
    )


def assert_csr_layout(structure: ScenarioStructure) -> None:
    """Assert that the skeleton arrays describe one well-formed CSR model."""
    states, rows, trans = structure.num_states, structure.num_rows, structure.num_transitions
    row_state = _check_array(structure, "row_state", (rows,), "iu")
    state_rows = _check_array(structure, "state_row_offsets", (states + 1,), "iu")
    row_trans = _check_array(structure, "row_trans_offsets", (rows + 1,), "iu")
    succ = _check_array(structure, "trans_succ", (trans,), "iu")
    kind = _check_array(structure, "trans_kind", (trans,), "iu")
    sigma = _check_array(structure, "trans_sigma", (trans,), "iu")
    mult = _check_array(structure, "trans_mult", (trans,), "f")
    reward = _check_array(structure, "trans_reward", (trans, 2), "f")
    assert len(structure.row_actions) == rows, "one action label per row"
    assert 0 <= structure.initial_state < states, "initial state outside the states"
    _assert_rising("state_row_offsets", state_rows, rows)
    _assert_rising("row_trans_offsets", row_trans, trans)
    owners = np.repeat(np.arange(states), np.diff(state_rows))
    assert np.array_equal(row_state, owners), "row_state disagrees with state_row_offsets"
    assert succ.min() >= 0 and succ.max() < states, "a successor lies outside the states"
    assert np.isin(kind, PROB_KINDS).all(), "unknown probability tag in trans_kind"
    assert sigma.min() >= 0, "negative mining-target count in trans_sigma"
    assert np.isfinite(mult).all() and (mult > 0).all(), "trans_mult must be finite and positive"
    assert np.isfinite(reward).all(), "non-finite reward in trans_reward"
    if hasattr(structure, "settle_trans"):
        settle = _check_array(structure, "settle_trans", (None,), "iu")
        _check_array(structure, "settle_ah", (settle.shape[0], 2), "iu")
        assert settle.size == 0 or (
            settle.min() >= 0 and settle.max() < trans
        ), "a settlement lies outside the transitions"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


# -------------------------------------------------------------- explored skeletons


@pytest.mark.parametrize(
    "attack",
    [
        AttackParams(depth=1, forks=1, max_fork_length=4),
        AttackParams(depth=2, forks=1, max_fork_length=4),
        AttackParams(depth=1, forks=1, max_fork_length=4, scenario="sm-actions"),
        ATTACKS["sm-actions"],
    ],
    ids=["selfish-forks-d1", "selfish-forks-d2", "sm-actions-underpaying", "sm-actions-overpaying"],
)
@pytest.mark.parametrize(
    "protocol",
    [
        PROTOCOL,
        ProtocolParams(p=0.0, gamma=0.5),
        ProtocolParams(p=1.0, gamma=0.5),
        ProtocolParams(p=0.3, gamma=0.0),
        ProtocolParams(p=0.3, gamma=1.0),
    ],
    ids=["interior", "p0", "p1", "gamma0", "gamma1"],
)
def test_explored_skeletons_pass_their_layout_check(attack, protocol):
    """Every support signature's explored skeleton is a well-formed CSR model."""
    assert_csr_layout(get_model_structure(attack, protocol))


# ----------------------------------------------------------- the helper itself


def doctored(
    structure: ScenarioStructure, edit: Callable[[ScenarioStructure], None]
) -> ScenarioStructure:
    """A shallow copy of ``structure`` whose arrays are private writable copies, edited."""
    clone = copy.copy(structure)
    for name, value in vars(structure).items():
        if isinstance(value, np.ndarray):
            setattr(clone, name, np.array(value, copy=True))
    edit(clone)
    return clone


def assert_rejected(structure: ScenarioStructure, match: str) -> None:
    with pytest.raises(AssertionError, match=match):
        assert_csr_layout(structure)


def _array_cases():
    names = [
        "row_state",
        "state_row_offsets",
        "row_trans_offsets",
        "trans_succ",
        "trans_kind",
        "trans_sigma",
        "trans_mult",
        "trans_reward",
    ]
    return [
        pytest.param(scenario, name, id=f"{scenario}-{name}")
        for scenario in SCENARIOS
        for name in names + (["settle_trans", "settle_ah"] if scenario == "sm-actions" else [])
    ]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_undoctored_copy_passes(scenario):
    """The doctoring helper alone leaves a valid skeleton."""
    assert_csr_layout(doctored(get_model_structure(ATTACKS[scenario], PROTOCOL), lambda s: None))


@pytest.mark.parametrize(("scenario", "name"), _array_cases())
def test_array_one_element_short_rejected(scenario, name):
    def chop(structure):
        array = getattr(structure, name)
        assert len(array) > 0, "the case needs a non-empty array"
        setattr(structure, name, array[:-1])

    # settle_trans has no fixed length: its partner settle_ah shows the mismatch.
    match = "settle_ah" if name == "settle_trans" else name
    assert_rejected(doctored(get_model_structure(ATTACKS[scenario], PROTOCOL), chop), match)


@pytest.mark.parametrize(("scenario", "name"), _array_cases())
def test_array_of_wrong_dtype_kind_rejected(scenario, name):
    """Index arrays held as floats and float arrays held as integers."""

    def retype(structure):
        array = getattr(structure, name)
        setattr(structure, name, array.astype(np.int64 if array.dtype.kind == "f" else np.float64))

    assert_rejected(doctored(get_model_structure(ATTACKS[scenario], PROTOCOL), retype), name)


def _set(name: str, index, value):
    def edit(structure):
        getattr(structure, name)[index] = value

    return edit


def _merge_first_two_states(structure):
    # State 1 keeps no action row; state 0 absorbs both ranges.
    structure.state_row_offsets[1] = structure.state_row_offsets[2]


def _reassign_last_row(structure):
    structure.row_state[-1] = 0


def _drop_an_action_label(structure):
    structure.row_actions = structure.row_actions[:-1]


def _initial_state_past_last(structure):
    structure.initial_state = structure.num_states


VALUE_CASES = {
    "successor-past-last-state": (
        lambda s: _set("trans_succ", -1, s.num_states),
        "outside the states",
    ),
    "negative-successor": (lambda s: _set("trans_succ", 0, -1), "outside the states"),
    "row-owned-by-wrong-state": (lambda s: _reassign_last_row, "disagrees"),
    "state-without-action-row": (lambda s: _merge_first_two_states, "rise strictly"),
    "empty-transition-row": (lambda s: _set("row_trans_offsets", 1, 0), "rise strictly"),
    "row-offsets-short-of-transitions": (
        lambda s: _set("row_trans_offsets", -1, s.num_transitions - 1),
        "rise strictly",
    ),
    "unknown-probability-tag": (lambda s: _set("trans_kind", 0, 7), "probability tag"),
    "negative-sigma": (lambda s: _set("trans_sigma", 0, -1), "trans_sigma"),
    "zero-multiplicity": (lambda s: _set("trans_mult", 0, 0.0), "trans_mult"),
    "nan-multiplicity": (lambda s: _set("trans_mult", 0, np.nan), "trans_mult"),
    "infinite-reward": (lambda s: _set("trans_reward", (0, 0), np.inf), "non-finite reward"),
    "initial-state-out-of-range": (lambda s: _initial_state_past_last, "initial state"),
    "missing-action-label": (lambda s: _drop_an_action_label, "action label"),
}


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_inconsistent_skeleton_rejected(scenario, case):
    structure = get_model_structure(ATTACKS[scenario], PROTOCOL)
    make_edit, match = VALUE_CASES[case]
    assert_rejected(doctored(structure, make_edit(structure)), match)


@pytest.mark.parametrize(
    "value", [-1, "past-last"], ids=["negative", "past-last-transition"]
)
def test_settlement_outside_the_transitions_rejected(value):
    structure = get_model_structure(ATTACKS["sm-actions"], PROTOCOL)
    index = structure.num_transitions if value == "past-last" else value
    assert_rejected(
        doctored(structure, _set("settle_trans", 0, index)), "settlement lies outside"
    )
