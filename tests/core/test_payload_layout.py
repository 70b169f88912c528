"""Layout checks of decoded skeletons (:meth:`ScenarioStructure.check_layout`).

The structure payload crosses a process boundary, so a payload whose header
and directory are well formed can still carry arrays that do not describe a
model: a missing or extra buffer, an array one element short, an index array
sent as floats, a successor past the last state, an empty action row.  Every
such payload must be refused by :func:`unpack_structures` with a clean
:class:`~repro.exceptions.ModelError` -- before any worker instantiates the
skeleton and fails with an ``IndexError`` inside a sweep, or worse, solves a
different model.

The cases are generated per scenario and per buffer key, so a new scenario or
a new buffer is covered by construction.  The control cases pin the other
side: every explored skeleton passes its own check, and the doctoring helper
leaves an undoctored payload valid.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
import pytest

from repro import AttackParams, ProtocolParams
from repro.attacks import clear_structure_cache, get_model_structure, structure_cache_stats
from repro.attacks.registry import ScenarioStructure, get_attack
from repro.core.shared_structures import (
    install_structure_payload,
    pack_structures,
    unpack_structures,
)
from repro.exceptions import ModelError

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)

#: One skeleton per scenario, with every optional array non-empty (the
#: overpaying ``sm-actions`` variant carries settlement arrays).
ATTACKS = {
    "selfish-forks": AttackParams(depth=2, forks=1, max_fork_length=4),
    "sm-actions": AttackParams(
        depth=1, forks=1, max_fork_length=4, scenario="sm-actions", variant="overpaying"
    ),
}
SCENARIOS = sorted(ATTACKS)


def _buffer_cases():
    return [
        pytest.param(scenario, key, id=f"{scenario}-{key}")
        for scenario in SCENARIOS
        for key in get_attack(scenario).structure_cls.BUFFER_KEYS
    ]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


def _skeleton(scenario: str) -> ScenarioStructure:
    return get_model_structure(ATTACKS[scenario], PROTOCOL)


class _Doctored:
    """Stand-in that :func:`pack_structures` serialises like a real skeleton."""

    BUFFER_KEYS: tuple = ()

    def __init__(self, scenario_id: str, buffers: Dict[str, np.ndarray]) -> None:
        self.scenario_id = scenario_id
        self._buffers = buffers

    def to_buffers(self) -> Dict[str, np.ndarray]:
        return self._buffers


def doctored_payload(
    structure: ScenarioStructure, edit: Callable[[Dict[str, np.ndarray]], None]
) -> bytes:
    """Pack ``structure`` after ``edit`` changed a private copy of its buffers.

    The header and directory stay consistent with the edited arrays, so only
    the skeleton itself is malformed.
    """
    buffers = {key: np.array(array, copy=True) for key, array in structure.to_buffers().items()}
    edit(buffers)
    stand_in = type("Doctored", (_Doctored,), {"BUFFER_KEYS": tuple(buffers)})
    return pack_structures([stand_in(structure.scenario_id, buffers)])


def assert_refused(payload: bytes, match: str = "malformed") -> None:
    """``payload`` raises a clean ModelError (never a raw decoding error)."""
    with pytest.raises(ModelError, match=match) as excinfo:
        unpack_structures(payload)
    assert not isinstance(excinfo.value, (IndexError, ValueError, TypeError))


# ------------------------------------------------------------------- controls


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
    """No false refusals: every support signature's skeleton is accepted."""
    structure = get_model_structure(attack, protocol)
    structure.check_layout()
    (restored,) = unpack_structures(pack_structures([structure]))
    assert restored.num_transitions == structure.num_transitions


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_undoctored_payload_round_trips(scenario):
    """The doctoring helper itself produces a valid payload."""
    structure = _skeleton(scenario)
    (restored,) = unpack_structures(doctored_payload(structure, lambda buffers: None))
    assert type(restored) is type(structure)
    assert restored.state_labels == structure.state_labels
    assert np.array_equal(
        restored.instantiate(PROTOCOL).trans_prob, structure.instantiate(PROTOCOL).trans_prob
    )


# ------------------------------------------------------------- per buffer key


@pytest.mark.parametrize(("scenario", "key"), _buffer_cases())
def test_missing_buffer_refused(scenario, key):
    payload = doctored_payload(_skeleton(scenario), lambda buffers: buffers.pop(key))
    assert_refused(payload, f"lacks buffers \\['{key}'\\]")


@pytest.mark.parametrize(("scenario", "key"), _buffer_cases())
def test_buffer_one_element_short_refused(scenario, key):
    def chop(buffers):
        assert len(buffers[key]) > 0, "the case needs a non-empty buffer"
        buffers[key] = buffers[key][:-1]

    assert_refused(doctored_payload(_skeleton(scenario), chop))


@pytest.mark.parametrize(("scenario", "key"), _buffer_cases())
def test_buffer_of_wrong_dtype_kind_refused(scenario, key):
    """Index arrays sent as floats and float arrays sent as integers."""

    def retype(buffers):
        array = buffers[key]
        buffers[key] = array.astype(np.int64 if array.dtype.kind == "f" else np.float64)

    assert_refused(doctored_payload(_skeleton(scenario), retype))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_unexpected_buffer_refused(scenario):
    def add(buffers):
        buffers["bogus"] = np.zeros(3, dtype=np.int64)

    assert_refused(
        doctored_payload(_skeleton(scenario), add), "unexpected buffers \\['bogus'\\]"
    )


# --------------------------------------------------------- inconsistent values


def _set(key: str, index, value):
    def edit(buffers):
        buffers[key][index] = value

    return edit


def _merge_first_two_states(buffers):
    # State 1 keeps no action row; state 0 absorbs both ranges.
    buffers["state_row_offsets"][1] = buffers["state_row_offsets"][2]


def _reassign_last_row(buffers):
    buffers["row_state"][-1] = 0


def _unknown_action(buffers):
    actions = buffers["row_actions"]
    if actions.ndim == 2:  # selfish-forks: (tag, i, j, k), tag 0 = mine, 1 = release
        actions[0, 0] = 2
    else:  # sm-actions: one code per row
        actions[0] = actions.max() + 1


VALUE_CASES = {
    "successor-past-last-state": (
        lambda s: _set("trans_succ", -1, s.num_states),
        "outside the",
    ),
    "negative-successor": (lambda s: _set("trans_succ", 0, -1), "outside the"),
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
    "initial-state-out-of-range": (
        lambda s: _set("header", -1, s.num_states),
        "initial state",
    ),
    "unknown-action": (lambda s: _unknown_action, "unknown action"),
}


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_inconsistent_skeleton_refused(scenario, case):
    structure = _skeleton(scenario)
    make_edit, match = VALUE_CASES[case]
    assert_refused(doctored_payload(structure, make_edit(structure)), match)


@pytest.mark.parametrize(
    "value", [-1, "past-last"], ids=["negative", "past-last-transition"]
)
def test_settlement_outside_the_transitions_refused(value):
    structure = _skeleton("sm-actions")
    index = structure.num_transitions if value == "past-last" else value
    assert_refused(
        doctored_payload(structure, _set("settle_trans", 0, index)), "settlement lies outside"
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_install_refuses_inconsistent_skeleton_and_keeps_cache(scenario):
    """The worker install path refuses before swapping the cache."""
    structure = _skeleton(scenario)
    payload = doctored_payload(structure, _set("trans_succ", 0, structure.num_states))
    before = structure_cache_stats()
    with pytest.raises(ModelError, match="outside the"):
        install_structure_payload(payload)
    assert structure_cache_stats() == before
