"""The vectorised skeleton exploration equals the object-level oracle exactly.

:func:`repro.attacks.structure.build_model_structure` expands whole BFS levels
of integer state codes with numpy; :func:`explore_oracle.explore_by_objects`
walks the kernel one ``ForkState`` tuple at a time.  For every support
signature :meth:`SupportSignature.of` can produce and a spread of ``(d, f, l)``
the two must agree on every skeleton array (dtype, shape and bytes), on the
state and action labels, and on the failures they raise.  The ``d=3, f=2``
case takes the oracle about 12 s per signature and runs with ``REPRO_FULL=1``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from explore_oracle import explore_by_objects
from repro import AttackParams, ProtocolParams
from repro.attacks import (
    SupportSignature,
    build_model_structure,
    build_selfish_forks_mdp,
    clear_structure_cache,
    get_model_structure,
    initial_state,
)
from repro.attacks import SmActionsStructure, build_sm_actions_mdp, structure
from repro.attacks.registry import ScenarioStructure
from repro.attacks.structure import SelfishForksStructure, state_code, state_code_radices
from repro.exceptions import ConfigurationError

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")

#: Every signature a protocol point can have: p and gamma each at 0, inside, 1.
SIGNATURES = sorted(
    {
        SupportSignature.of(ProtocolParams(p=p, gamma=gamma))
        for p in (0.0, 0.5, 1.0)
        for gamma in (0.0, 0.5, 1.0)
    },
    key=repr,
)

FULL_ONLY = pytest.mark.skipif(not FULL, reason="the oracle takes ~12 s; set REPRO_FULL=1")

CONFIGS = [
    pytest.param(d, f, l, id=f"d{d}f{f}l{l}", marks=[FULL_ONLY] if (d, f) == (3, 2) else [])
    for d, f, l in [
        (1, 1, 4),
        (1, 2, 4),
        (2, 1, 4),
        (2, 2, 4),
        (3, 1, 4),
        (1, 1, 2),
        (2, 1, 6),
        (2, 3, 3),
        (3, 2, 4),
    ]
]


def signature_id(signature: SupportSignature) -> str:
    """``1111`` for full support; one digit per flag, in field order."""
    flags = (
        signature.adversary_mines,
        signature.honest_mines,
        signature.race_win,
        signature.race_loss,
    )
    return "".join("1" if flag else "0" for flag in flags)


def explore_or_error(explore, attack, signature, **kwargs):
    """The skeleton, or the message of the ConfigurationError raised instead."""
    try:
        return explore(attack, signature, **kwargs), None
    except ConfigurationError as exc:
        return None, str(exc)


def assert_same_skeleton(actual, expected) -> None:
    arrays = {name for name, value in vars(expected).items() if isinstance(value, np.ndarray)}
    assert arrays == {
        name for name, value in vars(actual).items() if isinstance(value, np.ndarray)
    }
    for name in sorted(arrays):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    # repr also tells a numpy integer from a Python int inside the labels.
    assert repr(actual.state_labels) == repr(expected.state_labels)
    assert repr(actual.row_actions) == repr(expected.row_actions)
    for name in ("num_states", "num_rows", "num_transitions", "initial_state"):
        assert getattr(actual, name) == getattr(expected, name), name
    assert (actual.attack, actual.signature) == (expected.attack, expected.signature)


def test_every_reachable_signature_is_covered():
    assert len(SIGNATURES) == 9


@pytest.mark.parametrize("signature", SIGNATURES, ids=signature_id)
@pytest.mark.parametrize("d,f,l", CONFIGS)
def test_explore_equals_oracle(d, f, l, signature):
    attack = AttackParams(depth=d, forks=f, max_fork_length=l)
    actual, actual_error = explore_or_error(build_model_structure, attack, signature)
    expected, expected_error = explore_or_error(explore_by_objects, attack, signature)
    assert actual_error == expected_error
    if expected is not None:
        assert_same_skeleton(actual, expected)


# ------------------------------------------------------------- failure parity


@pytest.fixture
def fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


D2F2 = AttackParams(depth=2, forks=2, max_fork_length=4)
SM_L4 = AttackParams(depth=1, forks=1, max_fork_length=4, scenario="sm-actions")
INTERIOR = ProtocolParams(p=0.3, gamma=0.5)


def test_max_states_boundary_d2f2(monkeypatch):
    signature = SupportSignature.of(INTERIOR)
    monkeypatch.setattr(structure, "DEFAULT_MAX_STATES", 2894)
    with pytest.raises(ConfigurationError, match="exceeded 2894 states"):
        build_model_structure(D2F2, signature)
    with pytest.raises(ConfigurationError, match="exceeded 2894 states"):
        explore_by_objects(D2F2, signature, max_states=2894)
    monkeypatch.setattr(structure, "DEFAULT_MAX_STATES", 2895)
    assert build_model_structure(D2F2, signature).num_states == 2895
    assert explore_by_objects(D2F2, signature, max_states=2895).num_states == 2895


def test_max_states_boundary_d2f2_through_the_cache(fresh_cache, monkeypatch):
    monkeypatch.setattr(structure, "DEFAULT_MAX_STATES", 2894)
    with pytest.raises(ConfigurationError, match="exceeded 2894 states"):
        get_model_structure(D2F2, INTERIOR)
    monkeypatch.setattr(structure, "DEFAULT_MAX_STATES", 2895)
    assert get_model_structure(D2F2, INTERIOR).num_states == 2895


def test_the_cap_is_read_at_call_time(fresh_cache, monkeypatch):
    """Each exploration reads ``DEFAULT_MAX_STATES`` when it runs, cached or not."""
    attack = AttackParams(depth=2, forks=1, max_fork_length=4)
    monkeypatch.setattr(structure, "DEFAULT_MAX_STATES", 10)
    with pytest.raises(ConfigurationError, match="exceeded 10 states"):
        get_model_structure(attack, INTERIOR)
    with pytest.raises(ConfigurationError, match="exceeded 10 states"):
        build_selfish_forks_mdp(INTERIOR, attack, use_structure_cache=False)
    with pytest.raises(ConfigurationError, match="exceeded 10 states"):
        get_model_structure(AttackParams(1, 1, 8, scenario="sm-actions"), INTERIOR)
    monkeypatch.undo()
    cached = get_model_structure(attack, INTERIOR)
    reference = build_selfish_forks_mdp(INTERIOR, attack, use_structure_cache=False).mdp
    assert cached.num_states == reference.num_states > 10


@pytest.mark.parametrize(
    "function, args",
    [
        pytest.param(function, args, id=function.__qualname__)
        for function, args in [
            (build_model_structure, (D2F2, SupportSignature.of(INTERIOR))),
            (SelfishForksStructure.explore, (D2F2, SupportSignature.of(INTERIOR))),
            (SmActionsStructure.explore, (SM_L4, SupportSignature.of(INTERIOR))),
            (ScenarioStructure.explore, (D2F2, SupportSignature.of(INTERIOR))),
            (get_model_structure, (D2F2, INTERIOR)),
            (build_selfish_forks_mdp, (INTERIOR, D2F2)),
            (build_sm_actions_mdp, (INTERIOR, SM_L4)),
        ]
    ],
)
def test_no_builder_takes_a_cap(function, args):
    """``DEFAULT_MAX_STATES`` is the one cap; no caller passes another."""
    with pytest.raises(TypeError, match="max_states"):
        function(*args, max_states=10)


def test_signature_without_mining_names_the_initial_state():
    attack = AttackParams(depth=2, forks=1, max_fork_length=4)
    signature = SupportSignature(False, False, True, True)
    _, actual = explore_or_error(build_model_structure, attack, signature)
    _, expected = explore_or_error(explore_by_objects, attack, signature)
    assert actual == expected
    assert actual.startswith(f"state {initial_state(attack)!r} has no actions")


@pytest.mark.parametrize(
    "signature",
    [SupportSignature(True, True, True, True), SupportSignature(False, False, True, True)],
    ids=signature_id,
)
@pytest.mark.parametrize("d,f", [(1, 1), (2, 1)])
def test_every_cap_fails_like_the_oracle(d, f, signature):
    """Every cap up to the full size fails (or passes) identically."""
    attack = AttackParams(depth=d, forks=f, max_fork_length=4)
    full, _ = explore_or_error(explore_by_objects, attack, signature)
    size = 1 if full is None else full.num_states
    for cap in range(0, size + 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structure, "DEFAULT_MAX_STATES", cap)
            actual, actual_error = explore_or_error(build_model_structure, attack, signature)
        _, expected_error = explore_or_error(explore_by_objects, attack, signature, max_states=cap)
        assert actual_error == expected_error, cap
        assert (actual is None) == (expected_error is not None), cap


# ------------------------------------------------------------------- codes


@pytest.mark.parametrize("d,f,l", [(1, 1, 4), (2, 2, 4), (2, 3, 3), (3, 1, 2)])
def test_state_codes_are_distinct_and_inside_the_code_space(d, f, l):
    attack = AttackParams(depth=d, forks=f, max_fork_length=l)
    structure = build_model_structure(attack, SupportSignature(True, True, True, True))
    codes = [state_code(label, attack) for label in structure.state_labels]
    assert len(set(codes)) == structure.num_states
    assert 0 <= min(codes) and max(codes) < math.prod(state_code_radices(attack))


def test_code_space_beyond_int64_is_refused():
    attack = AttackParams(depth=8, forks=8, max_fork_length=4)
    assert math.prod(state_code_radices(attack)) > 2**63
    with pytest.raises(ConfigurationError, match="do not fit in int64"):
        build_model_structure(attack, SupportSignature(True, True, True, True))
