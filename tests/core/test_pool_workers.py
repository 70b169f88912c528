"""Tests of how sweep workers get their skeletons (:func:`repro.core.execution.pool_kwargs`).

The pool initializer, :func:`repro.attacks.structure.replace_structure_cache`,
receives the parent's skeletons as objects: fork-started workers inherit them,
spawn-started workers unpickle them.  Three contracts are exercised: a pickle
round trip reproduces every skeleton exactly, a cached skeleton is read-only in
the parent and in every worker, and workers install the skeletons without ever
exploring.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig
from repro.attacks import (
    clear_structure_cache,
    get_model_structure,
    structure_cache_stats,
)
from repro.attacks.registry import ScenarioStructure
from repro.attacks.structure import replace_structure_cache
from repro.core import execute_sweep
from repro.exceptions import ModelError
from repro.mdp import Strategy, induced_markov_chain

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)
ATTACK = AttackParams(depth=2, forks=1, max_fork_length=4)

#: One skeleton family per scenario and regime; the overpaying ``sm-actions``
#: variant carries non-empty settlement arrays.
ATTACKS = {
    "selfish-forks-d1": AttackParams(depth=1, forks=1, max_fork_length=4),
    "selfish-forks-d2": ATTACK,
    "sm-actions-underpaying": AttackParams(
        depth=1, forks=1, max_fork_length=4, scenario="sm-actions"
    ),
    "sm-actions-overpaying": AttackParams(
        depth=1, forks=1, max_fork_length=4, scenario="sm-actions", variant="overpaying"
    ),
}

#: One protocol point per support signature: the interior and the four boundaries.
SUPPORTS = {
    "interior": PROTOCOL,
    "p0": ProtocolParams(p=0.0, gamma=0.5),
    "p1": ProtocolParams(p=1.0, gamma=0.5),
    "gamma0": ProtocolParams(p=0.3, gamma=0.0),
    "gamma1": ProtocolParams(p=0.3, gamma=1.0),
}

#: Every numeric array of a skeleton, per scenario.
BASE_ARRAYS = (
    "row_state",
    "state_row_offsets",
    "row_trans_offsets",
    "trans_succ",
    "trans_kind",
    "trans_sigma",
    "trans_mult",
    "trans_reward",
    "_trans_row",
)
ARRAYS = {
    "selfish-forks-d2": BASE_ARRAYS,
    "sm-actions-overpaying": BASE_ARRAYS + ("settle_trans", "settle_ah"),
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


def numeric_arrays(structure: ScenarioStructure) -> dict:
    """Every numpy array attribute of ``structure``, by name."""
    return {
        name: value for name, value in vars(structure).items() if isinstance(value, np.ndarray)
    }


def assert_structures_identical(left: ScenarioStructure, right: ScenarioStructure) -> None:
    assert type(left) is type(right)
    assert left.attack == right.attack
    assert left.signature == right.signature
    assert left.initial_state == right.initial_state
    assert left.state_labels == right.state_labels
    assert left.row_actions == right.row_actions
    left_arrays, right_arrays = numeric_arrays(left), numeric_arrays(right)
    assert sorted(left_arrays) == sorted(right_arrays)
    for name, array in left_arrays.items():
        assert array.dtype == right_arrays[name].dtype, name
        assert np.array_equal(array, right_arrays[name]), name


def refill(structure: ScenarioStructure, protocol: ProtocolParams):
    """``(trans_prob, trans_reward)`` at ``protocol``, or the refusal message."""
    try:
        mdp = structure.instantiate(protocol)
    except ModelError as exc:  # the overpaying settlement diverges at p >= 0.5
        return str(exc)
    return mdp.trans_prob, mdp.trans_reward


def assert_same_refill(left: ScenarioStructure, right: ScenarioStructure, protocol) -> None:
    expected, actual = refill(left, protocol), refill(right, protocol)
    if isinstance(expected, str):
        assert actual == expected
        return
    for want, got in zip(expected, actual):
        assert want.dtype == got.dtype
        assert np.array_equal(want, got)


def assert_read_only(array: np.ndarray) -> None:
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 0


# ------------------------------------------------------------- pickle round trip


@pytest.mark.parametrize("support", sorted(SUPPORTS))
@pytest.mark.parametrize("family", sorted(ATTACKS))
def test_pickle_round_trip_is_exact(family, support):
    """What a spawn-started worker unpickles is the parent's skeleton, exactly."""
    protocol = SUPPORTS[support]
    structure = get_model_structure(ATTACKS[family], protocol)
    copy = pickle.loads(pickle.dumps(structure))
    assert_structures_identical(structure, copy)
    assert_same_refill(structure, copy, protocol)


# --------------------------------------------------------------------- read-only


def _array_cases():
    return [
        pytest.param(family, name, id=f"{family}-{name.lstrip('_')}")
        for family, names in ARRAYS.items()
        for name in names
    ]


@pytest.mark.parametrize("family", sorted(ARRAYS))
def test_array_lists_cover_every_numeric_array(family):
    """A new skeleton array is covered by the read-only cases below by construction."""
    structure = get_model_structure(ATTACKS[family], PROTOCOL)
    assert sorted(numeric_arrays(structure)) == sorted(ARRAYS[family])
    assert all(array.size for array in numeric_arrays(structure).values())


@pytest.mark.parametrize(("family", "name"), _array_cases())
def test_explored_skeleton_is_read_only(family, name):
    """``get_model_structure`` freezes what it explores before caching it."""
    assert_read_only(getattr(get_model_structure(ATTACKS[family], PROTOCOL), name))


@pytest.mark.parametrize(("family", "name"), _array_cases())
def test_installed_skeleton_is_read_only(family, name):
    """The pool initializer freezes unpickled copies, whose flag pickle dropped.

    Protocol 4 is what multiprocessing pickles with for spawn-started workers.
    """
    structure = get_model_structure(ATTACKS[family], PROTOCOL)
    copy = pickle.loads(pickle.dumps(structure, protocol=4))
    assert getattr(copy, name).flags.writeable
    replace_structure_cache([copy])
    assert get_model_structure(ATTACKS[family], PROTOCOL) is copy
    assert_read_only(getattr(copy, name))


def test_installed_column_order_is_shared_and_read_only():
    """A skeleton's Poisson column order and template travel with it, frozen like its arrays."""
    structure = get_model_structure(ATTACK, PROTOCOL)
    mdp = structure.instantiate(PROTOCOL)
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    chain.poisson_factor()
    rank = chain.column_rank()
    assert rank is structure.column_order.rank
    order = structure.column_order
    for array in (order.rank, *order.template):
        assert_read_only(array)
    copy = pickle.loads(pickle.dumps(structure, protocol=4))
    assert copy.column_order.rank.flags.writeable
    assert all(array.flags.writeable for array in copy.column_order.template)
    replace_structure_cache([copy])
    for array in (copy.column_order.rank, *copy.column_order.template):
        assert_read_only(array)
    assert np.array_equal(copy.column_order.rank, rank)
    for got, want in zip(copy.column_order.template, order.template):
        assert np.array_equal(got, want)
    assert copy.instantiate(PROTOCOL).column_order is copy.column_order


def test_models_share_the_frozen_arrays():
    """A write through one instantiated model cannot corrupt later grid points."""
    structure = get_model_structure(ATTACK, PROTOCOL)
    mdp = structure.instantiate(PROTOCOL)
    assert mdp.trans_succ is structure.trans_succ
    assert_read_only(mdp.trans_succ)
    assert_read_only(mdp.trans_reward)
    # The refilled probabilities belong to the model alone.
    assert mdp.trans_prob.flags.writeable


# ---------------------------------------------------------------------- install


def test_install_replaces_cache_without_building():
    structures = [
        get_model_structure(AttackParams(1, 1, 4), PROTOCOL),
        get_model_structure(ATTACK, PROTOCOL),
    ]
    get_model_structure(AttackParams(3, 1, 4), PROTOCOL)
    assert structure_cache_stats()["builds"] == 3
    replace_structure_cache(pickle.loads(pickle.dumps(structures)))
    stats = structure_cache_stats()
    assert (stats["builds"], stats["attaches"], stats["entries"]) == (0, 2, 2)
    get_model_structure(ATTACK, PROTOCOL)
    assert structure_cache_stats()["builds"] == 0


# ------------------------------------------------------------------ pool workers


def report_attack_arrays():
    """Worker-side probe: flags of the cached attack skeleton, and whether writes fail.

    Must stay at module top level so the pool can pickle it by reference.
    """
    structure = get_model_structure(ATTACK, PROTOCOL)
    refused = []
    for array in (structure.trans_succ, structure.trans_reward):
        try:
            array[(0,) * array.ndim] = 0
        except ValueError:
            refused.append(True)
        else:
            refused.append(False)
    return (
        structure.trans_succ.flags.writeable,
        structure.trans_reward.flags.writeable,
        refused,
        structure_cache_stats()["builds"],
    )


def sweep_grid(**kwargs) -> SweepConfig:
    return SweepConfig(
        p_values=(0.1, 0.3),
        gammas=(0.5,),
        attack_configs=(AttackParams(1, 1, 4), ATTACK),
        analysis=AnalysisConfig(epsilon=1e-2),
        **kwargs,
    )


def parent_skeletons() -> list:
    return [get_model_structure(attack, PROTOCOL) for attack in sweep_grid().attack_configs]


def point_values(result) -> list:
    return [(p.p, p.gamma, p.series, p.errev, p.beta_low, p.beta_up) for p in result.points]


def _pool(start_method: str, structures, workers: int) -> ProcessPoolExecutor:
    """A pool wired like a sweep's: the skeletons go to the initializer."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(start_method),
        initializer=replace_structure_cache,
        initargs=(structures,),
    )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_skeletons_are_read_only(start_method):
    """Fork workers see the inherited frozen objects, spawn workers re-freeze."""
    with _pool(start_method, parent_skeletons(), 2) as pool:
        reports = [pool.submit(report_attack_arrays).result() for _ in range(4)]
    assert report_attack_arrays()[:3] == (False, False, [True, True])
    assert all(report == (False, False, [True, True], 0) for report in reports)


def test_spawn_workers_install_without_building():
    """Acceptance: spawn workers at >= 4 parallelism perform zero builds.

    The parent built the skeletons once; every worker only installed them.
    """
    structures = parent_skeletons()
    with _pool("spawn", structures, 4) as pool:
        stats = [
            future.result() for future in [pool.submit(structure_cache_stats) for _ in range(8)]
        ]
    assert stats
    for worker_stats in stats:
        assert worker_stats["builds"] == 0
        assert worker_stats["attaches"] == len(structures)
        assert worker_stats["entries"] == len(structures)


def test_spawn_sweep_matches_serial(monkeypatch):
    serial = execute_sweep(sweep_grid(workers=1))
    monkeypatch.setenv("REPRO_TEST_START_METHOD", "spawn")
    spawned = execute_sweep(sweep_grid(workers=4))
    assert not spawned.failures
    assert point_values(spawned) == point_values(serial)


def test_invalid_start_method_override_raises(monkeypatch):
    """A typo in REPRO_TEST_START_METHOD must fail loudly, not run fork."""
    monkeypatch.setenv("REPRO_TEST_START_METHOD", "spwan")
    with pytest.raises(ValueError, match="REPRO_TEST_START_METHOD"):
        execute_sweep(sweep_grid(workers=2))
