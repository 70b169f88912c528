"""Policy iteration takes the same steps on the shipped Poisson factor as on SuperLU's default one.

:meth:`repro.mdp.MarkovChain.poisson_factor` runs SuperLU without relaxed
supernodes or panel blocking (``relax=1, panel_size=1``).  The oracle factors
the same matrix with SuperLU's default relaxation and panel size.  From the
first-action strategy at ``(p, gamma) = (0.3, 0.5)`` and ``beta = 0.5``, two
policy iterations, one on each factor, run three rounds side by side: after
every round the greedy rows must be identical and the gains equal within
1e-12.  ``tests/analysis/test_bisection.py`` checks whole searches on the
smaller models; the ``d=3,f=2`` model (133k states) runs with
``REPRO_FULL=1``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import AttackParams, ProtocolParams
from repro.analysis import beta_reward_weights
from repro.attacks import get_model_structure
from repro.mdp import Strategy, induced_markov_chain
from repro.mdp.markov_chain import row_table
from repro.mdp.policy_iteration import _greedy_improvement

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the d=3,f=2 model is large; set REPRO_FULL=1")

#: ``name: (depth, forks)``.
MODELS = {"d2f2": (2, 2), "d3f2": (3, 2)}
ROUNDS = 3


def shipped_factor(chain):
    return chain.poisson_factor()


def default_factor(chain):
    return spla.splu(chain.poisson_matrix(), permc_spec="NATURAL")


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=FULL_ONLY if name == "d3f2" else ()) for name in MODELS]
)
def test_policy_iteration_rounds_match_default_superlu(name):
    depth, forks = MODELS[name]
    protocol = ProtocolParams(p=0.3, gamma=0.5)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    mdp = get_model_structure(attack, protocol).instantiate(protocol)
    weights = beta_reward_weights(0.5)
    row_rewards = row_table(mdp).expected_rewards @ weights
    factorize = (shipped_factor, default_factor)
    rows = [Strategy.first_action(mdp).rows] * 2
    for round_index in range(ROUNDS):
        gains = []
        for side, factor in enumerate(factorize):
            chain = induced_markov_chain(mdp, Strategy(mdp, rows[side]))
            gain, bias = chain.gain_and_bias(row_rewards[rows[side]], factor=factor(chain))
            gains.append(gain)
            rows[side], _ = _greedy_improvement(mdp, row_rewards, bias, rows[side])
        assert np.array_equal(rows[0], rows[1]), round_index
        assert gains[0] == pytest.approx(gains[1], abs=1e-12), round_index
