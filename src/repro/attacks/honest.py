"""Honest-mining baseline.

When the adversarial coalition follows the protocol it only extends the tip of
the public chain and publishes every block immediately, so every new block is
adversarial with probability exactly ``p`` and the expected relative revenue is
``p`` (chain quality ``1 - p``).  That closed form is the "honest mining" curve
of the paper's Figure 2.

Two in-MDP strategies are provided for testing and comparison purposes:

* the *never-release* strategy (always ``mine``): the adversary keeps everything
  private forever, so its ERRev inside the MDP is 0 -- a useful degenerate
  reference, not an emulation of honest behaviour;
* the *immediate-release* strategy: after privately finding a block on the tip
  the adversary publishes it right away.  For ``d = f = 1`` this reproduces
  honest mining exactly (ERRev = ``p``), which the test suite verifies.
"""

from __future__ import annotations

import numpy as np

from ..config import ProtocolParams
from ..mdp import MDP, Strategy
from .fork_state import TYPE_ADVERSARY


def honest_errev(protocol: ProtocolParams) -> float:
    """Expected relative revenue of honest mining: exactly ``p``."""
    return protocol.p


def honest_strategy_rows(mdp: MDP) -> np.ndarray:
    """Row choices of the never-release strategy inside a selfish-mining MDP."""
    rows = mdp.first_row_choice()
    mine_label = ("mine",)
    for state in range(mdp.num_states):
        rows[state] = mdp.row_index(state, mine_label)
    return rows


def honest_strategy(mdp: MDP) -> Strategy:
    """Return the never-release strategy as a :class:`~repro.mdp.Strategy`."""
    return Strategy(mdp, honest_strategy_rows(mdp))


def immediate_release_strategy(mdp: MDP) -> Strategy:
    """Strategy that publishes the tip fork immediately after mining on it.

    In every ``TYPE_ADVERSARY`` state whose first tip fork is non-empty the
    strategy releases that whole fork (``release(1, 1, C[1,1])``); everywhere
    else it mines.  For ``d = f = 1`` this is exactly honest mining.
    """
    rows = mdp.first_row_choice()
    mine_label = ("mine",)
    for state in range(mdp.num_states):
        label = mdp.state_labels[state]
        c_matrix, _, state_type = label
        release_label = ("release", 1, 1, c_matrix[0][0])
        if state_type == TYPE_ADVERSARY and c_matrix[0][0] > 0:
            try:
                rows[state] = mdp.row_index(state, release_label)
                continue
            except Exception:  # pragma: no cover - release not available
                pass
        rows[state] = mdp.row_index(state, mine_label)
    return Strategy(mdp, rows)
