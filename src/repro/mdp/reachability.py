"""Exact structural (graph) analysis of MDPs.

Theorem 3.1 needs every strategy of the model to induce a chain with a single
recurrent class.  Deciding that in general is NP-hard (Tsitsiklis, "NP-hardness
of checking the unichain condition in average cost MDPs", Oper. Res. Lett.
2007), so :func:`unavoidable_state` decides a polynomial sufficient condition
exactly: some state is reached almost surely from every state under every
strategy.  Then every strategy's chain has exactly one recurrent class, and it
contains that state.

Every function works in whole arrays over the model's own CSR layout, with one
graph edge per positive-probability transition, through
:mod:`scipy.sparse.csgraph`.  That module is imported inside the functions: no
certified path builds a graph, and ``import repro`` must not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple

import numpy as np

from .model import MDP

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp


def _edges(mdp: MDP) -> Tuple[np.ndarray, np.ndarray]:
    """Return the source row and the successor of every positive-probability transition."""
    trans_row = np.repeat(np.arange(mdp.num_rows), np.diff(mdp.row_trans_offsets))
    positive = mdp.trans_prob > 0.0
    return trans_row[positive], mdp.trans_succ[positive]


def _state_graph(mdp: MDP, rows: np.ndarray, succ: np.ndarray) -> "sp.csr_matrix":
    """Return the state graph of the given edges, one entry per distinct edge.

    Rows are stored state by state, so the edges' source states never
    decrease and the CSR row pointer follows from a count.  Parallel edges
    are merged: ``connected_components(connection="strong")`` did not
    terminate on a graph with duplicate entries (scipy 1.17).
    """
    import scipy.sparse as sp

    counts = np.bincount(mdp.row_state[rows], minlength=mdp.num_states)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    shape = (mdp.num_states, mdp.num_states)
    graph = sp.csr_matrix((np.ones(succ.size), succ, indptr), shape=shape)
    graph.sum_duplicates()
    return graph


def _end_component_labels(
    mdp: MDP, rows: np.ndarray, succ: np.ndarray, row_alive: np.ndarray
) -> np.ndarray:
    """Return each state's maximal-end-component label among the ``row_alive`` rows, -1 outside.

    Repeatedly splits the graph of the live rows into SCCs and kills every row
    with a successor outside its state's SCC, until no row leaves.  The SCCs
    of the states that keep a row are then the maximal end components.
    ``row_alive`` is pruned in place.
    """
    from scipy.sparse.csgraph import connected_components

    while True:
        live = row_alive[rows]
        rows, succ = rows[live], succ[live]
        _, labels = connected_components(
            _state_graph(mdp, rows, succ), directed=True, connection="strong"
        )
        leaving = labels[mdp.row_state[rows]] != labels[succ]
        if not leaving.any():
            break
        row_alive[rows[leaving]] = False
    in_component = np.zeros(mdp.num_states, dtype=bool)
    in_component[mdp.row_state[row_alive]] = True
    return np.where(in_component, labels, -1)


def reachable_states(mdp: MDP, from_state: int | None = None) -> Set[int]:
    """Return the set of states reachable from ``from_state`` (default: initial)."""
    from scipy.sparse.csgraph import breadth_first_order

    source = mdp.initial_state if from_state is None else from_state
    graph = _state_graph(mdp, *_edges(mdp))
    return set(breadth_first_order(graph, source, return_predecessors=False).tolist())


def end_components(mdp: MDP) -> List[Set[int]]:
    """Return the maximal end components (MECs) of the MDP, as sets of states."""
    rows, succ = _edges(mdp)
    labels = _end_component_labels(mdp, rows, succ, np.ones(mdp.num_rows, dtype=bool))
    members = np.flatnonzero(labels >= 0)
    members = members[np.argsort(labels[members], kind="stable")]
    groups = np.split(members, np.flatnonzero(np.diff(labels[members])) + 1)
    return [set(group.tolist()) for group in groups if group.size]


def unavoidable_state(mdp: MDP) -> Optional[int]:
    """Return a state reached almost surely from every state under every strategy, or None.

    A state ``s`` is unavoidable exactly when no end component is left after
    deleting ``s`` and every row with successor ``s``: otherwise a strategy
    could stay in that component forever.  The initial state is tried first.
    An unavoidable state lies in every end component, so each failed try
    narrows the candidates to the states of the end component it found; two
    disjoint ones leave no candidate.  The smallest candidate left is tried
    next, so at most ``num_states`` end-component decompositions run.

    If a state is returned, every strategy induces a chain with exactly one
    recurrent class, which contains it (the model is unichain).  ``None``
    means that every state is avoided forever by some positional strategy.
    """
    rows, succ = _edges(mdp)
    candidates = np.ones(mdp.num_states, dtype=bool)
    state = mdp.initial_state
    while True:
        # Without its rows the state is a sink, so the first pruning round also
        # deletes every row that can move to it.
        row_alive = np.ones(mdp.num_rows, dtype=bool)
        row_alive[mdp.state_row_offsets[state] : mdp.state_row_offsets[state + 1]] = False
        labels = _end_component_labels(mdp, rows, succ, row_alive)
        found = np.unique(labels[labels >= 0])
        if found.size == 0:
            return state
        if found.size > 1:
            return None
        candidates &= labels == found[0]
        if not candidates.any():
            return None
        state = int(np.flatnonzero(candidates)[0])
