"""Structural (graph) analysis of MDPs.

Provides reachability, maximal end component decomposition and a unichain check.
The unichain property is what justifies using the average-reward solvers in
:mod:`repro.mdp`: the paper argues (Appendix C) that every strategy of its
selfish-mining MDP induces an ergodic chain, and these utilities let the test
suite verify that claim mechanically on constructed models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

import numpy as np

from .model import MDP
from .strategy import Strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

# networkx is imported inside each function: no certified path builds a graph,
# and importing it at module level would cost every ``import repro``.


def underlying_digraph(mdp: MDP) -> nx.DiGraph:
    """Return the directed graph with an edge for every positive-probability move."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(mdp.num_states))
    for row in range(mdp.num_rows):
        state = int(mdp.row_state[row])
        start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
        for t in range(start, end):
            graph.add_edge(state, int(mdp.trans_succ[t]))
    return graph


def reachable_states(mdp: MDP, from_state: int | None = None) -> Set[int]:
    """Return the set of states reachable from ``from_state`` (default: initial)."""
    import networkx as nx

    source = mdp.initial_state if from_state is None else from_state
    graph = underlying_digraph(mdp)
    return {source} | set(nx.descendants(graph, source))


def strategy_digraph(mdp: MDP, strategy: Strategy) -> nx.DiGraph:
    """Return the directed graph of the Markov chain induced by ``strategy``."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(mdp.num_states))
    for state in range(mdp.num_states):
        row = strategy.row(state)
        start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
        for t in range(start, end):
            graph.add_edge(state, int(mdp.trans_succ[t]))
    return graph


def recurrent_classes(mdp: MDP, strategy: Strategy) -> List[Set[int]]:
    """Return the recurrent classes (bottom SCCs) of the induced Markov chain."""
    import networkx as nx

    graph = strategy_digraph(mdp, strategy)
    condensation = nx.condensation(graph)
    classes: List[Set[int]] = []
    for node in condensation.nodes:
        if condensation.out_degree(node) == 0:
            classes.append(set(condensation.nodes[node]["members"]))
    return classes


def is_unichain(mdp: MDP, strategies: List[Strategy] | None = None, samples: int = 20, seed: int = 0) -> bool:
    """Heuristically check the unichain property.

    A model is unichain if every positional strategy induces a chain with a single
    recurrent class.  Enumerating all strategies is exponential, so this check
    verifies the given ``strategies`` plus ``samples`` random strategies; it is
    intended for tests on small models, not as a proof.
    """
    rng = np.random.default_rng(seed)
    candidates = list(strategies or [])
    candidates.append(Strategy.first_action(mdp))
    for _ in range(samples):
        rows = np.empty(mdp.num_states, dtype=np.int64)
        for state in range(mdp.num_states):
            start, end = int(mdp.state_row_offsets[state]), int(mdp.state_row_offsets[state + 1])
            rows[state] = rng.integers(start, end)
        candidates.append(Strategy(mdp, rows))
    return all(len(recurrent_classes(mdp, strategy)) == 1 for strategy in candidates)


def end_components(mdp: MDP) -> List[Set[int]]:
    """Return the maximal end components (MECs) of the MDP.

    Implementation: iteratively decompose into SCCs of the underlying graph and
    remove state-action pairs that can leave their SCC, until a fixed point.
    """
    import networkx as nx

    # Start with every state keeping every action row.
    remaining_rows = {row for row in range(mdp.num_rows)}
    states = set(range(mdp.num_states))
    while True:
        graph = nx.DiGraph()
        graph.add_nodes_from(states)
        for row in remaining_rows:
            state = int(mdp.row_state[row])
            start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
            for t in range(start, end):
                graph.add_edge(state, int(mdp.trans_succ[t]))
        component_of = {}
        components = list(nx.strongly_connected_components(graph))
        for index, component in enumerate(components):
            for node in component:
                component_of[node] = index
        removed_any = False
        for row in list(remaining_rows):
            state = int(mdp.row_state[row])
            start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
            for t in range(start, end):
                succ = int(mdp.trans_succ[t])
                if component_of.get(succ) != component_of.get(state):
                    remaining_rows.discard(row)
                    removed_any = True
                    break
        if not removed_any:
            break
    states_with_rows = {int(mdp.row_state[row]) for row in remaining_rows}
    graph = nx.DiGraph()
    graph.add_nodes_from(states_with_rows)
    for row in remaining_rows:
        state = int(mdp.row_state[row])
        start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
        for t in range(start, end):
            succ = int(mdp.trans_succ[t])
            if succ in states_with_rows:
                graph.add_edge(state, succ)
    return [set(component) for component in nx.strongly_connected_components(graph) if component]
