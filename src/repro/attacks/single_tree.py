"""Single-tree selfish-mining baseline (Section 4 of the paper).

The baseline "exactly follows the classic selfish mining attack in Bitcoin
[Eyal-Sirer], however it grows a private tree fork rather than a private chain."
The paper omits its formal model; this docstring documents our interpretation,
which transplants the Eyal-Sirer publication rule onto a private tree:

* Each *round* starts at a common tip.  The adversary roots a private tree at
  that tip; the tree has depth at most ``max_depth`` (the paper's ``l``) and at
  most ``max_width`` (the paper's ``f``) nodes per level.
* At every time step the adversary mines on every extendable tree node (a node
  whose child level is not yet full) and the honest miners on the public tip;
  the probability of each outcome follows the same ``(p, k)``-mining
  normalisation as the main model.
* Publication follows the classic rule, applied to the depth of the tree (the
  length of its longest path) after every honest block.  With ``lead`` the tree
  depth minus the public-chain length measured from the fork point:

  - empty tree: the adversary abandons the round (the honest block stands);
  - ``lead >= 2``: keep mining privately;
  - ``lead == 1``: publish the longest path -- it is strictly longer than the
    public chain, so the adversary wins the whole round;
  - ``lead == 0``: publish the longest path and race; honest miners switch with
    probability ``gamma``.

* The round then ends and both sides restart from the new tip.

Every step raises ``public_length + sum(levels)`` by one, so a round visits
finitely many states and that key orders them topologically.  The reachable
states and their transitions do not depend on ``p`` or ``gamma``: they are
explored once per process and per ``(max_depth, max_width)`` into a cached,
read-only round graph (2,156 states in 23 layers at ``l=4, f=5``).  Each call
then evaluates the exact expected per-round adversarial and honest rewards over
that graph for every ``(gamma, p)`` of its grid at once, one layer at a time in
descending key order, with the same floating-point operations in the same
order as a per-state recursion at each point (the test suite keeps that
recursion, and a Monte-Carlo estimate, as oracles).  Only the round's
terminal values depend on ``gamma``, so a sweep evaluates the graph once for
all its gammas (:func:`single_tree_errev_table`).  Values are never cached.
The long-run expected relative revenue follows from the renewal-reward theorem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .._validation import check_positive_int, check_probability
from ..config import ProtocolParams

#: Within-round state: (public_blocks_since_fork, tree_level_occupancies).
_RoundState = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class SingleTreeParams:
    """Parameters of the single-tree baseline attack.

    Attributes:
        max_depth: Maximal depth of the private tree (paper: ``l = 4``).
        max_width: Maximal number of tree nodes per level (paper: ``f = 5``).
    """

    max_depth: int = 4
    max_width: int = 5

    def __post_init__(self) -> None:
        check_positive_int(self.max_depth, "max_depth")
        check_positive_int(self.max_width, "max_width")


def _tree_depth(levels: Tuple[int, ...]) -> int:
    """Depth of the private tree: deepest non-empty level."""
    depth = 0
    for index, count in enumerate(levels, start=1):
        if count > 0:
            depth = index
    return depth


def _extendable_levels(levels: Tuple[int, ...], max_width: int) -> Dict[int, int]:
    """Map from parent level (0 = root) to number of extendable parent nodes."""
    parents: Dict[int, int] = {}
    counts = (1,) + levels  # level 0 is the fork-point block (the root)
    for parent_level in range(len(levels)):
        if levels[parent_level] < max_width and counts[parent_level] > 0:
            parents[parent_level] = counts[parent_level]
    return parents


def _round_end(depth: int, public_length: int, gamma: float) -> Tuple[float, float]:
    """Expected (adversarial, honest) blocks of a round that ends after an honest block."""
    if depth == 0:
        # Empty tree: the adversary abandons the round.
        return 0.0, float(public_length)
    if depth - public_length == 1:
        # Publishing the longest path beats the public chain outright.
        return float(depth), 0.0
    # Equal length: gamma race.
    return gamma * depth, (1.0 - gamma) * public_length


@dataclass(frozen=True)
class _RoundGraph:
    """The p/gamma-independent state graph of one attack round.

    Rows ``0 .. num_states - 1`` are the round states by descending
    ``public_length + sum(levels)``, one ``layers`` slice per key, so a layer
    only reads rows of the layer before it.  An evaluation's value table adds
    one row per ``terminals`` entry and a zero row.

    Attributes:
        layers: ``(lo, hi)`` state-row slices in evaluation order.
        sigma: Number of extendable parent nodes per state.
        counts: Extendable parent nodes per state and parent level (0 = root).
        successors: Value-table row per state and outcome: one column per parent
            level (the zero row where ``counts`` is 0), the honest block last.
        terminals: ``(depth, public_length)`` of each way the round can end.
    """

    layers: Tuple[Tuple[int, int], ...]
    sigma: np.ndarray
    counts: np.ndarray
    successors: np.ndarray
    terminals: Tuple[Tuple[int, int], ...]

    @property
    def num_states(self) -> int:
        """Number of round states reachable from the empty tree."""
        return int(self.sigma.shape[0])


@functools.lru_cache(maxsize=None)
def _round_graph(max_depth: int, max_width: int) -> _RoundGraph:
    """Explore the round from the empty tree once per ``(max_depth, max_width)``."""
    # Breadth first: every transition raises the key by one, so the states
    # found from one layer form exactly the next layer.
    layers: List[List[_RoundState]] = [[(0, (0,) * max_depth)]]
    adversarial: Dict[_RoundState, List[Tuple[int, int, _RoundState]]] = {}
    honest: Dict[_RoundState, _RoundState] = {}
    ending: Dict[_RoundState, Tuple[int, int]] = {}
    while layers[-1]:
        following: Dict[_RoundState, None] = {}
        for state in layers[-1]:
            public_length, levels = state
            moves = adversarial[state] = []
            for parent_level, count in _extendable_levels(levels, max_width).items():
                new_levels = list(levels)
                new_levels[parent_level] += 1
                moves.append((parent_level, count, (public_length, tuple(new_levels))))
                following[moves[-1][2]] = None
            depth = _tree_depth(levels)
            if depth - (public_length + 1) >= 2:
                # Lead of at least 2 after the honest block: keep mining privately.
                honest[state] = (public_length + 1, levels)
                following[honest[state]] = None
            else:
                ending[state] = (depth, public_length + 1)
        layers.append(list(following))
    layers.pop()

    states = [state for layer in reversed(layers) for state in layer]
    row = {state: index for index, state in enumerate(states)}
    terminals = sorted(set(ending.values()))
    # Terminal outcomes are (int, int) pairs, so they never collide with a state.
    row.update((outcome, len(states) + index) for index, outcome in enumerate(terminals))
    counts = np.zeros((len(states), max_depth))
    # Unused parent-level slots point at the zero row, which follows the terminals.
    successors = np.full((len(states), max_depth + 1), len(row), dtype=np.intp)
    for index, state in enumerate(states):
        for parent_level, count, successor in adversarial[state]:
            counts[index, parent_level] = count
            successors[index, parent_level] = row[successor]
        successors[index, max_depth] = row[honest[state] if state in honest else ending[state]]
    bounds = np.cumsum([0] + [len(layer) for layer in reversed(layers)]).tolist()
    graph = _RoundGraph(
        layers=tuple(zip(bounds[:-1], bounds[1:])),
        sigma=counts.sum(axis=1),
        counts=counts,
        successors=successors,
        terminals=tuple(terminals),
    )
    for array in (graph.sigma, graph.counts, graph.successors):
        array.flags.writeable = False
    return graph


def _round_expectations(p: np.ndarray, gammas: Sequence[float], graph: _RoundGraph) -> np.ndarray:
    """Exact expected (adversarial, honest) finalised blocks of a round, per ``(gamma, p)``.

    Evaluates the graph layer by layer for every ``gamma`` and ``p`` at once,
    and every state with the floating-point operations of the per-state
    recursion in its order: ``den = (1 - p) + p * sigma``, then ``acc = acc +
    (p * count / den) * value`` over the parent levels in ascending order and
    the honest block last.  A full level adds ``0.0 * 0.0``; all values are
    non-negative, so ``acc + 0.0`` is ``acc`` exactly.  The transition
    probabilities do not depend on ``gamma``, only the terminal values do.  No
    reduction is used, since a reduction may reassociate, so each point gets
    the values it gets alone.  A value row is laid out ``(gamma, component,
    p)``, so the products with the probabilities run along the contiguous
    ``p`` axis.  Returns shape ``(len(gammas), len(p), 2)``.
    """
    num_states = graph.num_states
    values = np.empty((num_states + len(graph.terminals) + 1, len(gammas), 2, len(p)))
    for index, (depth, public_length) in enumerate(graph.terminals, start=num_states):
        for column, gamma in enumerate(gammas):
            values[index, column] = np.array(_round_end(depth, public_length, gamma))[:, None]
    values[-1] = 0.0

    denominator = (1.0 - p) + p * graph.sigma[:, None]
    probability = np.empty(graph.successors.shape + (len(p),))
    np.multiply(p, graph.counts[:, :, None], out=probability[:, :-1])
    probability[:, -1] = 1.0 - p
    probability /= denominator[:, None]

    for lo, hi in graph.layers:
        terms = probability[lo:hi, :, None, None, :] * values[graph.successors[lo:hi]]
        total = terms[:, 0]
        for outcome in range(1, terms.shape[1]):
            total = total + terms[:, outcome]
        values[lo:hi] = total
    # The empty tree is the only state of key 0, so it is the last state row.
    return values[num_states - 1].transpose(0, 2, 1)


def single_tree_errev_table(
    gammas: Sequence[float], p_values: Sequence[float], params: SingleTreeParams | None = None
) -> List[List[float]]:
    """Exact ERRev of the single-tree baseline at every ``(gamma, p)`` of a grid.

    One evaluation of the round graph serves the whole grid; row ``i`` holds
    the values at ``gammas[i]``, and each equals :func:`single_tree_errev` at
    its point bit for bit.  An invalid ``p`` or ``gamma`` raises for the whole
    grid.
    """
    params = params or SingleTreeParams()
    gammas = [check_probability(gamma, "gamma") for gamma in gammas]
    ps = [check_probability(p, "p") for p in p_values]
    interior = [p for p in ps if 0.0 < p < 1.0]
    rounds = (
        _round_expectations(
            np.array(interior), gammas, _round_graph(params.max_depth, params.max_width)
        ).tolist()
        if interior
        else [[] for _ in gammas]
    )
    table = []
    for gamma_rounds in rounds:
        interior_rounds = iter(gamma_rounds)
        errevs = []
        for p in ps:
            if p == 0.0 or p == 1.0:
                errevs.append(0.0 if p == 0.0 else 1.0)
                continue
            adversary, honest = next(interior_rounds)
            total = adversary + honest
            errevs.append(0.0 if total <= 0.0 else adversary / total)
        table.append(errevs)
    return table


def single_tree_errev_grid(
    gamma: float, p_values: Sequence[float], params: SingleTreeParams | None = None
) -> List[float]:
    """Exact ERRev of the single-tree baseline at every ``p`` of a grid, at one ``gamma``.

    The one-gamma row of :func:`single_tree_errev_table`.
    """
    return single_tree_errev_table([gamma], p_values, params)[0]


def single_tree_errev(protocol: ProtocolParams, params: SingleTreeParams | None = None) -> float:
    """Exact expected relative revenue of the single-tree baseline.

    Computed from per-round expectations via the renewal-reward theorem:
    ``ERRev = E[adversarial blocks per round] / E[all blocks per round]``.
    """
    return single_tree_errev_grid(protocol.gamma, [protocol.p], params)[0]
