"""Cached structural skeletons of the multi-fork selfish-mining MDP.

For fixed attack parameters ``(d, f, l)`` the reachable state set, the per-state
action sets and the successor lists of the selfish-mining MDP do not depend on
the numeric protocol parameters ``(p, gamma)`` -- only the transition
probabilities do, and those only through a handful of closed forms (see the
``PROB_*`` tags in :mod:`repro.attacks.fork_state`).  The sole structural
influence of ``(p, gamma)`` is the *support*: at the boundary values ``p = 0``,
``p = 1``, ``gamma = 0`` and ``gamma = 1`` some symbolic branches have
probability zero and are pruned from the reachable fragment.

This module therefore splits model construction into

1. a :class:`SelfishForksStructure` -- the breadth-first exploration of the
   reachable fragment for one ``(d, f, l)`` and one :class:`SupportSignature`,
   stored as flat arrays of successors, probability tags and constant rewards
   (the expensive part; states are int64 codes and whole BFS levels are
   expanded with numpy, see :func:`build_model_structure`), and
2. :meth:`SelfishForksStructure.instantiate` -- a cheap, fully vectorised refill
   of the probability array for a concrete ``(p, gamma)``.

Structures are memoised in a process-local cache so that a parameter sweep pays
the exploration cost once per ``(attack, signature)`` instead of once per grid
point.  Sweep worker processes never explore at all: the parent builds each
skeleton once and hands the objects to every pool worker, which installs them
into this cache in its initializer (:func:`replace_structure_cache`).  The
cache keeps separate ``builds`` / ``attaches`` counters so tests can assert
that workers performed zero explorations.  Cached skeletons are shared by every
model instantiated from them, so their numeric arrays are frozen (read-only)
the moment they enter the cache.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from ..config import AttackParams, ProtocolParams
from ..exceptions import ConfigurationError
from . import fork_state
from .fork_state import (
    ADVERSARY,
    PROB_ADVERSARY,
    PROB_GAMMA,
    PROB_HONEST,
    PROB_ONE,
    PROB_ONE_MINUS_GAMMA,
    PROB_ONE_MINUS_GAMMA_HONEST,
    TYPE_ADVERSARY,
    TYPE_HONEST,
    TYPE_MINING,
    ForkState,
    MineAction,
    ReleaseAction,
    action_label,
)
from .registry import ScenarioStructure, SupportSignature, get_attack

#: Hard cap on the number of states explored; prevents accidental explosion when
#: a user requests an enormous configuration.  Every exploration reads it at
#: call time.
DEFAULT_MAX_STATES = 20_000_000


def exceeded_cap() -> ConfigurationError:
    """The error of an exploration that met more than :data:`DEFAULT_MAX_STATES` states."""
    return ConfigurationError(
        f"state-space exploration exceeded {DEFAULT_MAX_STATES} states; reduce d, f or l"
    )


class SelfishForksStructure(ScenarioStructure):
    """Multi-fork selfish mining: the paper's ``(d, f, l)`` attack family.

    Holds the reachable states, the per-state action rows and, per transition,
    the successor index, the symbolic probability tag and the constant reward
    vector.  :meth:`~repro.attacks.registry.ScenarioStructure.instantiate`
    turns the skeleton into a concrete :class:`~repro.mdp.MDP` for one
    parameter point by refilling only the probability array.
    """

    SCENARIO_NAME = "selfish-forks"
    SCENARIO_VERSION = 1

    # --------------------------------------------------------------- scenario API

    @classmethod
    def explore(cls, attack: AttackParams, signature: SupportSignature) -> "SelfishForksStructure":
        """Breadth-first exploration (see :func:`build_model_structure`)."""
        return build_model_structure(attack, signature)

    @classmethod
    def series_name(cls, attack: AttackParams) -> str:
        """Sweep series label, e.g. ``ours(d=2,f=1)``."""
        return f"ours(d={attack.depth},f={attack.forks})"

    @classmethod
    def grid_configs(cls, spec: str = "default") -> Tuple[AttackParams, ...]:
        """Parse a selfish-forks grid specification.

        Accepted forms: ``"default"`` (the d<=2 CLI default), ``"paper"``
        (Table 1 / Figure 2 configurations), ``"max-depth=N"`` (the depth
        ladder: ``d1f1``, then ``d2f1`` from N=2, ``d2f2`` from N=3) and
        comma-separated ``dXfY[lZ]`` tokens
        (``l`` defaults to 4), e.g. ``"d1f1,d2f2l6"``.

        Raises:
            ConfigurationError: On an unparseable specification.
        """
        text = (spec or "default").strip()
        if text == "default":
            return (
                AttackParams(depth=1, forks=1, max_fork_length=4),
                AttackParams(depth=2, forks=1, max_fork_length=4),
            )
        if text == "paper":
            from ..config import PAPER_ATTACK_CONFIGS

            return PAPER_ATTACK_CONFIGS
        if text.startswith("max-depth="):
            try:
                max_depth = int(text.split("=", 1)[1])
            except ValueError as exc:
                raise ConfigurationError(f"invalid grid spec {spec!r}") from exc
            if max_depth < 1:
                raise ConfigurationError(f"max-depth must be >= 1, got {max_depth}")
            configs = [AttackParams(depth=1, forks=1, max_fork_length=4)]
            if max_depth >= 2:
                configs.append(AttackParams(depth=2, forks=1, max_fork_length=4))
            if max_depth >= 3:
                configs.append(AttackParams(depth=2, forks=2, max_fork_length=4))
            return tuple(configs)
        configs = []
        for token in text.split(","):
            match = re.fullmatch(r"d(\d+)f(\d+)(?:l(\d+))?", token.strip())
            if match is None:
                raise ConfigurationError(
                    f"invalid selfish-forks grid token {token.strip()!r} "
                    f"(expected dXfY[lZ], 'default', 'paper' or 'max-depth=N')"
                )
            configs.append(
                AttackParams(
                    depth=int(match.group(1)),
                    forks=int(match.group(2)),
                    max_fork_length=int(match.group(3) or 4),
                )
            )
        return tuple(configs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SelfishForksStructure(d={self.attack.depth}, f={self.attack.forks}, "
            f"l={self.attack.max_fork_length}, states={self.num_states}, "
            f"rows={self.num_rows}, transitions={self.num_transitions})"
        )


# ------------------------------------------------------------------ state codes


def state_code_radices(attack: AttackParams) -> Tuple[int, ...]:
    """Mixed radices of a state code, most significant digit first.

    A code packs the ``d*f`` fork lengths ``C`` row by row (base ``l + 1``),
    the ``d - 1`` ownership flags ``O`` (base 2) and the state type (base 3);
    the digit values are the lengths, flags and ``TYPE_*`` tags themselves.
    The product of the radices is the size of the code space.
    """
    d, f, l = attack.depth, attack.forks, attack.max_fork_length
    return (l + 1,) * (d * f) + (2,) * (d - 1) + (3,)


def state_code(state: ForkState, attack: AttackParams) -> int:
    """Encode ``state`` as its integer code (see :func:`state_code_radices`)."""
    c_matrix, owners, state_type = state
    code = 0
    for digit, radix in zip(
        (*(length for row in c_matrix for length in row), *owners, state_type),
        state_code_radices(attack),
    ):
        code = code * radix + digit
    return code


def _tuples(values: np.ndarray, radix: int) -> List[Tuple[int, ...]]:
    """The rows of a 2-D digit array as tuples, one tuple object per distinct row."""
    keys = values @ radix ** np.arange(values.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    table = list(map(tuple, values[first].tolist()))
    return list(map(table.__getitem__, inverse.tolist()))


#: One block of transitions of a BFS level, field by field: owning state
#: (position in the level), action template, transition slot within the row,
#: successor code, probability tag, sigma, multiplicity, ``r_A``, ``r_H``.
_Emits = Tuple[np.ndarray, ...]


class _CodeKernel:
    """The fork-state kernel of one ``(d, f, l)`` as array maps over state codes.

    Every successor code the kernel produces is an affine function of the
    predecessor's digits, so each map is a weight vector over the digits plus a
    constant:

    * ``mine`` in a ``TYPE_MINING`` state adds one of the per-target deltas of
      :meth:`_mining`, and in a ``TYPE_ADVERSARY`` state it only resets the
      type digit;
    * ``mine`` in a ``TYPE_HONEST`` state, and the lost gamma-race, apply
      :func:`~repro.attacks.fork_state.incorporate_pending_honest_block`
      (``inc_weights``);
    * action template ``r >= 1`` is the ``r``-th release ``(i, j, k)`` of
      :func:`~repro.attacks.fork_state.available_actions` (template 0 is
      ``mine``); its accepted successor is column ``r - 1`` of
      ``release_weights`` plus ``release_const[r - 1]``.

    Finality rewards count adversarial ownership flags leaving the window, so
    they are weight vectors over the ``O`` digits as well.
    """

    def __init__(self, attack: AttackParams) -> None:
        d, f, l = attack.depth, attack.forks, attack.max_fork_length
        radices = state_code_radices(attack)
        if math.prod(radices) > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"the state codes of d={d}, f={f}, l={l} do not fit in int64; reduce d, f or l"
            )
        self.depth, self.forks, self.max_length = d, f, l
        self.radices = np.asarray(radices, dtype=np.int64)
        num_digits = self.radices.size
        place = np.ones(num_digits, dtype=np.int64)
        place[:-1] = np.cumprod(self.radices[:0:-1])[::-1]
        self.place = place
        self.fork_place = place[: d * f].reshape(d, f)
        owner_digit = d * f  # digit of the flag at depth 1; the type digit is last

        # The pending honest block joins the chain: rows and flags move one
        # deeper, the new tip is honest with empty forks, the depth-d flag is final.
        self.inc_weights = np.zeros(num_digits, dtype=np.int64)
        self.inc_weights[: (d - 1) * f] = place[f : d * f]
        flags = slice(owner_digit, owner_digit + d - 2)
        self.inc_weights[flags] = place[owner_digit + 1 : owner_digit + d - 1]
        self.inc_final = np.zeros(num_digits, dtype=np.int64)
        if d >= 2:
            self.inc_final[owner_digit + d - 2] = 1

        labels: List[Hashable] = [action_label(MineAction())]
        weights: List[np.ndarray] = []
        finals: List[np.ndarray] = []
        consts: List[int] = []
        fresh: List[int] = []
        fork_digits: List[int] = []
        blocks: List[int] = []
        races: List[bool] = []
        for i in range(1, d + 1):
            for j in range(1, f + 1):
                for k in range(i, l + 1):
                    labels.append(action_label(ReleaseAction(depth=i, fork=j, blocks=k)))
                    shift = k - (i - 1)
                    fork_digit = (i - 1) * f + (j - 1)
                    weight = np.zeros(num_digits, dtype=np.int64)
                    # The unpublished remainder C[i][j] - k becomes fork (1, 1).
                    weight[fork_digit] = place[0]
                    const = -k * int(place[0])
                    for old_depth in range(i, d + 1 - shift):
                        for jj in range(f):
                            if old_depth > i or jj != j - 1:  # the released fork is consumed
                                new_digit = (old_depth + shift - 1) * f + jj
                                weight[(old_depth - 1) * f + jj] += place[new_digit]
                    for depth in range(1, d):
                        if depth <= k:
                            const += ADVERSARY * int(place[owner_digit + depth - 1])
                        else:
                            old_flag = owner_digit + depth - shift - 1
                            weight[old_flag] += place[owner_digit + depth - 1]
                    final = np.zeros(num_digits, dtype=np.int64)
                    final[owner_digit + max(i, d - shift) - 1 : owner_digit + d - 1] = 1
                    weights.append(weight)
                    consts.append(const)
                    finals.append(final)
                    fresh.append(max(0, k - d + 1))  # published blocks at depth >= d
                    fork_digits.append(fork_digit)
                    blocks.append(k)
                    races.append(k == i)
        self.action_labels = labels
        self.num_templates = len(labels)
        self.release_weights = np.asarray(weights, dtype=np.int64).T
        self.release_const = np.asarray(consts, dtype=np.int64)
        self.release_final = np.asarray(finals, dtype=np.int64).T
        self.release_final_count = self.release_final.sum(axis=0)
        self.release_fresh = np.asarray(fresh, dtype=np.int64)
        self.release_fork_digit = np.asarray(fork_digits, dtype=np.int64)
        self.release_blocks = np.asarray(blocks, dtype=np.int64)
        self.release_race = np.asarray(races, dtype=bool)
        #: Transition slots of a ``mine`` row: per depth ``f`` forks and one
        #: new-fork slot, then the honest outcome.
        self.num_slots = d * (f + 1) + 1

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """Decode ``codes`` into an ``(n, num_digits)`` digit array."""
        return codes[:, None] // self.place % self.radices

    def labels(self, codes: np.ndarray) -> List[Hashable]:
        """The :data:`~repro.attacks.fork_state.ForkState` tuples of ``codes``."""
        d, f = self.depth, self.forks
        digits = self.digits(codes)
        rows = _tuples(digits[:, : d * f].reshape(-1, f), self.max_length + 1)
        forks = zip(*(rows[depth::d] for depth in range(d)))
        owners = _tuples(digits[:, d * f : -1], 2)
        return list(zip(forks, owners, digits[:, -1].tolist()))

    def expand(self, codes: np.ndarray, keep: np.ndarray) -> _Emits:
        """Every kept transition of the states ``codes``, in BFS emission order.

        ``keep[kind]`` says whether probability tag ``kind`` survives the
        support signature.  The result is one :data:`_Emits` block ordered by
        (state, action template, slot), the order in which
        :func:`~repro.attacks.fork_state.available_actions` and
        :func:`~repro.attacks.fork_state.symbolic_successor_distribution` list
        them.
        """
        digits = self.digits(codes)
        types = digits[:, -1]
        blocks: List[_Emits] = []
        mining = np.flatnonzero(types == TYPE_MINING)
        if mining.size:
            blocks.append(self._mining(mining, codes[mining], digits[mining], keep))
        decision = np.flatnonzero(types != TYPE_MINING)
        if decision.size:
            blocks.extend(self._decision(decision, codes[decision], digits[decision], keep))
        if len(blocks) == 1:  # a single block is built in order
            return blocks[0]
        fields = [np.concatenate(column) for column in zip(*blocks)]
        owner, template, slot = fields[:3]
        order = np.argsort((owner * self.num_templates + template) * self.num_slots + slot)
        return tuple(field[order] for field in fields)

    def _mining(
        self, states: np.ndarray, codes: np.ndarray, digits: np.ndarray, keep: np.ndarray
    ) -> _Emits:
        """``mine`` in ``TYPE_MINING`` states: one transition per mining target.

        Follows :func:`~repro.attacks.fork_state.adversary_mining_targets`:
        depth by depth, every non-empty fork, then the lowest empty slot.
        Capped forks (length ``l``) all leave the fork matrix unchanged and
        merge into one transition at the first capped slot, with multiplicity
        the number of capped forks.  The honest outcome comes last.
        """
        d, f = self.depth, self.forks
        n = codes.size
        forks = digits[:, : d * f].reshape(n, d, f)
        empty = forks == 0
        capped = forks == self.max_length
        target = np.zeros((n, d, f + 1), dtype=bool)
        target[:, :, :f] = ~empty
        target[:, :, f] = empty.any(axis=2)
        delta = np.empty((n, d, f + 1), dtype=np.int64)
        delta[:, :, :f] = np.where(capped, 0, self.fork_place)
        delta[:, :, f] = self.fork_place[np.arange(d), empty.argmax(axis=2)]
        sigma = target.sum(axis=(1, 2), dtype=np.int64)

        capped_slot = np.zeros((n, d, f + 1), dtype=bool)
        capped_slot[:, :, :f] = capped
        capped_slot = capped_slot.reshape(n, -1)
        merged_away = capped_slot.copy()
        merged_away[np.arange(n), capped_slot.argmax(axis=1)] = False

        kept = np.empty((n, self.num_slots), dtype=bool)
        kept[:, :-1] = target.reshape(n, -1) & ~merged_away & keep[PROB_ADVERSARY]
        kept[:, -1] = keep[PROB_HONEST]
        successor = np.empty((n, self.num_slots), dtype=np.int64)
        successor[:, :-1] = delta.reshape(n, -1) + (codes + (TYPE_ADVERSARY - TYPE_MINING))[:, None]
        successor[:, -1] = codes + (TYPE_HONEST - TYPE_MINING)
        multiplicity = np.ones((n, self.num_slots), dtype=np.int64)
        multiplicity[:, :-1] = np.where(capped_slot, capped_slot.sum(axis=1)[:, None], 1)
        kinds = np.full(self.num_slots, PROB_ADVERSARY, dtype=np.int8)
        kinds[-1] = PROB_HONEST

        owner, slot = np.nonzero(kept)
        zeros = np.zeros(owner.size, dtype=np.int64)
        return (
            states[owner], zeros, slot, successor[owner, slot], kinds[slot],
            sigma[owner], multiplicity[owner, slot], zeros, zeros,
        )

    def _decision(
        self, states: np.ndarray, codes: np.ndarray, digits: np.ndarray, keep: np.ndarray
    ) -> List[_Emits]:
        """``mine`` and every release in ``TYPE_HONEST`` / ``TYPE_ADVERSARY`` states.

        A release of fork ``(i, j)`` is offered for every ``k`` from ``i`` up to
        the fork's length.  In a ``TYPE_HONEST`` state ``k = i`` races the
        pending block: slot 0 wins (``PROB_GAMMA``), slot 1 loses and
        incorporates the pending block (``PROB_ONE_MINUS_GAMMA``).
        """
        n = codes.size
        honest = digits[:, -1] == TYPE_HONEST
        inc_succ = digits @ self.inc_weights
        inc_adversary = digits @ self.inc_final
        zeros, ones = np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        mine = (
            states, zeros, zeros,
            np.where(honest, inc_succ, codes + (TYPE_MINING - TYPE_ADVERSARY)),
            np.full(n, PROB_ONE, dtype=np.int8), zeros, ones,
            np.where(honest, inc_adversary, 0), np.where(honest, 1 - inc_adversary, 0),
        )

        offered = digits[:, self.release_fork_digit] >= self.release_blocks
        race = offered & self.release_race & honest[:, None]
        kind = np.where(race, PROB_GAMMA, PROB_ONE).astype(np.int8)
        owner, release = np.nonzero(offered & keep[kind])
        final_adversary = (digits @ self.release_final)[owner, release]
        zeros, ones = np.zeros(owner.size, dtype=np.int64), np.ones(owner.size, dtype=np.int64)
        accepted = (
            states[owner], release + 1, zeros,
            (digits @ self.release_weights)[owner, release] + self.release_const[release],
            kind[owner, release], zeros, ones,
            self.release_fresh[release] + final_adversary,
            self.release_final_count[release] - final_adversary,
        )
        if not keep[PROB_ONE_MINUS_GAMMA]:
            return [mine, accepted]
        owner, release = np.nonzero(race)
        zeros, ones = np.zeros(owner.size, dtype=np.int64), np.ones(owner.size, dtype=np.int64)
        rejected = (
            states[owner], release + 1, ones, inc_succ[owner],
            np.full(owner.size, PROB_ONE_MINUS_GAMMA, dtype=np.int8), zeros, ones,
            inc_adversary[owner], 1 - inc_adversary[owner],
        )
        return [mine, accepted, rejected]


def build_model_structure(
    attack: AttackParams, signature: SupportSignature
) -> SelfishForksStructure:
    """Explore the reachable fragment for ``(attack, signature)`` breadth-first.

    Each state is an int64 code (:func:`state_code_radices`).  The search is
    level-synchronous: the states discovered while expanding one BFS level form
    the next, and each level is decoded into digit arrays and expanded at once,
    every action template as array arithmetic over the codes.  Its transitions
    are ordered by (state, action, transition), and successors not seen before
    get the next ids in first-occurrence order -- the order in which a
    one-state-at-a-time BFS meets them.  State indices, row order and
    transition order therefore match the legacy :class:`~repro.mdp.MDPBuilder`
    path of :func:`repro.attacks.selfish_forks.build_selfish_forks_mdp`
    exactly, but transitions carry symbolic probability tags instead of
    numbers.  Known codes are looked up by binary search, so memory grows with
    the reachable states, not with the code space.

    Raises:
        ConfigurationError: If the exploration exceeds
            :data:`DEFAULT_MAX_STATES`, or a reachable state keeps no
            transition under ``signature``.
    """
    cap = DEFAULT_MAX_STATES
    kernel = _CodeKernel(attack)
    keep = np.array([signature.keeps(kind) for kind in range(PROB_ONE_MINUS_GAMMA_HONEST + 1)])
    frontier = np.array([state_code(fork_state.initial_state(attack), attack)], dtype=np.int64)
    known_codes, known_ids = frontier, np.zeros(1, dtype=np.int64)
    num_states = 1
    level_codes: List[np.ndarray] = []
    levels: List[Tuple[np.ndarray, ...]] = []

    while frontier.size:
        level_start = num_states - frontier.size
        level_codes.append(frontier)
        owner, template, _, succ, kind, sigma, mult, reward_adversary, reward_honest = (
            kernel.expand(frontier, keep)
        )
        new_row = np.ones(owner.size, dtype=bool)
        new_row[1:] = (owner[1:] != owner[:-1]) | (template[1:] != template[:-1])
        row_start = np.flatnonzero(new_row)
        rows_per_state = np.bincount(owner[row_start], minlength=frontier.size)

        # Known successors by binary search; unseen codes are numbered in the
        # order of their first occurrence.
        position = np.minimum(np.searchsorted(known_codes, succ), known_codes.size - 1)
        succ_ids = known_ids[position]
        unseen = np.flatnonzero(known_codes[position] != succ)
        new_codes, first, inverse = np.unique(succ[unseen], return_index=True, return_inverse=True)
        discovery = np.argsort(first)
        new_ids = np.empty(new_codes.size, dtype=np.int64)
        new_ids[discovery] = np.arange(num_states, num_states + new_codes.size, dtype=np.int64)

        # Raise whichever failure the state-by-state search meets first: the
        # cap is checked on each discovery, a state without rows once expanded.
        overflow_owner = None
        room = max(0, cap - num_states)
        if new_codes.size > room:
            overflow_owner = owner[unseen[first[discovery[room]]]]
        rowless = np.flatnonzero(rows_per_state == 0)
        if rowless.size and (overflow_owner is None or rowless[0] < overflow_owner):
            state = kernel.labels(frontier[rowless[:1]])[0]
            raise ConfigurationError(
                f"state {state!r} has no actions with positive probability under "
                f"support {signature}"
            )
        if overflow_owner is not None:
            raise exceeded_cap()

        succ_ids[unseen] = new_ids[inverse]
        # Both parts are sorted, so the stable sort is a linear merge.
        merged = np.argsort(np.concatenate((known_codes, new_codes)), kind="stable")
        known_codes = np.concatenate((known_codes, new_codes))[merged]
        known_ids = np.concatenate((known_ids, new_ids))[merged]
        num_states += new_codes.size
        frontier = new_codes[discovery]
        levels.append((
            owner[row_start] + level_start, template[row_start],
            np.diff(row_start, append=owner.size), rows_per_state,
            succ_ids, kind, sigma, mult, reward_adversary, reward_honest,
        ))

    (row_state, row_template, row_sizes, state_rows, trans_succ, trans_kind, trans_sigma,
     trans_mult, reward_adversary, reward_honest) = (
        np.concatenate(column) for column in zip(*levels)
    )
    state_row_offsets = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(state_rows, out=state_row_offsets[1:])
    row_trans_offsets = np.zeros(row_state.size + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=row_trans_offsets[1:])
    action_labels = kernel.action_labels

    return SelfishForksStructure(
        attack=attack,
        signature=signature,
        initial_state=0,
        state_labels=kernel.labels(np.concatenate(level_codes)),
        row_state=row_state,
        state_row_offsets=state_row_offsets,
        row_trans_offsets=row_trans_offsets,
        row_actions=[action_labels[index] for index in row_template.tolist()],
        trans_succ=trans_succ,
        trans_kind=trans_kind,
        trans_sigma=trans_sigma,
        trans_mult=trans_mult.astype(float),
        trans_reward=np.column_stack((reward_adversary, reward_honest)).astype(float),
    )


# ------------------------------------------------------------------ process cache

_STRUCTURE_CACHE: Dict[Tuple[AttackParams, SupportSignature], ScenarioStructure] = {}
_CACHE_LOCK = threading.Lock()
#: Number of breadth-first explorations performed by this process since the
#: last :func:`clear_structure_cache` -- sweep workers, which install the
#: parent's skeletons, must keep this at 0.
_BUILD_COUNT = 0
#: Number of structures installed from outside (not explored here).
_ATTACH_COUNT = 0


def _freeze(structure: ScenarioStructure) -> ScenarioStructure:
    """Make every numeric array of ``structure``, its column order's included, read-only.

    Every model instantiated from a cached skeleton shares its arrays, so a
    write through one model would corrupt every later grid point.  Pickling
    (spawn-started workers) drops the flag below protocol 5, so installed
    skeletons are frozen again.
    """
    order = structure.column_order
    arrays = [order.rank, *(order.template or ()), *(order.pattern or ())]
    for value in vars(structure).values():
        arrays.extend(value if isinstance(value, tuple) else (value,))
    for value in arrays:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return structure


def get_model_structure(attack: AttackParams, protocol: ProtocolParams) -> ScenarioStructure:
    """Return the (memoised) structure for ``attack`` at ``protocol``'s support.

    Dispatches the exploration through :func:`~repro.attacks.registry.get_attack`,
    so both scenarios share this cache (and its builds/attaches accounting).  The cache
    is process-local; sweep workers have it populated up front with the
    parent's skeletons and therefore always hit.  The returned skeleton's
    numeric arrays are read-only.
    """
    global _BUILD_COUNT
    signature = SupportSignature.of(protocol)
    key = (attack, signature)
    with _CACHE_LOCK:
        structure = _STRUCTURE_CACHE.get(key)
        if structure is None:
            scenario = get_attack(attack.scenario)
            structure = _freeze(scenario.explore(attack, signature))
            _STRUCTURE_CACHE[key] = structure
            _BUILD_COUNT += 1
    return structure


def replace_structure_cache(structures: Iterable[ScenarioStructure]) -> None:
    """Swap the whole cache for ``structures`` (each counted as an attach).

    Drops every cached structure, resets the build/attach counters and
    installs ``structures`` (frozen read-only), all under the module lock, so
    a concurrent :func:`get_model_structure` sees either the old cache or the
    new one and never explores in between.  It is the pool initializer of
    every sweep worker (:func:`repro.core.execution.pool_kwargs`): the swap
    drops whatever the process held before -- including the cache and build
    counters a fork-started worker inherits -- so the worker reports zero
    builds.  Idempotent, and importable at module top level so spawn-started
    workers can unpickle it.
    """
    global _BUILD_COUNT, _ATTACH_COUNT
    structure_list = [_freeze(structure) for structure in structures]
    with _CACHE_LOCK:
        _STRUCTURE_CACHE.clear()
        for structure in structure_list:
            _STRUCTURE_CACHE[(structure.attack, structure.signature)] = structure
        _BUILD_COUNT = 0
        _ATTACH_COUNT = len(structure_list)


def clear_structure_cache() -> None:
    """Drop every cached structure and reset the build/attach counters.

    Mainly for tests and memory pressure; see :func:`replace_structure_cache`.
    """
    replace_structure_cache(())


def structure_cache_stats() -> Dict[str, int]:
    """Return summary statistics of the process-local structure cache.

    The snapshot -- entries, aggregate sizes and the build/attach counters --
    is taken atomically under the module lock, so concurrent cache mutation
    (e.g. a live worker pool) can never yield counters from one instant and
    entries from another.

    Returns:
        ``entries`` / ``states`` / ``transitions``: current cache contents;
        ``builds``: breadth-first explorations this process performed since the
        last clear (0 inside sweep workers);
        ``attaches``: structures installed from outside (the pool
        initializer's skeletons).
    """
    with _CACHE_LOCK:
        structures = list(_STRUCTURE_CACHE.values())
        builds = _BUILD_COUNT
        attaches = _ATTACH_COUNT
    return {
        "entries": len(structures),
        "states": sum(structure.num_states for structure in structures),
        "transitions": sum(structure.num_transitions for structure in structures),
        "builds": builds,
        "attaches": attaches,
    }
