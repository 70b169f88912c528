"""Shared-memory results plane: pickle-free return path for sweep outcomes.

The model plane (:mod:`repro.core.shared_structures`) made the *inputs* of a
pooled sweep zero-copy, but every :class:`~repro.core.engine.PointOutcome`
still returned to the parent by pickling through the pool's result queue.  The
results plane closes that gap: a fixed-record shared-memory ring with one slot
per attack grid point, where workers *write* their outcomes as packed numpy
records and the parent *drains* them by reading shared pages -- no pickle, no
queue copy, no per-outcome allocation on the hot path.

Layout and protocol
-------------------
The segment is a substrate segment (:mod:`repro.core.shm`: 64-byte magic +
layout-version header, validated on every attach) whose payload is two named
typed regions: a ``geometry`` region (slot count, grid dimensions) and a
``records`` region of ``num_slots`` fixed-size :data:`OUTCOME_DTYPE` records.
Slot ``i`` is the flattened grid coordinate ``(gamma_index * n_p + p_index) *
n_attacks + attack_index``, so writers need no allocator and results are
idempotent by grid key -- exactly the keying the sweep's merge path already
uses.

Each slot is protected by a per-slot **seqlock** (its ``seq`` field):

* a writer sets ``seq`` to an odd value, fills the payload fields, then sets
  ``seq`` to the even value ``2`` (publish);
* a reader treats ``seq == 0`` (never written) and odd ``seq`` (write in
  progress -- e.g. the writer died mid-record) as *not ready*, and re-reads
  ``seq`` after decoding to discard torn reads.

Every grid point is computed by exactly one pool task, so each slot has a
single writer and the seqlock only has to protect the parent's concurrent
drain from observing a half-written record.  A slot whose writer crashed
mid-write simply stays unpublished; the sweep's assembly step records the
missing grid key as a :class:`~repro.core.results.SweepFailure` instead of
crashing.

Plain numpy stores provide no cross-process release/acquire ordering, so the
seqlock is a *tear detector*, not a memory barrier: on a weakly ordered CPU a
concurrently racing reader could in principle observe ``seq == 2`` before the
payload stores land.  The parent therefore consumes a slot only after a true
synchronization point with its writer -- the task's future result arriving
(queue IPC), the pool having joined, or the writer process having died --
each of which guarantees the published payload is visible.

Strings (series name, error message, scenario id) live in fixed-size fields
-- :data:`ERROR_BYTES` etc.  An outcome whose strings do not fit is *not*
truncated: :meth:`ResultsPlane.write` refuses it and the worker falls back to
returning that one outcome through the pickled future path (counted by the
engine's plane stats), so drained outcomes are always byte-exact.

Lifecycle (refcounted release with creator-unlink, ``atexit`` backstop,
fork-inheritance forget, untracked worker attaches) is the substrate's,
implemented once in :mod:`repro.core.shm` and proven by the conformance
suite (``tests/core/shm_conformance.py``) this plane passes alongside the
model plane.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..exceptions import ModelError
from .faults import InjectedFault, maybe_fail
from .shm import (
    HEADER_BYTES,
    ManagedSegment,
    SegmentLayout,
    SegmentSpec,
    attach_segment,
    create_segment,
    forget_inherited_segments,
)
from .shm import (
    active_segment_names as _active_segment_names,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .engine import PointOutcome

#: Plane magic stamped into the substrate header (b"REPRORES" as an integer).
PLANE_MAGIC = 0x5245_5052_4F52_4553

#: Layout generation of the record payload, validated on attach by the
#: substrate header so a stale worker from a previous layout fails loudly
#: instead of decoding shifted fields.  Bumped to 5 when the solver-race
#: fields (winning backend, cancelled iterations, race counters) left the
#: record; 4 was the substrate port (geometry moved into a named payload
#: region behind the substrate header); 3 added the per-record
#: ``recovery_retries`` counter, 2 the ``scenario`` id.
RESULTS_PLANE_VERSION = 5

#: Substrate identity of results-plane segments.
_SPEC = SegmentSpec(kind="results-plane", magic=PLANE_MAGIC, version=RESULTS_PLANE_VERSION)

#: Capacity of the fixed-size string fields of one record.
SERIES_BYTES = 96
ERROR_BYTES = 512
SCENARIO_BYTES = 64

#: Bit flags marking which optional fields of a record are present.
_HAS_ERREV = 1 << 0
_HAS_ERROR = 1 << 1
_HAS_BETA_LOW = 1 << 2
_HAS_BETA_UP = 1 << 3
_HAS_SCENARIO = 1 << 4
_HAS_RECOVERY = 1 << 5

#: Packed per-slot record: seqlock word, grid key, payload, flagged optionals.
OUTCOME_DTYPE = np.dtype(
    [
        ("seq", np.uint32),
        ("flags", np.uint32),
        ("gamma_index", np.int32),
        ("p_index", np.int32),
        ("attack_index", np.int32),
        ("solver_iterations", np.int64),
        ("num_states", np.int64),
        ("recovery_retries", np.int64),
        ("p", np.float64),
        ("gamma", np.float64),
        ("errev", np.float64),
        ("seconds", np.float64),
        ("beta_low", np.float64),
        ("beta_up", np.float64),
        ("series", f"S{SERIES_BYTES}"),
        ("error", f"S{ERROR_BYTES}"),
        ("scenario", f"S{SCENARIO_BYTES}"),
    ]
)


def _plane_layout(num_slots: int) -> SegmentLayout:
    """The payload layout of a plane with ``num_slots`` record slots."""
    return SegmentLayout(
        [
            # [num_slots, n_p, n_attacks, reserved]
            ("geometry", np.uint64, (4,)),
            ("records", OUTCOME_DTYPE, (num_slots,)),
        ]
    )


#: Guards the worker-installed sink below (RL002: rebinding under a lock).
_REGISTRY_LOCK = threading.Lock()

#: The plane the sweep pool initializer installed in *this worker process*.
_INSTALLED_PLANE: Optional["ResultsPlane"] = None


class ResultsPlane:
    """One shared-memory outcome ring, created by the parent or attached by a worker.

    Use :func:`create_results_plane` / :func:`attach_results_plane` instead of
    constructing directly.
    """

    def __init__(
        self,
        handle: ManagedSegment,
        *,
        num_slots: int,
        n_p: int,
        n_attacks: int,
        writeable: bool,
    ) -> None:
        """Wrap a substrate handle; use the module factories, not this."""
        self._handle = handle
        self.num_slots = num_slots
        self.n_p = n_p
        self.n_attacks = n_attacks
        regions = _plane_layout(num_slots).map(handle, writeable=writeable)
        self._records: Optional[np.ndarray] = regions["records"]
        #: Parent-side drain cursor: the ``seq`` value last observed per slot.
        self._seen = np.zeros(num_slots, dtype=np.uint32)
        handle.owner = self
        handle.drop_views = self._drop_views

    def _drop_views(self) -> None:
        """Drop the record view before the mapping closes (BufferError hygiene)."""
        self._records = None

    @property
    def name(self) -> str:
        """System-wide name of the shared-memory segment."""
        return self._handle.name

    @property
    def closed(self) -> bool:
        """Whether this process has dropped its mapping of the segment."""
        return self._handle.closed

    # ----------------------------------------------------------------- writing

    def slot_of(self, gamma_index: int, p_index: int, attack_index: int) -> int:
        """Flattened slot index of one grid coordinate."""
        return (gamma_index * self.n_p + p_index) * self.n_attacks + attack_index

    def write(self, outcome: "PointOutcome") -> bool:
        """Publish one outcome into its grid slot; ``False`` if it does not fit.

        An outcome whose series/error/scenario strings exceed the fixed field
        sizes (or whose grid coordinates fall outside the plane's grid) is
        refused rather than truncated -- the caller must return it through the
        ordinary pickled path so the drained result stays byte-exact.
        """
        slot = self.slot_of(outcome.gamma_index, outcome.p_index, outcome.attack_index)
        if not 0 <= slot < self.num_slots:
            return False
        series = outcome.series.encode("utf-8")
        error = (outcome.error or "").encode("utf-8")
        scenario = (outcome.scenario or "").encode("utf-8")
        if (
            len(series) > SERIES_BYTES
            or len(error) > ERROR_BYTES
            or len(scenario) > SCENARIO_BYTES
        ):
            return False
        # Fixed-size numpy bytes fields strip trailing NULs on read, so a
        # string that *ends* in one cannot round-trip byte-exactly -- refuse
        # it (pathological, but correctness beats coverage here).
        if any(text.endswith(b"\x00") for text in (series, error, scenario)):
            return False
        records = self._records
        assert records is not None  # a closed plane is never handed to writers
        flags = 0
        # Seqlock write protocol: odd while the payload is in flux, even once
        # published.  The single writer of this slot is us; the odd value only
        # protects a concurrently draining parent from a torn read.
        records["seq"][slot] = 1
        records["gamma_index"][slot] = outcome.gamma_index
        records["p_index"][slot] = outcome.p_index
        records["attack_index"][slot] = outcome.attack_index
        records["p"][slot] = outcome.p
        records["gamma"][slot] = outcome.gamma
        records["seconds"][slot] = outcome.seconds
        records["solver_iterations"][slot] = outcome.solver_iterations
        records["num_states"][slot] = outcome.num_states
        records["series"][slot] = series
        if outcome.errev is not None:
            flags |= _HAS_ERREV
            records["errev"][slot] = outcome.errev
        if outcome.error is not None:
            flags |= _HAS_ERROR
        records["error"][slot] = error
        if outcome.beta_low is not None:
            flags |= _HAS_BETA_LOW
            records["beta_low"][slot] = outcome.beta_low
        if outcome.beta_up is not None:
            flags |= _HAS_BETA_UP
            records["beta_up"][slot] = outcome.beta_up
        if outcome.scenario is not None:
            flags |= _HAS_SCENARIO
        records["scenario"][slot] = scenario
        if outcome.recovery_retries is not None:
            flags |= _HAS_RECOVERY
            records["recovery_retries"][slot] = outcome.recovery_retries
        records["flags"][slot] = flags
        records["seq"][slot] = 2
        return True

    # ----------------------------------------------------------------- reading

    def _decode(self, slot: int) -> "PointOutcome":
        from .engine import PointOutcome  # deferred: engine imports this module

        assert self._records is not None
        record = self._records[slot]
        flags = int(record["flags"])
        return PointOutcome(
            gamma_index=int(record["gamma_index"]),
            p_index=int(record["p_index"]),
            attack_index=int(record["attack_index"]),
            p=float(record["p"]),
            gamma=float(record["gamma"]),
            series=bytes(record["series"]).decode("utf-8"),
            errev=float(record["errev"]) if flags & _HAS_ERREV else None,
            seconds=float(record["seconds"]),
            solver_iterations=int(record["solver_iterations"]),
            num_states=int(record["num_states"]),
            error=bytes(record["error"]).decode("utf-8") if flags & _HAS_ERROR else None,
            beta_low=float(record["beta_low"]) if flags & _HAS_BETA_LOW else None,
            beta_up=float(record["beta_up"]) if flags & _HAS_BETA_UP else None,
            scenario=(
                bytes(record["scenario"]).decode("utf-8") if flags & _HAS_SCENARIO else None
            ),
            recovery_retries=(
                int(record["recovery_retries"]) if flags & _HAS_RECOVERY else None
            ),
        )

    def read(self, slot: int) -> Optional["PointOutcome"]:
        """Read one slot, or ``None`` if it is unwritten or mid-write.

        The seqlock is re-checked after decoding, so a record the writer was
        still filling (or re-publishing) is discarded instead of returned torn.
        The seqlock alone is *not* an inter-process memory barrier (plain
        numpy stores carry no release/acquire ordering), so callers must only
        trust a slot after a real synchronization point with its writer -- the
        writer's future result arriving, the pool joining, or the writer
        process having exited; the engine's drains observe that rule.
        """
        if not 0 <= slot < self.num_slots:
            raise ModelError(f"slot {slot} outside results plane of {self.num_slots} slots")
        assert self._records is not None
        seq_before = int(self._records["seq"][slot])
        if seq_before == 0 or seq_before % 2 == 1:
            return None
        outcome = self._decode(slot)
        if int(self._records["seq"][slot]) != seq_before:
            return None
        return outcome

    def take_new(self, slot: int) -> Optional["PointOutcome"]:
        """Read one slot and mark it consumed; ``None`` if unready or already taken.

        Only the creating (parent) process should consume slots: the cursor of
        "what was already seen" is process-local state.
        """
        outcome = self.read(slot)
        assert self._records is not None
        if outcome is None or self._seen[slot] == self._records["seq"][slot]:
            return None
        self._seen[slot] = self._records["seq"][slot]
        return outcome

    def drain_new(self) -> List["PointOutcome"]:
        """Consume every slot published since the previous drain, in slot order.

        Safe only once all writers have synchronized with this process (pool
        joined / workers exited) -- see :meth:`read`.
        """
        assert self._records is not None
        published = self._records["seq"]
        candidates = np.flatnonzero((published != self._seen) & (published % 2 == 0))
        fresh = (self.take_new(int(slot)) for slot in candidates)
        return [outcome for outcome in fresh if outcome is not None]

    # --------------------------------------------------------------- lifecycle

    def release(self) -> None:
        """Drop one reference; close (creator: unlink) on the last one.

        Idempotent -- the engine's ``finally`` and the substrate's ``atexit``
        backstop may both call it.
        """
        self._handle.release()


def create_results_plane(n_gammas: int, n_p: int, n_attacks: int) -> ResultsPlane:
    """Allocate a results plane covering one sweep grid (creator side).

    Raises:
        ModelError: If the grid is empty or shared memory cannot be allocated.
    """
    num_slots = n_gammas * n_p * n_attacks
    if num_slots < 1:
        raise ModelError("cannot create a results plane for an empty grid")
    layout = _plane_layout(num_slots)
    # seq == 0 must read as "never written", so the payload is zero-filled.
    handle = create_segment(_SPEC, layout.payload_size, zero_payload=True)
    try:
        geometry = layout.map(handle)["geometry"]
        geometry[0] = num_slots
        geometry[1] = n_p
        geometry[2] = n_attacks
    except Exception:
        handle.release()
        raise
    return ResultsPlane(handle, num_slots=num_slots, n_p=n_p, n_attacks=n_attacks, writeable=True)


def attach_results_plane(name: str) -> ResultsPlane:
    """Attach an existing results plane by segment name (worker side).

    Raises:
        ModelError: If no segment with ``name`` exists, it is not a results
            plane (wrong magic), it uses another layout generation, or its
            geometry is impossible.
    """
    if maybe_fail("results_plane.attach_fail"):
        # Chaos site: a vanished/unmappable segment.  InjectedFault is a
        # ModelError, so the pool initializer's existing fallback (pickled
        # return path) absorbs it.
        raise InjectedFault("results_plane.attach_fail")
    handle = attach_segment(_SPEC, name)
    owner = handle.owner
    if isinstance(owner, ResultsPlane):
        # In-process dedup: attach_segment returned the open handle (refcount
        # bumped); hand back the plane already wrapping it.
        return owner
    try:
        if len(handle.buf) < HEADER_BYTES + _plane_layout(0).payload_size:
            raise ModelError(f"results plane {name!r} has an impossible geometry")
        geometry = _plane_layout(0).map(handle, writeable=False)["geometry"]
        num_slots, n_p, n_attacks = int(geometry[0]), int(geometry[1]), int(geometry[2])
        del geometry  # drop the view before any failure path closes the mapping
        layout = _plane_layout(max(num_slots, 0))
        if num_slots < 1 or n_p < 1 or n_attacks < 1 or (
            len(handle.buf) < HEADER_BYTES + layout.payload_size
        ):
            raise ModelError(f"results plane {name!r} has an impossible geometry")
    except ModelError:
        handle.release()
        raise
    return ResultsPlane(
        handle, num_slots=num_slots, n_p=n_p, n_attacks=n_attacks, writeable=True
    )


def install_results_plane(name: str) -> ResultsPlane:
    """Attach a plane and make it this worker process's outcome sink.

    Called by the sweep pool initializer; :func:`installed_results_plane` then
    routes every computed outcome of this process into the plane.
    """
    global _INSTALLED_PLANE
    plane = attach_results_plane(name)
    with _REGISTRY_LOCK:
        _INSTALLED_PLANE = plane
    return plane


def installed_results_plane() -> Optional[ResultsPlane]:
    """The plane installed in this process by the pool initializer, if any."""
    if _INSTALLED_PLANE is not None and _INSTALLED_PLANE.closed:
        return None
    return _INSTALLED_PLANE


def forget_installed_sink() -> None:
    """Drop the worker-installed outcome sink without closing its mapping."""
    global _INSTALLED_PLANE
    with _REGISTRY_LOCK:
        _INSTALLED_PLANE = None


def forget_inherited_results_planes() -> None:
    """Drop results-plane handles inherited through ``fork`` without closing.

    The same hazard as every plane's fork inheritance (see
    :func:`repro.core.shm.forget_inherited_segments`), plus the
    worker-installed sink from a previous life: workers must start from a
    clean registry and attach their own untracked mapping.
    """
    forget_installed_sink()
    forget_inherited_segments(kind=_SPEC.kind)


def active_results_plane_names() -> List[str]:
    """Names of the results planes this process holds open (for tests)."""
    return _active_segment_names(kind=_SPEC.kind)


__all__: Tuple[str, ...] = (
    "ERROR_BYTES",
    "OUTCOME_DTYPE",
    "PLANE_MAGIC",
    "RESULTS_PLANE_VERSION",
    "SCENARIO_BYTES",
    "SERIES_BYTES",
    "ResultsPlane",
    "active_results_plane_names",
    "attach_results_plane",
    "create_results_plane",
    "forget_inherited_results_planes",
    "forget_installed_sink",
    "install_results_plane",
    "installed_results_plane",
)
