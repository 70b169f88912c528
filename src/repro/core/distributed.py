"""Distributed multi-host sweep fabric.

The local sweep engine (:mod:`repro.core.engine`) fans the ``(p, gamma,
attack)`` grid over a process pool whose workers install the parent's packed
model skeletons.  This module ships the *same* work units and the *same*
packed skeletons over plain TCP instead, so a sweep can span several hosts:

* A **coordinator** (``repro sweep --distributed --listen HOST:PORT``) listens
  on a socket, decomposes the grid into the engine's :class:`~repro.core.
  engine.AttackTask` units and streams them to connected workers.  Series-
  ordered scheduling is preserved: when ``reuse_p_axis_bounds`` or
  ``warm_start_across_points`` is enabled a whole p series travels as one unit,
  so chained certified bounds and warm starts never cross a host boundary and
  the monotone bound reuse stays sound across the wire.
* **Workers** (``repro worker --connect HOST:PORT``) connect, advertise the
  versioned attack scenarios they implement, receive every parent-built
  :class:`~repro.attacks.registry.ScenarioStructure` as one payload
  (:func:`~repro.core.shared_structures.pack_structures`, the bytes a local
  pool worker receives in its initializer; magic, layout version and bounds
  are validated before anything is decoded), install it through the same
  helper as pool workers and therefore perform **zero explorations** --
  ``structure_cache_stats()["builds"] == 0`` on a remote worker, the same
  invariant every pool worker keeps.
* Results stream back as :class:`~repro.core.engine.PointOutcome` rows and are
  merged into the same :class:`~repro.core.results.SweepResult` / CSV pipeline
  the local engine feeds; the single-process and process-pool paths are
  untouched.

Fault tolerance
---------------
Workers heartbeat the coordinator; a worker whose connection drops (killed
process) or whose heartbeats stop (hung host) has its in-flight units returned
to the queue and reassigned.  Once the queue is empty the coordinator may
additionally *duplicate* units that have been outstanding longer than
``straggler_seconds`` onto idle workers (speculative execution).  Both are safe
because results are **idempotent by grid key**: every outcome carries its
``(gamma_index, p_index, attack_index)`` coordinates and the first result per
unit wins, so a unit computed twice merges to the same value.

Determinism
-----------
A distributed sweep reproduces the serial sweep bit-for-bit (timings aside):
workers run the exact per-task code of the local
engine against skeletons reconstructed bit-for-bit from the coordinator's flat
buffers, and outcomes are re-assembled in canonical grid order regardless of
which host computed them.

Wire protocol
-------------
Frames are length-prefixed binary::

    [uint32 body_len][uint32 header_len][header JSON][binary payload]

with a JSON header carrying the message (``hello`` / ``welcome`` / ``work`` /
``result`` / ``heartbeat`` / ``shutdown``) and the binary payload carrying the
packed structure payload of the ``welcome`` message.  All integers are
big-endian; frames above :data:`MAX_FRAME_BYTES` are rejected.  Nothing on
the wire is unpickled, but the fabric authenticates nothing either -- bind the
coordinator to a trusted network only, exactly like any in-cluster scheduler.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..attacks.registry import list_attacks, resolve_scenario, scenario_id_for
from ..attacks.structure import structure_cache_stats
from ..config import AnalysisConfig, AttackParams
from ..exceptions import ModelError
from .engine import (
    AttackTask,
    PointOutcome,
    _run_attack_task,
)
from .faults import backoff_delays, maybe_fail
from .reporting import ProgressReporter
from .results import SweepResult
from .shared_structures import install_structure_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .execution import MergeSink
    from .sweep import SweepConfig

#: Protocol version spoken by this module; a mismatch refuses the worker.
PROTOCOL_VERSION = 2

#: Hard cap on a single frame; anything larger is a protocol violation.
MAX_FRAME_BYTES = 1 << 30

#: Default seconds between worker heartbeats; a worker is presumed dead after
#: ``3 *`` this without any frame.
DEFAULT_HEARTBEAT_SECONDS = 5.0

#: Default seconds a unit may stay outstanding (with an empty queue and idle
#: capacity available) before the coordinator duplicates it onto another worker.
DEFAULT_STRAGGLER_SECONDS = 30.0

_FRAME_PREFIX = struct.Struct(">I")


def resolve_heartbeat_seconds(value: Optional[float]) -> float:
    """``value``, or ``REPRO_HEARTBEAT_SECONDS``, or the built-in default."""
    if value is not None:
        return float(value)
    return float(os.environ.get("REPRO_HEARTBEAT_SECONDS", DEFAULT_HEARTBEAT_SECONDS))


def resolve_straggler_seconds(value: Optional[float]) -> float:
    """``value``, or ``REPRO_STRAGGLER_SECONDS``, or the built-in default."""
    if value is not None:
        return float(value)
    return float(os.environ.get("REPRO_STRAGGLER_SECONDS", DEFAULT_STRAGGLER_SECONDS))


class ProtocolError(ModelError):
    """A malformed or oversized frame was received on the sweep fabric."""


# --------------------------------------------------------------------- framing


def encode_frame(header: Dict[str, object], payload: bytes = b"") -> bytes:
    """Encode one wire frame: length prefix, JSON header, binary payload."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body_len = 4 + len(header_bytes) + len(payload)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    return b"".join(
        (_FRAME_PREFIX.pack(body_len), _FRAME_PREFIX.pack(len(header_bytes)), header_bytes, payload)
    )


def decode_frame(body: bytes) -> Tuple[Dict[str, object], bytes]:
    """Decode a frame body (everything after the length prefix)."""
    if len(body) < 4:
        raise ProtocolError("truncated frame body")
    (header_len,) = _FRAME_PREFIX.unpack_from(body)
    if 4 + header_len > len(body):
        raise ProtocolError("frame header overruns body")
    try:
        header = json.loads(body[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("frame header must be a JSON object with a 'type'")
    return header, body[4 + header_len :]


async def read_frame(reader: asyncio.StreamReader) -> Tuple[Dict[str, object], bytes]:
    """Read one length-prefixed frame from an asyncio stream.

    Raises:
        asyncio.IncompleteReadError: On EOF (connection closed).
        ProtocolError: On an oversized or malformed frame.
    """
    prefix = await reader.readexactly(_FRAME_PREFIX.size)
    (body_len,) = _FRAME_PREFIX.unpack(prefix)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {body_len}-byte frame; refusing")
    return decode_frame(await reader.readexactly(body_len))


def parse_address(value: str, *, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` (or ``:PORT``) address string.

    Raises:
        ValueError: If ``value`` is not of the form ``[HOST]:PORT`` with an
            integer port in ``[0, 65535]`` (0 means "pick an ephemeral port").
    """
    host, separator, port_text = value.rpartition(":")
    if not separator:
        raise ValueError(f"address must be HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address must end in an integer port, got {value!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    return host or default_host, port


# -------------------------------------------------------- task / outcome wire


def task_to_wire(task: AttackTask) -> Dict[str, object]:
    """Serialise an :class:`AttackTask` into a JSON-safe dictionary.

    The frame carries the versioned ``scenario_id`` of the task's attack
    scenario alongside the parameters, so a receiver that implements a
    different version of the scenario refuses the unit instead of silently
    computing it against different semantics.
    """
    wire = asdict(task)
    wire["attack"] = task.attack.to_dict()
    wire["analysis"] = task.analysis.to_dict()
    wire["scenario_id"] = scenario_id_for(task.attack.scenario)
    return wire


def task_from_wire(wire: Dict[str, object]) -> AttackTask:
    """Reconstruct an :class:`AttackTask` from :func:`task_to_wire` output.

    Raises:
        ModelError: If the frame's ``scenario_id`` names a scenario this
            process does not implement (or implements at another version).
    """
    data = dict(wire)
    scenario_id = data.pop("scenario_id", None)
    if scenario_id is not None:
        resolve_scenario(str(scenario_id))  # raises ModelError on mismatch
    data["attack"] = AttackParams(**data["attack"])
    data["analysis"] = AnalysisConfig(**data["analysis"])
    data["p_values"] = tuple(data["p_values"])
    data["p_indices"] = tuple(data["p_indices"])
    return AttackTask(**data)


def outcome_to_wire(outcome: PointOutcome) -> Dict[str, object]:
    """Serialise a :class:`PointOutcome` into a JSON-safe dictionary."""
    return asdict(outcome)


def outcome_from_wire(wire: Dict[str, object]) -> PointOutcome:
    """Reconstruct a :class:`PointOutcome` from :func:`outcome_to_wire` output."""
    return PointOutcome(**wire)


def _validate_hello(
    header: Dict[str, object],
    required_scenarios: Tuple[str, ...] = (),
) -> Tuple[int, float]:
    """Validate a worker hello frame; return ``(capacity, heartbeat_seconds)``.

    Hello fields cross a trust boundary: a mismatched or buggy worker can send
    anything, and the coordinator must reject it cleanly instead of crashing
    (uncaught ``ValueError`` from ``int``/``float``) or accepting poison values
    (``capacity <= 0`` starves the scheduler; a zero, negative, NaN or infinite
    heartbeat either divides the monitor by nonsense or declares the worker
    immortal).

    ``required_scenarios`` are the versioned scenario ids the sweep's grid
    needs; a worker whose advertised ``scenarios`` list (absent = none) does
    not cover them is refused up front, instead of failing -- or, worse,
    *mis-computing* -- every unit it is handed.

    Raises:
        ProtocolError: Describing the offending field.
    """
    if header.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {header.get('type')!r}")
    protocol = header.get("protocol")
    if not isinstance(protocol, int) or isinstance(protocol, bool):
        raise ProtocolError(f"non-integer protocol {protocol!r}")
    if protocol != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol {protocol} unsupported (this coordinator speaks {PROTOCOL_VERSION})"
        )
    # isinstance, not int()/float() coercion: 2.9 or true must be *rejected*,
    # not silently truncated to a capacity the worker never advertised.
    capacity = header.get("capacity", 1)
    if not isinstance(capacity, int) or isinstance(capacity, bool):
        raise ProtocolError(f"non-integer capacity {capacity!r}")
    if capacity < 1:
        raise ProtocolError(f"capacity must be >= 1, got {capacity}")
    heartbeat = header.get("heartbeat_seconds", DEFAULT_HEARTBEAT_SECONDS)
    if not isinstance(heartbeat, (int, float)) or isinstance(heartbeat, bool):
        raise ProtocolError(f"non-numeric heartbeat_seconds {heartbeat!r}")
    heartbeat = float(heartbeat)
    if not math.isfinite(heartbeat) or heartbeat <= 0.0:
        raise ProtocolError(f"heartbeat_seconds must be finite and > 0, got {heartbeat}")
    if required_scenarios:
        advertised = header.get("scenarios", [])
        if not isinstance(advertised, list) or not all(
            isinstance(entry, str) for entry in advertised
        ):
            raise ProtocolError(f"scenarios must be a list of strings, got {advertised!r}")
        missing = [entry for entry in required_scenarios if entry not in advertised]
        if missing:
            raise ProtocolError(
                f"worker does not implement required attack scenario(s) {missing} "
                f"(advertised {advertised})"
            )
    return capacity, heartbeat


# ---------------------------------------------------------------- coordinator


@dataclass
class _RemoteWorker:
    """Coordinator-side bookkeeping for one connected worker."""

    ident: int
    name: str
    capacity: int
    writer: asyncio.StreamWriter
    last_seen: float
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS
    assigned: Dict[int, float] = field(default_factory=dict)
    completed_units: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def free_slots(self) -> int:
        """Units this worker can still take before hitting its capacity."""
        return max(0, self.capacity - len(self.assigned))


class _Coordinator:
    """Asyncio coordinator: schedules units, heartbeats workers, streams results.

    Scheduling only: dispatch, heartbeat liveness, straggler duplication and
    requeue live here, while every accepted result is pushed straight into the
    shared :class:`~repro.core.execution.MergeSink` (unit-level idempotent
    merge, journal append, progress) -- the coordinator itself never journals
    or merges.
    """

    def __init__(
        self,
        tasks: List[AttackTask],
        structures_blob: Optional[bytes],
        *,
        min_workers: int,
        heartbeat_seconds: float,
        straggler_seconds: float,
        report: Callable[[str], None],
        sink: "MergeSink",
    ) -> None:
        self.tasks = tasks
        self.structures_blob = structures_blob
        #: Versioned scenario ids the grid needs; hello frames must cover them.
        self.required_scenarios: Tuple[str, ...] = tuple(
            sorted({scenario_id_for(task.attack.scenario) for task in tasks})
        )
        self.min_workers = min_workers
        self.heartbeat_seconds = heartbeat_seconds
        self.straggler_seconds = straggler_seconds
        self.report = report
        #: The one merge pipeline: every accepted unit's outcomes flow through
        #: the sink exactly once, no matter how many workers duplicated it.
        self.sink = sink
        self.pending: deque[int] = deque(range(len(tasks)))
        self.unit_holders: Dict[int, Set[int]] = {}
        #: Scheduling state only (which units are done); the outcomes
        #: themselves live in the sink.
        self.completed_units: Set[int] = set()
        self.workers: Dict[int, _RemoteWorker] = {}
        self.workers_ever = 0
        self.reassigned_units = 0
        self.duplicated_units = 0
        self.rejoined_workers = 0
        self.worker_stats: Dict[str, Dict[str, object]] = {}
        self.done = asyncio.Event()
        self.handler_tasks: Set[asyncio.Task] = set()
        self._next_ident = 0
        self._names_seen: Set[str] = set()

    # -- scheduling

    def _dispatch(self) -> None:
        """Hand pending units to free worker slots (event-driven, never blocks)."""
        if self.workers_ever < self.min_workers or self.done.is_set():
            return
        for worker in sorted(self.workers.values(), key=lambda w: -w.free_slots):
            while worker.free_slots > 0 and self.pending:
                self._assign(self.pending.popleft(), worker)
        if not self.pending:
            self._dispatch_stragglers()

    def _assign(self, unit_id: int, worker: _RemoteWorker) -> None:
        worker.assigned[unit_id] = time.monotonic()
        self.unit_holders.setdefault(unit_id, set()).add(worker.ident)
        self._send(worker, {"type": "work", "unit_id": unit_id, "task": task_to_wire(self.tasks[unit_id])})

    def _dispatch_stragglers(self) -> None:
        """Duplicate long-outstanding units onto idle workers (speculative)."""
        now = time.monotonic()
        outstanding = [
            (assigned_at, unit_id)
            for worker in self.workers.values()
            for unit_id, assigned_at in worker.assigned.items()
            if unit_id not in self.completed_units
        ]
        outstanding.sort()
        for assigned_at, unit_id in outstanding:
            if now - assigned_at < self.straggler_seconds:
                break  # sorted oldest-first: the rest are younger still
            holders = self.unit_holders.get(unit_id, set())
            for worker in self.workers.values():
                if worker.free_slots > 0 and worker.ident not in holders:
                    self.duplicated_units += 1
                    self.report(
                        f"unit {unit_id} outstanding for {now - assigned_at:.1f}s; "
                        f"duplicating onto worker {worker.name}"
                    )
                    self._assign(unit_id, worker)
                    break

    def _send(self, worker: _RemoteWorker, header: Dict[str, object], payload: bytes = b"") -> None:
        try:
            worker.writer.write(encode_frame(header, payload))
        except (ConnectionError, RuntimeError):
            # The reader loop of this worker will observe the broken pipe and
            # requeue its units; nothing to do here.
            pass

    # -- lifecycle events

    def _drop_worker(self, worker: _RemoteWorker, reason: str) -> None:
        if self.workers.pop(worker.ident, None) is None:
            return
        requeue = sorted(unit for unit in worker.assigned if unit not in self.completed_units)
        # Iterate highest-first so repeated appendleft leaves the queue front
        # in ascending unit order: units are numbered in series order, and
        # front-of-queue, in-order reassignment lets a p-axis warm-start chain
        # resume on the next worker with minimal cold restarts.
        for unit_id in reversed(requeue):
            self.unit_holders.get(unit_id, set()).discard(worker.ident)
            if not self.unit_holders.get(unit_id):
                # No other worker is computing this unit: back to the queue,
                # in front, so reassignment does not wait behind fresh work.
                self.pending.appendleft(unit_id)
                self.reassigned_units += 1
        worker.assigned.clear()
        try:
            worker.writer.close()
        except Exception:  # pragma: no cover - platform-dependent close errors
            pass
        if requeue:
            self.report(
                f"worker {worker.name} {reason}; requeued {len(requeue)} unit(s) "
                f"{sorted(requeue)}"
            )
        else:
            self.report(f"worker {worker.name} {reason}")
        self._dispatch()

    def _record_result(self, worker: _RemoteWorker, header: Dict[str, object]) -> None:
        unit_id = int(header["unit_id"])
        worker.assigned.pop(unit_id, None)
        self.unit_holders.get(unit_id, set()).discard(worker.ident)
        outcomes = [outcome_from_wire(wire) for wire in header["outcomes"]]
        if unit_id in self.completed_units:
            # Duplicate delivery (straggler or reassigned-but-alive worker):
            # the sink applies first-result-wins / fewer-errors-wins and tells
            # us how many errored points this recompute replaced, so the
            # replacement can be attributed to the worker that computed it.
            replaced = self.sink.accept_unit(unit_id, outcomes)
            if replaced:
                self.report(
                    f"unit {unit_id}: recompute on worker {worker.name} replaced "
                    f"{replaced} errored point(s)"
                )
            if isinstance(header.get("stats"), dict):
                worker.stats = header["stats"]
                self.worker_stats[worker.name] = dict(header["stats"], units=worker.completed_units)
            self._dispatch()
            return
        self.completed_units.add(unit_id)
        self.sink.accept_unit(unit_id, outcomes)
        worker.completed_units += 1
        if isinstance(header.get("stats"), dict):
            worker.stats = header["stats"]
            self.worker_stats[worker.name] = dict(header["stats"], units=worker.completed_units)
        if len(self.completed_units) == len(self.tasks):
            self._finish()
        else:
            self._dispatch()

    def _finish(self) -> None:
        for worker in self.workers.values():
            self._send(worker, {"type": "shutdown"})
        self.done.set()

    # -- asyncio plumbing

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one worker connection: handshake, then frames until EOF."""
        task = asyncio.current_task()
        if task is not None:
            self.handler_tasks.add(task)
            task.add_done_callback(self.handler_tasks.discard)
        worker: Optional[_RemoteWorker] = None
        try:
            header, _ = await asyncio.wait_for(read_frame(reader), timeout=30.0)
            try:
                capacity, advertised_heartbeat = _validate_hello(header, self.required_scenarios)
            except ProtocolError as exc:
                # A garbage hello (wrong type/protocol, non-numeric or
                # non-positive capacity/heartbeat) must refuse *this* worker
                # with a clean error frame -- never take the coordinator (and
                # every healthy worker's sweep) down with an uncaught
                # ValueError.
                self.report(f"rejecting worker hello: {exc}")
                writer.write(encode_frame({"type": "error", "message": str(exc)}))
                await writer.drain()
                return
            self._next_ident += 1
            ident = self._next_ident
            name = str(header.get("name") or f"worker-{ident}")
            if name in self._names_seen:
                # A worker process we already served is back on a fresh
                # connection (self-healing reconnect after a drop).
                self.rejoined_workers += 1
            self._names_seen.add(name)
            worker = _RemoteWorker(
                ident=ident,
                name=f"{name}#{ident}",
                capacity=capacity,
                writer=writer,
                last_seen=time.monotonic(),
                heartbeat_seconds=advertised_heartbeat,
            )
            self.workers[ident] = worker
            self.workers_ever += 1
            self.report(f"worker {worker.name} connected (capacity {worker.capacity})")
            self._send(
                worker,
                {"type": "welcome", "worker_id": ident, "structures": self.structures_blob is not None},
                self.structures_blob or b"",
            )
            if self.done.is_set():
                self._send(worker, {"type": "shutdown"})
            else:
                self._dispatch()
            while True:
                header, _ = await read_frame(reader)
                worker.last_seen = time.monotonic()
                kind = header.get("type")
                if kind == "result":
                    self._record_result(worker, header)
                elif kind == "heartbeat":
                    pass
                elif kind == "goodbye":
                    break
                else:
                    raise ProtocolError(f"unexpected frame {kind!r} from {worker.name}")
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
            pass
        except ProtocolError as exc:
            self.report(f"protocol error: {exc}")
        finally:
            if worker is not None:
                self._drop_worker(worker, "disconnected")
            else:
                writer.close()

    async def monitor(self) -> None:
        """Periodically drop heartbeat-silent workers and chase stragglers.

        The liveness timeout honours each worker's *advertised* heartbeat
        interval (from its hello frame): a coordinator configured with a
        shorter ``--heartbeat-seconds`` than its workers must not declare
        perfectly healthy workers dead between their beacons.
        """
        interval = max(0.1, self.heartbeat_seconds / 2.0)
        while not self.done.is_set():
            await asyncio.sleep(interval)
            now = time.monotonic()
            for worker in list(self.workers.values()):
                timeout = 3.0 * max(self.heartbeat_seconds, worker.heartbeat_seconds)
                if now - worker.last_seen > timeout:
                    self._drop_worker(worker, f"missed heartbeats for {now - worker.last_seen:.1f}s")
            if not self.pending:
                self._dispatch_stragglers()

    def serve(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        on_listen: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Run the fabric on this thread until every unit has completed.

        Args:
            host: Address to listen on.
            port: Port to listen on (0 = ephemeral; the bound port reaches
                ``on_listen``).
            timeout: Optional overall deadline (seconds).
            on_listen: Optional callback invoked with the bound ``(host,
                port)`` once the coordinator is accepting connections.

        Raises:
            ModelError: If the listen address cannot be bound or ``timeout``
                expires before the grid completes.
        """
        if not self.tasks:
            return

        async def _run() -> None:
            try:
                server = await asyncio.start_server(self.handle_connection, host, port)
            except OSError as exc:
                raise ModelError(f"cannot listen on {host}:{port}: {exc}") from exc
            bound = server.sockets[0].getsockname()
            self.report(f"coordinator listening on {bound[0]}:{bound[1]}")
            if on_listen is not None:
                on_listen(bound[0], bound[1])
            monitor = asyncio.ensure_future(self.monitor())
            try:
                await asyncio.wait_for(self.done.wait(), timeout)
            except asyncio.TimeoutError:
                raise ModelError(
                    f"distributed sweep did not complete within {timeout}s "
                    f"({len(self.completed_units)}/{len(self.tasks)} units done, "
                    f"{len(self.workers)} worker(s) connected)"
                ) from None
            finally:
                monitor.cancel()
                server.close()
                await server.wait_closed()
                # Nudge still-connected workers off the socket and let their
                # handlers run to completion, so loop teardown never cancels a
                # handler mid-read (noisy, and it would skip the drop
                # bookkeeping).
                for remote in list(self.workers.values()):
                    remote.writer.close()
                if self.handler_tasks:
                    await asyncio.wait(list(self.handler_tasks), timeout=5.0)

        asyncio.run(_run())


def run_distributed_sweep(
    config: "SweepConfig",
    *,
    progress: Optional[Callable[[str], None]] = None,
    heartbeat_seconds: Optional[float] = None,
    straggler_seconds: Optional[float] = None,
    timeout: Optional[float] = None,
    on_listen: Optional[Callable[[str, int], None]] = None,
) -> SweepResult:
    """Coordinate a sweep over remote TCP workers and return its sweep result.

    Invoked by :func:`repro.core.engine.execute_sweep` when
    ``config.coordinator`` is set; blocks until every grid unit has been
    computed by some worker.  Baseline series are evaluated inline as in the
    local engine, and the assembled :class:`~repro.core.results.SweepResult`
    additionally carries fabric statistics under
    ``result.metadata["distributed"]`` (per-worker ``builds`` / ``attaches`` /
    ``units`` plus reassignment counters).

    Args:
        config: Sweep configuration with ``coordinator`` set to the
            ``HOST:PORT`` to listen on and ``distributed_workers`` to the
            number of workers to wait for before scheduling (0 = first worker).
        progress: Optional per-event callback (worker joins/losses, unit
            reassignments and one line per computed point).
        heartbeat_seconds: Worker liveness granularity; a worker silent for 3x
            this is presumed dead.  Defaults to ``REPRO_HEARTBEAT_SECONDS`` or
            :data:`DEFAULT_HEARTBEAT_SECONDS`.
        straggler_seconds: Age after which an outstanding unit may be
            speculatively duplicated onto an idle worker once the queue is
            empty.  Defaults to ``REPRO_STRAGGLER_SECONDS`` or
            :data:`DEFAULT_STRAGGLER_SECONDS`.
        timeout: Optional overall deadline (seconds); raises
            :class:`~repro.exceptions.ModelError` when exceeded.
        on_listen: Optional callback invoked with the bound ``(host, port)``
            once the coordinator is accepting connections (ports chosen with
            ``:0`` become known here).

    Raises:
        ModelError: If the listen address cannot be bound or ``timeout``
            expires before the grid completes.
    """
    # Imported lazily to break the distributed <-> execution import cycle.
    # Everything that used to live here -- journal open/resume, unit merging,
    # baseline synthesis, result assembly -- now flows through the shared
    # execution plane; this module only contributes the fabric backend.
    from .execution import DistributedBackend, execute_plan

    backend = DistributedBackend(
        heartbeat_seconds=heartbeat_seconds,
        straggler_seconds=straggler_seconds,
        timeout=timeout,
        on_listen=on_listen,
    )
    return execute_plan(config, backend, progress=progress)


# --------------------------------------------------------------------- worker


@dataclass
class WorkerSummary:
    """What one worker process did over the lifetime of its connection(s).

    Attributes:
        units: Work units this worker computed (and successfully reported),
            summed over every connection it served.
        outcomes: Individual grid points inside those units.
        builds: Breadth-first explorations the worker performed -- 0 whenever
            the coordinator shipped structures over the wire.
        attaches: Structures installed from the coordinator's payload.
        clean_shutdown: True when the coordinator said ``shutdown`` (or the
            worker drained gracefully on SIGTERM/SIGINT); False when the
            connection dropped and could not be re-established.
        reconnects: Connections re-established after a drop (self-healing).
        signalled: True when SIGTERM/SIGINT triggered a graceful drain.
    """

    units: int = 0
    outcomes: int = 0
    builds: int = 0
    attaches: int = 0
    clean_shutdown: bool = False
    reconnects: int = 0
    signalled: bool = False


def run_worker(
    connect: str,
    *,
    capacity: int = 1,
    heartbeat_seconds: Optional[float] = None,
    connect_retry_seconds: float = 10.0,
    reconnect_seconds: float = 60.0,
    progress: Optional[Callable[[str], None]] = None,
) -> WorkerSummary:
    """Serve a remote coordinator: compute streamed sweep units until shutdown.

    The worker connects to ``connect`` (with capped exponential backoff for up
    to ``connect_retry_seconds``, so it can be started before the
    coordinator), installs the structures received in the ``welcome`` frame
    into its process-local cache (zero explorations, through the same helper
    as a pool worker), and computes up to ``capacity`` units
    concurrently on a thread pool -- the solvers release the GIL inside their
    numpy kernels, so thread-level capacity scales on numeric workloads while
    keeping the structure cache shared.

    The worker is *self-healing*: a dropped connection (coordinator crash or
    restart) does not kill it -- it re-dials with the same capped exponential
    backoff for up to ``reconnect_seconds`` and re-handshakes, so a
    coordinator restarted with ``--journal PATH --resume`` finds its fleet
    waiting.  SIGTERM/SIGINT trigger a graceful drain: in-flight units finish
    and report their results, a ``goodbye`` frame is sent, and the worker
    exits cleanly.

    Args:
        connect: ``HOST:PORT`` of the coordinator (also accepts a
            :class:`~repro.core.sweep.SweepConfig` whose ``connect`` is set).
        capacity: Concurrent units this worker advertises and computes.
        heartbeat_seconds: Interval between heartbeat frames.  Defaults to
            ``REPRO_HEARTBEAT_SECONDS`` or :data:`DEFAULT_HEARTBEAT_SECONDS`.
        connect_retry_seconds: How long to retry the initial connection.
        reconnect_seconds: How long to retry re-establishing a *dropped*
            connection before giving up; ``0`` restores the legacy
            exit-on-drop behaviour.
        progress: Optional callback for per-unit log lines.

    Returns:
        A :class:`WorkerSummary`; ``clean_shutdown`` distinguishes a
        coordinator-initiated shutdown (or graceful signal drain) from a
        dropped connection that could not be healed.

    Raises:
        ModelError: If the coordinator cannot be reached within
            ``connect_retry_seconds`` or speaks a different protocol version.
    """
    if hasattr(connect, "connect"):  # a SweepConfig-style object
        connect = str(connect.connect)
    heartbeat_seconds = resolve_heartbeat_seconds(heartbeat_seconds)
    host, port = parse_address(str(connect))
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if reconnect_seconds < 0:
        raise ValueError(f"reconnect_seconds must be >= 0, got {reconnect_seconds}")

    report = ProgressReporter.wrap(progress)

    summary = WorkerSummary()

    async def _dial(
        draining: asyncio.Event, budget: float, *, initial: bool
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """Connect with capped exponential backoff; ``None`` = gave up/draining.

        Raises:
            ModelError: When the *initial* connection budget is exhausted (a
                worker that never reached its coordinator is a setup error; a
                worker that lost an established one merely reports and exits).
        """
        deadline = time.monotonic() + budget
        delays = backoff_delays(initial=0.2, cap=2.0)
        while not draining.is_set():
            try:
                return await asyncio.open_connection(host, port)
            except OSError as exc:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if initial:
                        raise ModelError(
                            f"cannot connect to coordinator at {host}:{port}: {exc}"
                        ) from exc
                    report(f"cannot reconnect to coordinator at {host}:{port}: {exc}")
                    return None
                try:
                    # Sleeping on the drain event keeps signal response
                    # instant even mid-backoff.
                    await asyncio.wait_for(
                        draining.wait(), timeout=min(next(delays), remaining)
                    )
                except asyncio.TimeoutError:
                    pass
        return None

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        draining = asyncio.Event()

        def request_drain(signum: int) -> None:
            if not draining.is_set():
                summary.signalled = True
                report(
                    f"signal {signum}: draining (finishing in-flight unit(s), "
                    f"then goodbye)"
                )
                draining.set()

        import signal as signal_module

        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(sig, request_drain, int(sig))
            except (NotImplementedError, RuntimeError, ValueError):
                # Platforms/threads without signal-handler support keep the
                # default behaviour (hard exit).
                pass

        first_connection = True
        while True:
            budget = connect_retry_seconds if first_connection else reconnect_seconds
            connection = await _dial(draining, budget, initial=first_connection)
            if connection is None:
                break
            reader, writer = connection
            if not first_connection:
                summary.reconnects += 1
                report(f"reconnected to coordinator at {host}:{port}")
            first_connection = False
            clean = await _serve_connection(loop, draining, reader, writer)
            if clean or draining.is_set() or reconnect_seconds <= 0:
                break
            report("connection to coordinator lost; reconnecting")
        stats = structure_cache_stats()
        summary.builds = stats["builds"]
        summary.attaches = stats["attaches"]

    async def _serve_connection(
        loop: asyncio.AbstractEventLoop,
        draining: asyncio.Event,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one established connection; return True on clean shutdown."""
        write_lock = asyncio.Lock()
        stop = asyncio.Event()

        def compute_in_daemon_thread(task: AttackTask) -> "asyncio.Future":
            """Run one unit on a dedicated *daemon* thread.

            Daemon threads (unlike a ``ThreadPoolExecutor``'s workers) are not
            joined at interpreter exit, so a unit abandoned at shutdown --
            e.g. one that was straggler-duplicated and already completed
            elsewhere -- can never block the worker process from exiting.
            Concurrency is bounded by the coordinator, which never keeps more
            than the advertised ``capacity`` units outstanding per worker.
            """
            future = loop.create_future()

            def runner() -> None:
                try:
                    result = _run_attack_task(task)
                except BaseException as exc:  # noqa: BLE001 - marshalled to the loop
                    outcome: Tuple[bool, object] = (False, exc)
                else:
                    outcome = (True, result)
                def resolve() -> None:
                    if future.cancelled():
                        return
                    ok, value = outcome
                    if ok:
                        future.set_result(value)
                    else:
                        future.set_exception(value)
                try:
                    loop.call_soon_threadsafe(resolve)
                except RuntimeError:
                    pass  # loop already closed; the process is exiting

            threading.Thread(target=runner, daemon=True, name="repro-worker-unit").start()
            return future

        async def send(header: Dict[str, object]) -> None:
            async with write_lock:
                writer.write(encode_frame(header))
                await writer.drain()

        async def heartbeat() -> None:
            while not stop.is_set():
                await asyncio.sleep(heartbeat_seconds)
                if maybe_fail("distributed.heartbeat_stall"):
                    # Chaos site: skip this beacon.  Enough consecutive stalls
                    # make the coordinator presume us dead and requeue.
                    continue
                try:
                    await send({"type": "heartbeat"})
                except (ConnectionError, RuntimeError):
                    return

        async def run_unit(unit_id: int, task: AttackTask) -> None:
            outcomes = await compute_in_daemon_thread(task)
            stats = structure_cache_stats()
            frame = {
                "type": "result",
                "unit_id": unit_id,
                "outcomes": [outcome_to_wire(outcome) for outcome in outcomes],
                "stats": {
                    "builds": stats["builds"],
                    "attaches": stats["attaches"],
                    "entries": stats["entries"],
                },
            }
            try:
                if maybe_fail("distributed.result_drop"):
                    # Chaos site: silently swallow the result frame.  Recovery
                    # is the coordinator's job (heartbeat requeue after we are
                    # presumed dead, or straggler duplication).
                    report(f"unit {unit_id}: result frame dropped (injected fault)")
                    return
                if maybe_fail("distributed.result_corrupt"):
                    # Chaos site: garble the frame's header bytes.  The
                    # coordinator must reject it as a ProtocolError and drop
                    # this worker, which then self-heals by reconnecting.
                    report(f"unit {unit_id}: result frame corrupted (injected fault)")
                    corrupted = bytearray(encode_frame(frame))
                    for index in range(8, min(len(corrupted), 24)):
                        corrupted[index] ^= 0xFF
                    async with write_lock:
                        writer.write(bytes(corrupted))
                        await writer.drain()
                    return
                await send(frame)
            except (ConnectionError, RuntimeError):
                # The reader loop observes the dropped connection; the
                # coordinator will reassign this unit elsewhere.
                return
            summary.units += 1
            summary.outcomes += len(outcomes)
            report(f"unit {unit_id}: {len(outcomes)} point(s) done")

        await send(
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "capacity": capacity,
                "heartbeat_seconds": heartbeat_seconds,
                "name": f"{socket.gethostname()}:{os.getpid()}",
                "scenarios": [entry.scenario_id for entry in list_attacks()],
            }
        )
        heartbeats = asyncio.ensure_future(heartbeat())
        units_in_flight: Set[asyncio.Task] = set()
        clean = False
        try:
            while True:
                frame_future: asyncio.Task = asyncio.ensure_future(read_frame(reader))
                drain_future: asyncio.Task = asyncio.ensure_future(draining.wait())
                done, _ = await asyncio.wait(
                    {frame_future, drain_future}, return_when=asyncio.FIRST_COMPLETED
                )
                if frame_future not in done:
                    # Graceful signal drain: stop taking frames, let every
                    # in-flight unit finish and report its result, then say
                    # goodbye below (clean counts as a proper shutdown).
                    frame_future.cancel()
                    if units_in_flight:
                        await asyncio.wait(list(units_in_flight))
                    clean = True
                    break
                drain_future.cancel()
                header, payload = frame_future.result()
                kind = header.get("type")
                if kind == "welcome":
                    if header.get("structures") and payload:
                        report(f"installed {install_structure_payload(payload)} structure(s)")
                elif kind == "work":
                    task = task_from_wire(header["task"])
                    unit = asyncio.ensure_future(run_unit(int(header["unit_id"]), task))
                    units_in_flight.add(unit)
                    unit.add_done_callback(units_in_flight.discard)
                elif kind == "shutdown":
                    clean = True
                    # Units still in flight were duplicated or completed
                    # elsewhere; the coordinator no longer wants them.
                    break
                elif kind == "error":
                    raise ModelError(f"coordinator refused: {header.get('message')}")
                else:
                    raise ProtocolError(f"unexpected frame {kind!r} from coordinator")
        except (asyncio.IncompleteReadError, ConnectionError):
            report("connection to coordinator lost")
        finally:
            stop.set()
            heartbeats.cancel()
            for unit in units_in_flight:
                unit.cancel()
            try:
                if clean:
                    summary.clean_shutdown = True
                    await send({"type": "goodbye"})
            except (ConnectionError, RuntimeError):
                pass
            writer.close()
        return clean

    asyncio.run(_serve())
    return summary


__all__ = [
    "DEFAULT_HEARTBEAT_SECONDS",
    "DEFAULT_STRAGGLER_SECONDS",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerSummary",
    "decode_frame",
    "encode_frame",
    "outcome_from_wire",
    "outcome_to_wire",
    "parse_address",
    "read_frame",
    "run_distributed_sweep",
    "run_worker",
    "task_from_wire",
    "task_to_wire",
]
