"""Durable, crash-safe sweep journal with checksummed records and resume.

The engine's certified bounds make sweeps idempotent by grid key: recomputing
a ``(gamma, p, attack)`` point yields bit-for-bit the value it produced the
first time (the engine's core determinism invariant).  The journal turns that
idempotence into crash safety -- every computed
:class:`~repro.core.engine.PointOutcome` is appended to a JSONL file as it
lands, and a restarted sweep (``repro sweep --journal PATH --resume``) replays
the journaled points through the same :func:`assemble_sweep_result` merge the
live sweep uses, computing only the delta.  The resumed result is therefore
indistinguishable from an uninterrupted run.

Record format
-------------
One JSON object per line::

    {"crc": "89abcdef", "record": {"kind": "meta" | "point", ...}}

``crc`` is the CRC-32 of the canonical JSON encoding (sorted keys, no
whitespace) of ``record``, so every record self-validates.  The first record
of a journal is a ``meta`` record carrying the journal format version and a
*fingerprint* of the sweep -- grid, attack configurations, analysis settings,
versioned scenario ids and package version -- and every resume refuses a
journal whose fingerprint differs: replaying points of a different grid or
code version would silently violate the bit-for-bit contract.  Every later
record is a ``point`` holding one serialised ``PointOutcome`` (JSON round-trips
floats exactly, so replayed bounds are bit-for-bit identical).

Crash model
-----------
Appends are single ``write()`` calls of complete lines, flushed per record, so
the only state a crash can leave behind is a *torn tail*: a final partial line
(or a final line whose checksum fails).  Opening a journal scans it and
truncates such a tail -- the torn point is simply recomputed.  An invalid
record *followed by valid ones* is not a torn tail but mid-file corruption
(bit rot, concurrent writers) and is rejected loudly.

Durability is configurable (``--journal-fsync``): ``"never"`` trusts the OS
page cache, ``"close"`` (default) fsyncs once when the journal closes, and
``"always"`` fsyncs after every record -- the paranoid policy that survives
power loss at per-record cost (quantified by
``benchmarks/test_bench_journal.py``).

Resume semantics
----------------
:meth:`SweepJournal.replayed_outcomes` returns the journaled *successful*
points keyed by grid coordinates.  Records carrying an ``error`` are replayed
as absent so failed points get a fresh chance on resume.  The engine skips a
unit of work only when **all** of its grid keys are replayed; a partially
journaled chained series (``warm_start_across_points`` /
``reuse_p_axis_bounds``) is recomputed whole, which is safe because the
recomputed values are identical and the journal merge is last-write-wins on
equal values.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..exceptions import ConfigurationError, ModelError
from .engine import PointOutcome

#: Supported ``fsync`` policies, least to most durable.
FSYNC_POLICIES = ("never", "close", "always")

#: Format version stamped into (and checked against) every journal's meta record.
JOURNAL_VERSION = 3

GridKey = Tuple[int, int, int]


def _canonical(record: Dict[str, object]) -> str:
    """Canonical JSON encoding the per-record checksum is computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _checksum(payload: str) -> str:
    """CRC-32 of ``payload`` as 8 hex digits."""
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_record(record: Dict[str, object]) -> bytes:
    """Encode one journal record as a checksummed JSONL line (with newline)."""
    payload = _canonical(record)
    line = json.dumps({"crc": _checksum(payload), "record": record}, sort_keys=True)
    return line.encode("utf-8") + b"\n"


def decode_record(line: bytes) -> Optional[Dict[str, object]]:
    """Decode one journal line; ``None`` when unparseable or checksum-invalid."""
    try:
        envelope = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(envelope, dict):
        return None
    record = envelope.get("record")
    crc = envelope.get("crc")
    if not isinstance(record, dict) or not isinstance(crc, str):
        return None
    if _checksum(_canonical(record)) != crc:
        return None
    return record


def journal_fingerprint(config: "object") -> Dict[str, object]:
    """Identity of a sweep for resume validation: grid + configs + versions.

    Two sweeps with equal fingerprints compute bit-for-bit identical certified
    bounds for every grid key, so replaying one's journal into the other is
    sound.  Anything that could change a computed value is included: the grid,
    the attack configurations, the analysis settings, the chaining flags, the
    versioned scenario ids and the package version.  Worker counts and start
    methods are excluded -- they change scheduling, never values.
    """
    from .. import __version__
    from ..attacks.registry import scenario_id_for
    from .sweep import SweepConfig

    assert isinstance(config, SweepConfig)
    return {
        "journal_version": JOURNAL_VERSION,
        "package_version": __version__,
        "p_values": [float(p) for p in config.p_values],
        "gammas": [float(g) for g in config.gammas],
        "attacks": [attack.to_dict() for attack in config.attack_configs],
        "analysis": config.analysis.to_dict(),
        "scenarios": sorted(
            {scenario_id_for(attack.scenario) for attack in config.attack_configs}
        ),
        "warm_start_across_points": bool(config.warm_start_across_points),
        "reuse_p_axis_bounds": bool(config.reuse_p_axis_bounds),
    }


def _scan(data: bytes) -> Tuple[List[Dict[str, object]], int]:
    """Validate a journal image; return (valid records, validated byte length).

    The validated length covers the longest prefix of intact records.  A
    trailing invalid region (torn tail) is excluded from it; an invalid region
    with *valid records after it* is mid-file corruption and raises.

    Raises:
        ModelError: On an invalid record that is not part of a torn tail.
    """
    records: List[Dict[str, object]] = []
    validated = 0
    invalid_seen = False
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            # Final line never got its newline: torn mid-append.
            break
        record = decode_record(data[pos:newline])
        pos = newline + 1
        if record is None:
            invalid_seen = True
            continue
        if invalid_seen:
            raise ModelError(
                "journal is corrupt: an invalid record is followed by valid "
                "ones (a crash can only tear the tail; refusing to resume)"
            )
        records.append(record)
        validated = pos
    return records, validated


class SweepJournal:
    """Append-only crash-safe journal of one sweep's computed point outcomes.

    Create via :meth:`open`; call :meth:`record` per computed outcome and
    :meth:`close` (or use as a context manager) when the sweep finishes.
    Instances are process-local and must only be written from the process that
    owns the sweep (the engine parent) -- workers ship outcomes to the owner,
    which journals them exactly once.
    """

    def __init__(
        self,
        path: Path,
        handle: io.BufferedWriter,
        fsync: str,
        replayed: Dict[GridKey, PointOutcome],
    ) -> None:
        self.path = path
        self._handle: Optional[io.BufferedWriter] = handle
        self.fsync = fsync
        self._replayed = replayed
        #: Point records appended by this process (excludes replayed ones).
        self.recorded = 0

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        config: "object",
        *,
        resume: bool = False,
        fsync: str = "close",
    ) -> "SweepJournal":
        """Open (and validate) a journal for the given sweep configuration.

        Without ``resume`` any existing file is truncated and a fresh meta
        record written.  With ``resume`` the file is scanned: a torn tail is
        truncated, intact point records become :meth:`replayed_outcomes`, and
        the meta fingerprint must match ``config`` exactly.  Resuming a
        missing or empty journal is a fresh start, so the first run of a
        restart loop needs no special casing.

        Raises:
            ConfigurationError: On an unknown ``fsync`` policy.
            ModelError: On mid-file corruption or a fingerprint mismatch.
        """
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"journal fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        path = Path(path)
        fingerprint = journal_fingerprint(config)
        replayed: Dict[GridKey, PointOutcome] = {}
        records: List[Dict[str, object]] = []
        validated = 0
        if resume and path.exists():
            data = path.read_bytes()
            records, validated = _scan(data)
            if validated < len(data):
                # Torn tail: drop it before appending.
                with open(path, "r+b") as repair:
                    repair.truncate(validated)
        if records:
            meta = records[0]
            if meta.get("kind") != "meta":
                raise ModelError(
                    f"journal {path} does not start with a meta record; refusing to resume"
                )
            if _canonical(meta.get("fingerprint", {})) != _canonical(fingerprint):  # type: ignore[arg-type]
                raise ModelError(
                    f"journal {path} was written by a different sweep "
                    "(grid, attack/analysis configuration or code version "
                    "differ); resuming it would violate the bit-for-bit "
                    "contract.  Use a fresh journal path."
                )
            for record in records[1:]:
                if record.get("kind") != "point":
                    raise ModelError(
                        f"journal {path} contains an unknown record kind "
                        f"{record.get('kind')!r}; refusing to resume"
                    )
                outcome = PointOutcome(**record["outcome"])  # type: ignore[arg-type]
                if outcome.error is not None:
                    # Failed points get a fresh chance on resume.
                    continue
                key = (outcome.gamma_index, outcome.p_index, outcome.attack_index)
                replayed[key] = outcome
            handle = open(path, "ab")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(path, "wb")
            handle.write(
                encode_record({"kind": "meta", "fingerprint": fingerprint})
            )
            handle.flush()
        return cls(path, handle, fsync, replayed)

    @property
    def replayed(self) -> int:
        """Number of successful point outcomes replayed from the journal."""
        return len(self._replayed)

    def replayed_outcomes(self) -> Dict[GridKey, PointOutcome]:
        """Successful journaled outcomes, keyed by grid coordinates (a copy)."""
        return dict(self._replayed)

    def record(self, outcome: PointOutcome) -> None:
        """Append one computed outcome (no-op for keys already replayed).

        The replayed no-op keeps the journal canonical across restarts: a
        recomputed chained series re-reports keys the journal already holds
        with identical values, and re-appending them would make the journal
        grow per restart.
        """
        handle = self._handle
        if handle is None:
            raise ModelError(f"journal {self.path} is closed")
        key = (outcome.gamma_index, outcome.p_index, outcome.attack_index)
        if key in self._replayed:
            return
        from dataclasses import asdict

        handle.write(encode_record({"kind": "point", "outcome": asdict(outcome)}))
        handle.flush()
        if self.fsync == "always":
            os.fsync(handle.fileno())
        self.recorded += 1

    def close(self) -> None:
        """Flush (and, per policy, fsync) and close the journal. Idempotent."""
        handle = self._handle
        if handle is None:
            return
        self._handle = None
        handle.flush()
        if self.fsync != "never":
            os.fsync(handle.fileno())
        handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "FSYNC_POLICIES",
    "JOURNAL_VERSION",
    "GridKey",
    "SweepJournal",
    "decode_record",
    "encode_record",
    "journal_fingerprint",
]
