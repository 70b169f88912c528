"""Property tests for the torn-read defenses of the shm return paths.

Two protocols promise "never a torn read" and both are example-tested
elsewhere; here Hypothesis drives them through randomized schedules:

* the results plane's per-slot **seqlock** (:mod:`repro.core.results_plane`):
  a writer interrupted after *any* prefix of its field stores must read back
  as "not ready" (``None``), never as a half-written outcome, and a completed
  write must read back equal -- for arbitrary outcomes across the optional
  field combinations;
* the journal's **CRC envelope** (:mod:`repro.core.journal`): records
  round-trip through encode/decode, a tail torn at *any* byte offset scans to
  exactly the records whose lines survived whole, and corruption that is
  provably not a torn tail (an invalid record followed by valid ones) raises
  instead of resuming from a lie.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PointOutcome
from repro.core.journal import _scan, decode_record, encode_record
from repro.core.results_plane import (
    ERROR_BYTES,
    SCENARIO_BYTES,
    SERIES_BYTES,
    create_results_plane,
)
from repro.exceptions import ModelError

# ------------------------------------------------------------------- strategies

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_counts = st.integers(min_value=0, max_value=2**62)


def _field_text(capacity: int) -> st.SearchStrategy:
    """UTF-8 text that fits a fixed-size record field and has no NUL bytes."""
    alphabet = st.characters(blacklist_characters="\x00", max_codepoint=0x2FFF)
    return st.text(alphabet=alphabet, max_size=capacity // 4)


def _outcomes() -> st.SearchStrategy:
    return st.builds(
        PointOutcome,
        gamma_index=st.integers(0, 1),
        p_index=st.integers(0, 1),
        attack_index=st.integers(0, 1),
        p=_finite,
        gamma=_finite,
        series=_field_text(SERIES_BYTES),
        errev=st.none() | _finite,
        seconds=_finite,
        solver_iterations=_counts,
        num_states=_counts,
        error=st.none() | _field_text(ERROR_BYTES),
        beta_low=st.none() | _finite,
        beta_up=st.none() | _finite,
        scenario=st.none() | _field_text(SCENARIO_BYTES),
        recovery_retries=st.none() | _counts,
    )


def _records() -> st.SearchStrategy:
    """JSON-safe journal records (top-level dict, finite floats)."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**53), max_value=2**53)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=12)
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    )
    return st.dictionaries(st.text(max_size=6), values, min_size=0, max_size=4)


# ------------------------------------------------------------ seqlock interleaving


class _WriterDied(Exception):
    """Raised by the store counter to cut a write short at an exact store."""


class _CountingField:
    def __init__(self, array, counter):
        self._array = array
        self._counter = counter

    def __setitem__(self, key, value):
        self._counter.step()
        self._array[key] = value

    def __getitem__(self, key):
        return self._array[key]


class _CountingRecords:
    """Proxy over the plane's record array that dies after ``budget`` stores.

    ``ResultsPlane.write`` performs ``records[field][slot] = value`` stores in
    a fixed protocol order; routing them through this proxy simulates a writer
    killed between any two stores -- the exact interleavings a concurrently
    draining reader can observe.
    """

    def __init__(self, records, budget=math.inf):
        self._records = records
        self._budget = budget
        self.stores = 0

    def __getitem__(self, field):
        return _CountingField(self._records[field], self)

    def step(self):
        if self.stores >= self._budget:
            raise _WriterDied()
        self.stores += 1


def _count_stores(outcome: PointOutcome) -> int:
    """How many field stores a full write of ``outcome`` performs."""
    plane = create_results_plane(2, 2, 2)
    try:
        counting = _CountingRecords(plane._records)
        plane._records, real = counting, plane._records
        try:
            assert plane.write(outcome)
        finally:
            plane._records = real
        return counting.stores
    finally:
        plane.release()


@settings(deadline=None, max_examples=60)
@given(outcome=_outcomes(), data=st.data())
def test_interrupted_writer_never_yields_a_torn_read(outcome, data):
    """A write cut short after ANY store prefix reads as None, never torn."""
    total = _count_stores(outcome)
    died_after = data.draw(st.integers(min_value=0, max_value=total - 1))
    plane = create_results_plane(2, 2, 2)
    try:
        slot = plane.slot_of(outcome.gamma_index, outcome.p_index, outcome.attack_index)
        counting = _CountingRecords(plane._records, budget=died_after)
        plane._records, real = counting, plane._records
        try:
            with pytest.raises(_WriterDied):
                plane.write(outcome)
        finally:
            plane._records = real
        assert plane.read(slot) is None, (
            f"writer died after {died_after}/{total} stores and the reader "
            "saw a half-written record"
        )
    finally:
        plane.release()


@settings(deadline=None, max_examples=60)
@given(outcome=_outcomes())
def test_completed_write_reads_back_equal(outcome):
    """The last store publishes: a completed write round-trips exactly."""
    plane = create_results_plane(2, 2, 2)
    try:
        slot = plane.slot_of(outcome.gamma_index, outcome.p_index, outcome.attack_index)
        assert plane.write(outcome)
        assert plane.read(slot) == outcome
        assert plane.drain_new() == [outcome]
    finally:
        plane.release()


@settings(deadline=None, max_examples=30)
@given(outcome=_outcomes())
def test_republish_during_decode_is_discarded(outcome):
    """A slot whose seq moves mid-decode is thrown away (the re-check)."""
    plane = create_results_plane(2, 2, 2)
    try:
        slot = plane.slot_of(outcome.gamma_index, outcome.p_index, outcome.attack_index)
        assert plane.write(outcome)
        original_decode = plane._decode

        def racing_decode(index):
            decoded = original_decode(index)
            plane._records["seq"][index] = 3  # writer re-opens the slot mid-read
            return decoded

        plane._decode = racing_decode
        try:
            assert plane.read(slot) is None
        finally:
            del plane._decode
            plane._records["seq"][slot] = 2
        assert plane.read(slot) == outcome
    finally:
        plane.release()


# ------------------------------------------------------------------ journal CRC


@settings(deadline=None, max_examples=100)
@given(record=_records())
def test_journal_record_round_trips(record):
    assert decode_record(encode_record(record).rstrip(b"\n")) == record


@settings(deadline=None, max_examples=60)
@given(records=st.lists(_records(), min_size=1, max_size=5), data=st.data())
def test_torn_tail_scans_to_the_intact_prefix(records, data):
    """Truncation at ANY byte offset resumes from whole lines, never raises."""
    lines = [encode_record(record) for record in records]
    image = b"".join(lines)
    cut = data.draw(st.integers(min_value=0, max_value=len(image)))
    torn = image[:cut]
    scanned, validated = _scan(torn)
    # Exactly the records whose full line (newline included) survived the cut.
    survivors = []
    offset = 0
    for record, line in zip(records, lines):
        offset += len(line)
        if offset <= cut:
            survivors.append(record)
    assert scanned == survivors
    assert validated == sum(len(line) for line in lines[: len(survivors)])


@settings(deadline=None, max_examples=60)
@given(records=st.lists(_records(), min_size=2, max_size=5), data=st.data())
def test_mid_file_corruption_refuses_to_resume(records, data):
    """An invalid record followed by valid ones cannot be a torn tail: raise."""
    lines = [encode_record(record) for record in records]
    victim = data.draw(st.integers(min_value=0, max_value=len(records) - 2))
    digit = data.draw(st.integers(min_value=0, max_value=7))
    line = lines[victim]
    start = line.index(b'"crc": "') + len(b'"crc": "')
    position = start + digit
    flipped = b"0" if line[position : position + 1] != b"0" else b"f"
    lines[victim] = line[:position] + flipped + line[position + 1 :]
    with pytest.raises(ModelError, match="corrupt"):
        _scan(b"".join(lines))
