"""Property tests for the torn-tail defenses of the journal's CRC envelope.

Hypothesis drives :mod:`repro.core.journal` through randomized inputs:
records round-trip through encode/decode, a tail torn at *any* byte offset
scans to exactly the records whose lines survived whole, and corruption that
is provably not a torn tail (an invalid record followed by valid ones) raises
instead of resuming from a lie.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.journal import _scan, decode_record, encode_record
from repro.exceptions import ModelError


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
