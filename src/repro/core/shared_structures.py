"""The structure payload: every parent-built skeleton of a sweep as one byte string.

The sweep engine's unit of reuse is the :class:`~repro.attacks.registry.
ScenarioStructure`: the ``(p, gamma)``-independent skeleton of one attack
configuration, a pure-Python breadth-first exploration that dominates model
construction cost.  Sweep workers never explore.  The parent builds every
skeleton of the grid once (:func:`repro.core.engine._prewarm_structure_cache`),
:func:`pack_structures` serialises them into one flat byte string, and every
pool worker installs that payload in its initializer with
:func:`install_structure_payload`, fork- and spawn-started alike
(:class:`repro.core.execution.PoolBackend`).

One decode path therefore serves every worker, and
``structure_cache_stats()["builds"]`` stays 0 in all of them -- the
backend-conformance suite asserts it on fork and spawn workers.

Payload format
--------------
A 64-byte header of little-endian ``uint64`` words::

    [0] REPRO_MAGIC         -- identifies a repro payload
    [1] STRUCTURES_MAGIC    -- identifies a structure payload
    [2] STRUCTURES_VERSION  -- layout generation; a reader built for another
                               generation refuses instead of decoding shifted
                               fields
    [3] body size           -- bytes following the header
    [4] directory size      -- bytes of the JSON directory opening the body
    [5..7] reserved (zero)

The body is a JSON directory listing every array of every structure as
``[structure_index, scenario_id, buffer_key, dtype, shape, offset]``, followed
by the raw array bytes.  Offsets count from the first 64-byte aligned position
after the directory.  The versioned ``scenario_id`` selects the
:class:`~repro.attacks.registry.ScenarioStructure` subclass that decodes the
arrays, so a reader that does not implement the scenario (or implements
another version of it) refuses the payload.

The payload crosses a process boundary, so decoding trusts nothing: the
directory is JSON (never unpickled), every structure must carry exactly its
scenario's buffers, every decoded skeleton passes
:meth:`~repro.attacks.registry.ScenarioStructure.check_layout` (CSR offsets,
index ranges, probability tags, finite rewards) before a worker can
instantiate it, and every malformed payload raises
:class:`~repro.exceptions.ModelError`.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..attacks.registry import ScenarioStructure, resolve_scenario
from ..attacks.structure import replace_structure_cache
from ..exceptions import ModelError

__all__ = [
    "HEADER_BYTES",
    "REPRO_MAGIC",
    "STRUCTURES_MAGIC",
    "STRUCTURES_VERSION",
    "install_structure_payload",
    "pack_structures",
    "unpack_structures",
]

#: First header word of every repro payload (b"REPROSHM" as an integer tag).
REPRO_MAGIC = 0x5245_5052_4F53_484D

#: Second header word: the payload holds packed structures (b"REPROMDL").
STRUCTURES_MAGIC = 0x5245_5052_4F4D_444C

#: Layout generation of the payload.  Bump whenever the header, the directory
#: entries or the array packing change.  Generation 2 replaced the pickled
#: directory by JSON.
STRUCTURES_VERSION = 2

_HEADER = struct.Struct("<8Q")

#: Fixed size of the header preceding the body.
HEADER_BYTES = _HEADER.size

#: Alignment (bytes) of every array inside the body.
ALIGNMENT = 64

#: dtype kinds a payload array may have: bool, signed and unsigned int, float.
_NUMERIC_KINDS = "biuf"


def _align(offset: int) -> int:
    """Round ``offset`` up to :data:`ALIGNMENT`."""
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def pack_structures(structures: Iterable[ScenarioStructure]) -> bytes:
    """Serialise structures into one self-contained byte string.

    Raises:
        ModelError: If ``structures`` is empty (packing nothing is always a
            caller bug).
    """
    structure_list = list(structures)
    if not structure_list:
        raise ModelError("cannot pack an empty set of structures")
    directory: List[Tuple[int, str, str, str, List[int], int]] = []
    arrays: List[np.ndarray] = []
    offset = 0
    for index, structure in enumerate(structure_list):
        buffers = structure.to_buffers()
        for key in type(structure).BUFFER_KEYS:
            array = np.ascontiguousarray(buffers[key])
            offset = _align(offset)
            directory.append(
                (index, structure.scenario_id, key, array.dtype.str, list(array.shape), offset)
            )
            arrays.append(array)
            offset += array.nbytes
    directory_bytes = json.dumps(directory).encode("ascii")
    data_start = _align(HEADER_BYTES + len(directory_bytes))
    out = bytearray(data_start + offset)
    _HEADER.pack_into(
        out,
        0,
        REPRO_MAGIC,
        STRUCTURES_MAGIC,
        STRUCTURES_VERSION,
        len(out) - HEADER_BYTES,
        len(directory_bytes),
        0,
        0,
        0,
    )
    out[HEADER_BYTES : HEADER_BYTES + len(directory_bytes)] = directory_bytes
    for (_index, _scenario_id, _key, _dtype, shape, rel_offset), array in zip(directory, arrays):
        target = np.ndarray(
            tuple(shape), dtype=array.dtype, buffer=out, offset=data_start + rel_offset
        )
        target[...] = array
    return bytes(out)


def _read_header(buf: memoryview) -> Tuple[int, int]:
    """Validate the header of a structure payload; return ``(body, directory)`` sizes."""
    if len(buf) < HEADER_BYTES:
        raise ModelError(
            f"structure payload of {len(buf)} bytes is too small to hold the "
            f"{HEADER_BYTES}-byte header"
        )
    magic, kind, version, body_size, directory_size = _HEADER.unpack_from(buf)[:5]
    if magic != REPRO_MAGIC:
        raise ModelError("not a repro payload (magic mismatch)")
    if kind != STRUCTURES_MAGIC:
        raise ModelError(
            f"not a structure payload (kind magic mismatch: found 0x{kind:x}, "
            f"expected 0x{STRUCTURES_MAGIC:x})"
        )
    if version != STRUCTURES_VERSION:
        raise ModelError(
            f"structure payload uses layout version {version}, but this build "
            f"implements version {STRUCTURES_VERSION}; refusing to decode shifted fields"
        )
    if len(buf) - HEADER_BYTES < body_size:
        raise ModelError(
            f"structure payload records a {body_size}-byte body but only "
            f"{len(buf) - HEADER_BYTES} bytes follow the header"
        )
    if directory_size > body_size:
        raise ModelError(
            f"structure payload directory ({directory_size} bytes) overruns its "
            f"{body_size}-byte body"
        )
    return body_size, directory_size


def unpack_structures(data: bytes) -> List[ScenarioStructure]:
    """Reconstruct the structures serialised by :func:`pack_structures`.

    The numeric arrays of the returned structures are read-only views into
    ``data`` (zero-copy); those views keep ``data`` alive for as long as any
    structure is.

    Raises:
        ModelError: If ``data`` is not a well-formed :func:`pack_structures`
            payload of this build's layout generation, names a scenario (or
            scenario version) this process does not implement, or decodes to
            a skeleton that fails its layout check.
    """
    try:
        buf = memoryview(data)
        body_size, directory_size = _read_header(buf)
        body = buf[: HEADER_BYTES + body_size]
        directory = json.loads(bytes(body[HEADER_BYTES : HEADER_BYTES + directory_size]))
        data_start = _align(HEADER_BYTES + directory_size)
        buffer_sets: Dict[int, Dict[str, np.ndarray]] = {}
        scenario_ids: Dict[int, str] = {}
        for index, scenario_id, key, dtype_str, shape, rel_offset in directory:
            dtype = np.dtype(dtype_str)
            if dtype.kind not in _NUMERIC_KINDS:
                # Object (pointer) arrays over foreign bytes would dereference
                # whatever the peer sent.
                raise ModelError(
                    f"malformed structure payload: buffer {key!r} has non-numeric "
                    f"dtype {dtype_str!r}"
                )
            view = np.ndarray(
                tuple(shape), dtype=dtype, buffer=body, offset=data_start + rel_offset
            )
            view.flags.writeable = False
            if scenario_ids.setdefault(index, scenario_id) != scenario_id:
                raise ModelError(
                    f"malformed structure payload: structure {index} names two scenarios"
                )
            buffers = buffer_sets.setdefault(index, {})
            if key in buffers:
                raise ModelError(
                    f"malformed structure payload: buffer {key!r} of structure {index} "
                    f"appears twice"
                )
            buffers[key] = view
        structures = []
        for index in sorted(buffer_sets):
            structure_cls = resolve_scenario(scenario_ids[index]).structure_cls
            expected, found = set(structure_cls.BUFFER_KEYS), set(buffer_sets[index])
            if found != expected:
                raise ModelError(
                    f"malformed structure payload: structure {index} "
                    f"({scenario_ids[index]}) lacks buffers {sorted(expected - found)} "
                    f"and has unexpected buffers {sorted(found - expected)}"
                )
            structure = structure_cls.from_buffers(buffer_sets[index])
            structure.check_layout()
            structures.append(structure)
        return structures
    except ModelError:
        raise
    except Exception as exc:
        raise ModelError(f"malformed structure payload: {type(exc).__name__}: {exc}") from exc


def install_structure_payload(payload: bytes) -> int:
    """Replace this process's structure cache with the skeletons in ``payload``.

    The one install path of every sweep worker: the pool initializer (fork and
    spawn).  The payload is
    decoded first, so a malformed one leaves the cache untouched; the swap
    then drops whatever the process held before -- including the private
    copies and build counters a fork-started worker inherits from its parent
    -- so the worker reports zero builds.  Must stay importable at module top
    level (it is pickled as the pool initializer).

    Returns:
        The number of structures installed.

    Raises:
        ModelError: If ``payload`` is malformed (see :func:`unpack_structures`).
    """
    structures = unpack_structures(payload)
    replace_structure_cache(structures)
    return len(structures)
