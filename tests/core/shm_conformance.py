"""Reusable conformance harness for shared-memory planes.

Every plane built on the substrate (:mod:`repro.core.shm`) must satisfy the
same lifecycle invariants: payload round-trip equality across a real attach,
unlink-after-release under fork and spawn alike, no leak when an attacher is
SIGKILLed, idempotent double release, loud refusal of foreign segments and of
layout-version mismatches, and zero ``/dev/shm`` residue once the last
reference is gone.

Instead of every plane re-proving these with a hand-rolled copy of the same
tests, a plane registers a :class:`PlaneContract` here and
``tests/core/test_shm_conformance.py`` runs the whole invariant suite against
it, parametrized over start methods.  A future plane (certified-bound store,
CSR model buffers) picks the entire suite up by adding one contract.

This module is deliberately *not* named ``test_*``: it is imported both by the
conformance test module and -- by name, via pickled ``(kind, name)`` pairs --
inside fork- and spawn-started child processes, so everything in here must be
importable at module top level.
"""

from __future__ import annotations

import hashlib
import os
import signal
from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np

from repro import AttackParams, ProtocolParams
from repro.attacks import get_model_structure
from repro.core import results_plane as results_module
from repro.core import shared_structures as structures_module
from repro.core import shm

#: Model used by the model-plane contract: the smallest buildable attack.
_ATTACK = AttackParams(depth=1, forks=1, max_fork_length=4)
_PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)

#: Arrays that define a structure's identity (same set the round-trip tests use).
_STRUCTURE_ARRAYS = (
    "row_state",
    "state_row_offsets",
    "row_trans_offsets",
    "trans_succ",
    "trans_kind",
    "trans_sigma",
    "trans_mult",
    "trans_reward",
)


@dataclass(frozen=True)
class PlaneContract:
    """What one plane must provide to inherit the conformance suite.

    ``create``/``attach`` return a plane object exposing ``.name`` and
    ``.release()`` (every substrate plane does); ``fingerprint`` reduces a
    plane's payload to a picklable value two processes can compare for
    round-trip equality; ``forget`` drops this process's inherited registry
    state so an attach takes the real worker-side mapping path.
    """

    kind: str
    spec: shm.SegmentSpec
    create: Callable[[], Any]
    attach: Callable[[str], Any]
    fingerprint: Callable[[Any], Any]
    forget: Callable[[], None]


# --------------------------------------------------------------------- substrate

_RAW_SPEC = shm.SegmentSpec(kind="conformance", magic=0x434F4E46_4F524D31, version=7)
_RAW_PAYLOAD_BYTES = 256


def _raw_create() -> shm.ManagedSegment:
    handle = shm.create_segment(_RAW_SPEC, _RAW_PAYLOAD_BYTES, zero_payload=True)
    payload = np.ndarray(
        (_RAW_PAYLOAD_BYTES,), dtype=np.uint8, buffer=handle.buf, offset=shm.HEADER_BYTES
    )
    payload[:] = np.arange(_RAW_PAYLOAD_BYTES, dtype=np.uint8)
    del payload
    return handle


def _raw_attach(name: str) -> shm.ManagedSegment:
    return shm.attach_segment(_RAW_SPEC, name)


def _raw_fingerprint(handle: shm.ManagedSegment) -> str:
    start = shm.HEADER_BYTES
    return bytes(handle.buf[start : start + _RAW_PAYLOAD_BYTES]).hex()


# ------------------------------------------------------------------- model plane


def _model_create() -> Any:
    structure = get_model_structure(_ATTACK, _PROTOCOL)
    return structures_module.publish_structures([structure])


def _model_fingerprint(plane: Any) -> str:
    digest = hashlib.sha256()
    for structure in plane.structures:
        digest.update(repr(structure.signature).encode("utf-8"))
        for key in _STRUCTURE_ARRAYS:
            digest.update(np.ascontiguousarray(getattr(structure, key)).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------- results plane


def _results_outcome() -> Any:
    from repro.core.engine import PointOutcome

    return PointOutcome(
        gamma_index=0,
        p_index=0,
        attack_index=0,
        p=0.25,
        gamma=0.75,
        series="conformance",
        errev=1.25,
        seconds=0.5,
        solver_iterations=11,
        num_states=42,
        scenario="selfish-forks",
    )


def _results_create() -> Any:
    plane = results_module.create_results_plane(1, 1, 1)
    assert plane.write(_results_outcome())
    return plane


def _results_fingerprint(plane: Any) -> str:
    outcome = plane.read(plane.slot_of(0, 0, 0))
    return repr(outcome)


# -------------------------------------------------------------------- registry

CONTRACTS: Dict[str, PlaneContract] = {
    "substrate": PlaneContract(
        kind="substrate",
        spec=_RAW_SPEC,
        create=_raw_create,
        attach=_raw_attach,
        fingerprint=_raw_fingerprint,
        forget=lambda: shm.forget_inherited_segments(kind=_RAW_SPEC.kind),
    ),
    "model-plane": PlaneContract(
        kind="model-plane",
        spec=structures_module._SPEC,
        create=_model_create,
        attach=structures_module.attach_structures,
        fingerprint=_model_fingerprint,
        forget=structures_module.forget_inherited_planes,
    ),
    "results-plane": PlaneContract(
        kind="results-plane",
        spec=results_module._SPEC,
        create=_results_create,
        attach=results_module.attach_results_plane,
        fingerprint=_results_fingerprint,
        forget=results_module.forget_inherited_results_planes,
    ),
}


# -------------------------------------------------------- child process workers
# Must stay at module top level: spawn-started children import this module by
# name and look the functions up by qualified name when unpickling the target.


def child_attach_verify_release(kind: str, name: str, queue: Any) -> None:
    """Attach ``name``, report its fingerprint, release, exit cleanly."""
    contract = CONTRACTS[kind]
    contract.forget()
    plane = contract.attach(name)
    try:
        queue.put(("fingerprint", contract.fingerprint(plane)))
    finally:
        plane.release()


def child_attach_and_sigkill(kind: str, name: str, queue: Any) -> None:
    """Attach ``name`` and die without any cleanup (simulated worker crash)."""
    contract = CONTRACTS[kind]
    contract.forget()
    contract.attach(name)
    queue.put(("attached", name))
    # mp.Queue sends through a feeder thread; make sure the message actually
    # left this process before SIGKILL tears it down mid-flush.
    queue.close()
    queue.join_thread()
    os.kill(os.getpid(), signal.SIGKILL)


# ------------------------------------------------------------- header tampering


def corrupt_header_word(name: str, index: int, value: int) -> None:
    """Overwrite one uint64 word of a segment's substrate header in place.

    Used to simulate a peer built for another layout generation (word 2) or a
    foreign plane kind (word 1).  The caller must have forgotten its registry
    handle first, or the next attach would dedup and skip header validation.
    """
    segment = shm.attach_segment_untracked(name)
    try:
        header = np.ndarray((shm.HEADER_BYTES // 8,), dtype=np.uint64, buffer=segment.buf)
        header[index] = value
        del header  # drop the exported view so close() cannot raise BufferError
    finally:
        segment.close()


def shm_residue() -> list:
    """Names of ``repro-`` shared-memory segments currently on the platform."""
    try:
        return sorted(
            entry for entry in os.listdir("/dev/shm") if entry.startswith(shm.SEGMENT_PREFIX)
        )
    except FileNotFoundError:  # pragma: no cover - non-Linux platform
        return []
