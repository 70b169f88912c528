"""Tests of the distributed multi-host sweep fabric (repro.core.distributed).

The integration tests run a real loopback fabric: the coordinator listens on
127.0.0.1 and workers are separate ``python -m repro worker`` processes, so the
full wire path (framing, structure shipping, heartbeats, reassignment) is
exercised exactly as it would be across hosts.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import AnalysisConfig, AttackParams, ProtocolParams
from repro.core.distributed import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    _validate_hello,
    decode_frame,
    encode_frame,
    outcome_from_wire,
    outcome_to_wire,
    parse_address,
    run_distributed_sweep,
    task_from_wire,
    task_to_wire,
)
from repro.core.engine import AttackTask, PointOutcome, _build_tasks
from repro.core.shared_structures import pack_structures, unpack_structures
from repro.core.sweep import SweepConfig, run_sweep
from repro.attacks import get_model_structure
from repro.exceptions import ConfigurationError, ModelError

_SRC = Path(__file__).resolve().parents[2] / "src"


# ------------------------------------------------------------------- framing


def test_frame_roundtrip_with_payload():
    header = {"type": "welcome", "worker_id": 3, "structures": True}
    payload = bytes(range(256)) * 7
    frame = encode_frame(header, payload)
    body_len = int.from_bytes(frame[:4], "big")
    assert body_len == len(frame) - 4
    decoded_header, decoded_payload = decode_frame(frame[4:])
    assert decoded_header == header
    assert decoded_payload == payload


def test_frame_roundtrip_empty_payload():
    header, payload = decode_frame(encode_frame({"type": "heartbeat"})[4:])
    assert header == {"type": "heartbeat"}
    assert payload == b""


def test_decode_frame_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_frame(b"\x00")  # truncated
    with pytest.raises(ProtocolError):
        decode_frame(b"\x00\x00\x00\xff")  # header overruns body
    bad_json = b"\x00\x00\x00\x02{]"
    with pytest.raises(ProtocolError):
        decode_frame(bad_json)
    no_type = encode_frame({"kind": "nope"})[4:]
    with pytest.raises(ProtocolError):
        decode_frame(no_type)


class _HugePayload(bytes):
    """A bytes subclass lying about its length to keep the test allocation-free."""

    def __len__(self):
        return MAX_FRAME_BYTES + 1


def test_encode_frame_rejects_oversized():
    with pytest.raises(ProtocolError):
        encode_frame({"type": "welcome"}, _HugePayload())


def test_parse_address():
    assert parse_address("10.0.0.1:7355") == ("10.0.0.1", 7355)
    assert parse_address(":8000") == ("127.0.0.1", 8000)
    assert parse_address("example.org:0") == ("example.org", 0)
    for bad in ("7355", "host:", "host:notaport", "host:70000"):
        with pytest.raises(ValueError):
            parse_address(bad)


# ------------------------------------------------------------ wire encodings


def test_task_wire_roundtrip():
    config = SweepConfig(
        p_values=(0.0, 0.1),
        gammas=(0.25,),
        attack_configs=(AttackParams(depth=2, forks=1),),
        analysis=AnalysisConfig(epsilon=1e-2, solver="value_iteration"),
        reuse_p_axis_bounds=True,
    )
    for task in _build_tasks(config):
        restored = task_from_wire(task_to_wire(task))
        assert isinstance(restored, AttackTask)
        assert restored == task


def test_outcome_wire_roundtrip_preserves_floats_exactly():
    outcome = PointOutcome(
        gamma_index=1,
        p_index=2,
        attack_index=0,
        p=0.30000000000000004,  # a float that exposes any repr sloppiness
        gamma=0.5,
        series="ours(d=2,f=1)",
        errev=0.3391549026187659,
        seconds=0.1234,
        solver_iterations=17,
        num_states=148,
        beta_low=0.3386230468750001,
        beta_up=0.33935546875,
    )
    restored = outcome_from_wire(outcome_to_wire(outcome))
    assert restored == outcome
    failed = PointOutcome(
        gamma_index=0, p_index=0, attack_index=0, p=0.0, gamma=0.0,
        series="s", errev=None, seconds=0.0, solver_iterations=0,
        num_states=0, error="ValueError: boom",
    )
    assert outcome_from_wire(outcome_to_wire(failed)) == failed


def test_protocol_1_outcome_wire_does_not_decode():
    """Why protocol 1 peers are refused at hello: their outcomes carry solver-race keys."""
    outcome = PointOutcome(
        gamma_index=0, p_index=0, attack_index=0, p=0.1, gamma=0.5,
        series="s", errev=0.1, seconds=0.0, solver_iterations=3, num_states=14,
    )
    wire = outcome_to_wire(outcome)
    assert not {"solver_backend", "cancelled_iterations"} & set(wire)
    with pytest.raises(TypeError):
        outcome_from_wire({**wire, "solver_backend": "policy_iteration"})


@pytest.mark.parametrize("protocol", [1, PROTOCOL_VERSION + 1])
def test_hello_from_another_protocol_version_is_refused(protocol):
    with pytest.raises(ProtocolError, match=f"protocol {protocol} unsupported"):
        _validate_hello({"type": "hello", "protocol": protocol, "capacity": 1})
    assert _validate_hello({"type": "hello", "protocol": PROTOCOL_VERSION, "capacity": 2})[0] == 2


def test_pack_unpack_structures_bit_for_bit():
    structure = get_model_structure(
        AttackParams(depth=2, forks=1), ProtocolParams(p=0.3, gamma=0.5)
    )
    blob = pack_structures([structure])
    (restored,) = unpack_structures(blob)
    original_buffers = structure.to_buffers()
    restored_buffers = restored.to_buffers()
    for key in structure.BUFFER_KEYS:
        assert np.array_equal(original_buffers[key], restored_buffers[key]), key
    protocol = ProtocolParams(p=0.3, gamma=0.5)
    assert np.array_equal(
        structure.instantiate(protocol).trans_prob, restored.instantiate(protocol).trans_prob
    )


def test_unpack_structures_rejects_garbage():
    with pytest.raises(ModelError):
        unpack_structures(b"not a structure payload at all" * 10)


# ------------------------------------------------------------- configuration


def test_sweep_config_rejects_coordinator_and_connect():
    with pytest.raises(ConfigurationError):
        SweepConfig(coordinator="127.0.0.1:1", connect="127.0.0.1:2")


def test_sweep_config_rejects_bad_addresses_and_counts():
    with pytest.raises(ConfigurationError):
        SweepConfig(coordinator="no-port")
    with pytest.raises(ConfigurationError):
        SweepConfig(connect="host:notaport")
    with pytest.raises(ConfigurationError):
        SweepConfig(coordinator="127.0.0.1:0", distributed_workers=-1)
    with pytest.raises(ConfigurationError):
        SweepConfig(distributed_workers=2)  # needs a coordinator address


def test_run_sweep_refuses_worker_config():
    with pytest.raises(ValueError, match="repro worker"):
        run_sweep(SweepConfig(connect="127.0.0.1:7355"))


def test_coordinator_times_out_without_workers():
    config = SweepConfig(
        p_values=(0.1,),
        gammas=(0.5,),
        attack_configs=(AttackParams(depth=1, forks=1),),
        coordinator="127.0.0.1:0",
    )
    with pytest.raises(ModelError, match="did not complete"):
        run_distributed_sweep(config, timeout=0.5)


# ---------------------------------------------------------------- loopback


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _spawn_worker(port: int, *, capacity: int = 1) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--capacity",
            str(capacity),
            "--heartbeat-seconds",
            "1",
            "--connect-retry-seconds",
            "30",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _base_grid(**overrides) -> dict:
    base = dict(
        p_values=(0.0, 0.05, 0.1, 0.15),
        gammas=(0.5,),
        attack_configs=(AttackParams(depth=1, forks=1), AttackParams(depth=2, forks=1)),
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    base.update(overrides)
    return base


def _assert_same_points(serial, distributed):
    assert [  # canonical order is identical...
        (point.p, point.gamma, point.series) for point in serial.points
    ] == [(point.p, point.gamma, point.series) for point in distributed.points]
    for ours, theirs in zip(serial.points, distributed.points):
        # ...and the certified values agree bit-for-bit (timings differ).
        assert ours.errev == theirs.errev
        assert ours.beta_low == theirs.beta_low
        assert ours.beta_up == theirs.beta_up
        assert ours.solver_iterations == theirs.solver_iterations


def test_loopback_distributed_matches_serial_bit_for_bit():
    serial = run_sweep(SweepConfig(**_base_grid()))
    port = _free_port()
    workers = [_spawn_worker(port) for _ in range(2)]
    try:
        distributed = run_sweep(
            SweepConfig(
                **_base_grid(), coordinator=f"127.0.0.1:{port}", distributed_workers=2
            )
        )
    finally:
        outputs = []
        for worker in workers:
            out, _ = worker.communicate(timeout=30)
            outputs.append(out)
    assert not distributed.failures
    _assert_same_points(serial, distributed)
    fabric = distributed.metadata["distributed"]
    assert fabric["units"] == 8
    assert len(fabric["workers"]) == 2
    for name, stats in fabric["workers"].items():
        # The acceptance invariant: remote workers never explore.
        assert stats["builds"] == 0, name
        assert stats["attaches"] > 0, name
    assert sum(stats["units"] for stats in fabric["workers"].values()) == 8
    for worker, out in zip(workers, outputs):
        assert worker.returncode == 0
        assert "clean shutdown" in out
        assert "builds=0" in out


def test_loopback_distributed_with_bound_reuse_matches_serial():
    grid = _base_grid(reuse_p_axis_bounds=True)
    serial = run_sweep(SweepConfig(**grid))
    port = _free_port()
    workers = [_spawn_worker(port) for _ in range(2)]
    try:
        distributed = run_sweep(
            SweepConfig(**grid, coordinator=f"127.0.0.1:{port}", distributed_workers=2)
        )
    finally:
        for worker in workers:
            worker.communicate(timeout=30)
    assert not distributed.failures
    # One unit per (gamma, attack) series: the whole p chain stays on one host.
    assert distributed.metadata["distributed"]["units"] == 2
    _assert_same_points(serial, distributed)


def test_distributed_sweep_survives_killed_worker():
    grid = _base_grid(p_values=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25))
    serial = run_sweep(SweepConfig(**grid))
    port = _free_port()
    workers = [_spawn_worker(port) for _ in range(2)]
    killed = []

    def progress(message: str) -> None:
        if "ERRev=" in message and not killed:
            killed.append(True)
            workers[0].kill()  # SIGKILL mid-sweep: units must be reassigned

    try:
        distributed = run_sweep(
            SweepConfig(**grid, coordinator=f"127.0.0.1:{port}", distributed_workers=2),
            progress=progress,
        )
    finally:
        for worker in workers:
            worker.communicate(timeout=30)
    assert killed, "no progress message ever arrived to trigger the kill"
    assert not distributed.failures
    _assert_same_points(serial, distributed)
    assert workers[1].returncode == 0


def _read_frame_blocking(sock: socket.socket) -> dict:
    """Read one length-prefixed frame from a blocking socket; return its header."""
    def read_exact(count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            if not chunk:
                raise ConnectionError("peer closed")
            data += chunk
        return data

    (body_len,) = struct.unpack(">I", read_exact(4))
    header, _ = decode_frame(read_exact(body_len))
    return header


def test_garbage_hello_is_rejected_and_sweep_survives():
    """Regression: a malformed hello must refuse *that* worker, not kill the sweep.

    ``float(header["heartbeat_seconds"])`` / the capacity parse used to raise
    uncaught inside the coordinator (and zero-or-negative values were
    silently clamped).  Three garbage hellos now each draw a clean ``error``
    frame while a healthy worker completes the whole grid.
    """
    import threading
    import time as time_module

    listening = threading.Event()
    bound = {}

    def on_listen(host: str, port: int) -> None:
        bound["port"] = port
        listening.set()

    grid = _base_grid(p_values=(0.0, 0.05))
    result = {}

    def coordinate() -> None:
        result["sweep"] = run_distributed_sweep(
            SweepConfig(**grid, coordinator="127.0.0.1:0"),
            timeout=120.0,
            on_listen=on_listen,
        )

    coordinator = threading.Thread(target=coordinate, daemon=True)
    coordinator.start()
    assert listening.wait(timeout=30.0), "coordinator never started listening"
    port = bound["port"]

    version = PROTOCOL_VERSION
    garbage_hellos = [
        ({"type": "hello", "protocol": version, "capacity": "lots"}, "capacity"),  # non-integer
        ({"type": "hello", "protocol": version, "capacity": 2.9}, "capacity"),  # truncation
        ({"type": "hello", "protocol": version, "capacity": 0}, "capacity"),  # starves
        ({"type": "hello", "protocol": version, "heartbeat_seconds": -3}, "heartbeat"),  # immortal
        ({"type": "hello", "protocol": version, "heartbeat_seconds": "soon"}, "heartbeat"),
        # A peer from before the wire dicts lost the solver-race keys.
        ({"type": "hello", "protocol": 1, "capacity": 1}, "protocol 1 unsupported"),
    ]
    for hello, reason in garbage_hellos:
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(encode_frame(hello))
            header = _read_frame_blocking(sock)
            assert header["type"] == "error", hello
            assert reason in header["message"], header["message"]

    worker = _spawn_worker(port)
    try:
        deadline = time_module.monotonic() + 120.0
        while coordinator.is_alive() and time_module.monotonic() < deadline:
            coordinator.join(timeout=0.5)
    finally:
        out, _ = worker.communicate(timeout=30)
    assert not coordinator.is_alive(), "sweep never completed after garbage hellos"
    sweep = result["sweep"]
    assert not sweep.failures
    _assert_same_points(run_sweep(SweepConfig(**grid)), sweep)
    assert worker.returncode == 0
    assert "clean shutdown" in out


def test_late_worker_joins_running_sweep():
    """A single worker suffices; distributed_workers=1 must not wait for more."""
    port = _free_port()
    worker = _spawn_worker(port, capacity=2)
    try:
        distributed = run_sweep(
            SweepConfig(**_base_grid(), coordinator=f"127.0.0.1:{port}")
        )
    finally:
        out, _ = worker.communicate(timeout=30)
    assert not distributed.failures
    assert len(distributed.points) == len(run_sweep(SweepConfig(**_base_grid())).points)
    assert worker.returncode == 0
