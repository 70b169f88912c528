"""Cross-scenario engine matrix: every engine feature on every registered scenario.

The tentpole contract of the attack registry: the sweep engine, its worker
pool and the distributed fabric are scenario-generic.  This
module runs both built-in scenarios through serial, pooled (fork and spawn)
and distributed-loopback execution and checks bit-for-bit agreement with the
serial run, plus the loud-failure paths (mixed grids, scenario-mismatched
workers).
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.attacks.registry import scenario_id_for
from repro.config import AnalysisConfig, AttackParams
from repro.core.distributed import (
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    run_distributed_sweep,
)
from repro.core.sweep import SweepConfig, run_sweep
from repro.exceptions import ConfigurationError

SCENARIOS = ("selfish-forks", "sm-actions")


def scenario_grid(scenario: str, **overrides) -> SweepConfig:
    if scenario == "selfish-forks":
        attack_configs = (
            AttackParams(depth=1, forks=1, max_fork_length=4),
            AttackParams(depth=2, forks=1, max_fork_length=4),
        )
    else:
        attack_configs = (
            AttackParams(depth=1, forks=1, max_fork_length=4, scenario="sm-actions"),
            AttackParams(
                depth=1,
                forks=1,
                max_fork_length=4,
                scenario="sm-actions",
                variant="overpaying",
            ),
        )
    base = dict(
        p_values=(0.0, 0.15, 0.3),
        gammas=(0.5,),
        attack_configs=attack_configs,
        attack=scenario,
        include_single_tree=False,
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    base.update(overrides)
    return SweepConfig(**base)


def point_tuples(sweep):
    return [
        (point.p, point.gamma, point.series, point.errev, point.beta_low, point.beta_up)
        for point in sweep.points
    ]


class TestPooledMatchesSerial:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_pooled_bit_for_bit(self, scenario):
        serial = run_sweep(scenario_grid(scenario))
        pooled = run_sweep(scenario_grid(scenario, workers=2))
        assert not serial.failures and not pooled.failures
        assert point_tuples(pooled) == point_tuples(serial)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_spawn_pool_bit_for_bit(self, scenario, monkeypatch):
        serial = run_sweep(scenario_grid(scenario))
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "spawn")
        spawned = run_sweep(scenario_grid(scenario, workers=2))
        assert not spawned.failures
        assert point_tuples(spawned) == point_tuples(serial)

    def test_attack_points_carry_scenario_id(self):
        sweep = run_sweep(scenario_grid("sm-actions"))
        attack_points = [p for p in sweep.points if p.series.startswith("sm-actions")]
        assert attack_points
        for point in attack_points:
            assert point.scenario == scenario_id_for("sm-actions")
            assert point.to_row()["scenario"] == point.scenario
        for point in sweep.points:
            if point.series == "honest":
                assert point.scenario is None
                assert "scenario" not in point.to_row()


class TestConfigurationGuards:
    def test_mixed_scenario_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="mixed-scenario"):
            SweepConfig(
                p_values=(0.1,),
                gammas=(0.5,),
                attack_configs=(
                    AttackParams(depth=1, forks=1),
                    AttackParams(depth=1, forks=1, scenario="sm-actions"),
                ),
            )

    def test_attack_name_conflicting_with_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicts"):
            SweepConfig(
                p_values=(0.1,),
                gammas=(0.5,),
                attack_configs=(AttackParams(depth=1, forks=1, scenario="sm-actions"),),
                attack="selfish-forks",
            )

    def test_attack_name_swaps_in_default_grid(self):
        config = SweepConfig(p_values=(0.1,), gammas=(0.5,), attack="sm-actions")
        assert all(a.scenario == "sm-actions" for a in config.attack_configs)
        assert len(config.attack_configs) >= 2

    def test_unknown_attack_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attack scenario"):
            SweepConfig(p_values=(0.1,), gammas=(0.5,), attack="no-such-attack")


# ------------------------------------------------------------------ loopback

_SRC = Path(__file__).resolve().parents[2] / "src"


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


class TestDistributedLoopback:
    def test_sm_actions_distributed_matches_serial_with_zero_builds(self):
        grid = scenario_grid("sm-actions")
        serial = run_sweep(grid)
        port = _free_port()
        worker = _spawn_worker(port, capacity=2)
        try:
            distributed = run_sweep(
                scenario_grid("sm-actions", coordinator=f"127.0.0.1:{port}")
            )
        finally:
            out, _ = worker.communicate(timeout=30)
        assert not distributed.failures
        assert point_tuples(distributed) == point_tuples(serial)
        fabric = distributed.metadata["distributed"]
        for name, stats in fabric["workers"].items():
            assert stats["builds"] == 0, name
            assert stats["attaches"] > 0, name
        assert worker.returncode == 0
        assert "builds=0" in out


def _read_frame_blocking(sock: socket.socket) -> dict:
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


class TestScenarioHandshake:
    def test_mismatched_worker_hello_is_refused(self):
        """A worker not implementing the sweep's scenario draws an error frame.

        The hello is otherwise perfectly valid (right protocol, sane capacity
        and heartbeat) -- only the advertised scenario list is wrong: stale
        version, wrong family, or no list at all (a pre-registry worker).  The
        sweep itself must survive and complete on a healthy worker.
        """
        listening = threading.Event()
        bound = {}

        def on_listen(host: str, port: int) -> None:
            bound["port"] = port
            listening.set()

        grid = scenario_grid(
            "sm-actions", p_values=(0.0, 0.15), coordinator="127.0.0.1:0"
        )
        result = {}

        def coordinate() -> None:
            result["sweep"] = run_distributed_sweep(
                grid, timeout=120.0, on_listen=on_listen
            )

        coordinator = threading.Thread(target=coordinate, daemon=True)
        coordinator.start()
        assert listening.wait(timeout=30.0), "coordinator never started listening"
        port = bound["port"]

        base = {"type": "hello", "protocol": PROTOCOL_VERSION, "capacity": 1}
        mismatched_hellos = [
            {**base, "scenarios": ["sm-actions@999"]},
            {**base, "scenarios": ["selfish-forks@1"]},
            base,  # advertises nothing
            {**base, "scenarios": "sm-actions@1"},
        ]
        for hello in mismatched_hellos:
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(encode_frame(hello))
                header = _read_frame_blocking(sock)
                assert header["type"] == "error", hello
                assert "scenario" in header["message"], header["message"]

        worker = _spawn_worker(port)
        try:
            deadline = time.monotonic() + 120.0
            while coordinator.is_alive() and time.monotonic() < deadline:
                coordinator.join(timeout=0.5)
        finally:
            out, _ = worker.communicate(timeout=30)
        assert not coordinator.is_alive(), "sweep never completed after bad hellos"
        sweep = result["sweep"]
        assert not sweep.failures
        serial = run_sweep(scenario_grid("sm-actions", p_values=(0.0, 0.15)))
        assert point_tuples(sweep) == point_tuples(serial)
        assert worker.returncode == 0
        assert "clean shutdown" in out
