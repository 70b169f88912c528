"""Benchmark of certified selfish-mining analysis: Table 1 points and Figure 2 sweeps.

Run from the repository root; ``src/`` is put on the import path, nothing is
installed::

    python3 perfbench/run.py --workload point-d2f2 --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one process
    python3 perfbench/run.py --workload point-d2f2 --trace 1   # per-layer split
    python3 perfbench/run.py --make-reference              # rewrite perfbench/reference.json
    python3 perfbench/run.py --write-manifest              # rewrite BENCHMARK.json
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run explores the workload's skeletons in fresh interpreters to time set-up,
does one untimed warm-up pass, then repeats timed passes for ``--seconds`` and
checks every certified value against ``perfbench/reference.json`` bit for bit.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced passes
run in a child process that wraps the layer boundaries (``spans.py``) and
restores every wrapped attribute before it exits.

``--out FILE`` appends each run, stamped with an environment fingerprint, as
one JSON line.  ``--compare`` reads two such files (parent and change, runs
alternated pair by pair, at least ten pairs) and prints a verdict per
workload and end-to-end metric.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MANIFEST = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout (journals, span spill files); removed on exit.
SCRATCH_PARENT = ROOT / ".perfbench_tmp"

RUN_SECONDS = 30
SETUP_REPEATS = 3
MIN_PASSES = 3
#: Share of each pass's wall clock spent timing the host-speed kernel after it.
CALIBRATION_SHARE = 0.05
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: ``(name, unit, better, bound)`` -- what a user of the package sees.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("point_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: ``(name, unit, better)`` of the traced run.  Times and counts are per
#: workload pass (one Table 1 point set or one whole sweep) unless the name
#: says otherwise; ``*.self_s`` plus ``other_s`` sum to ``traced_wall_s``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("attacks.explore_s", "s", "lower"),
    ("attacks.skeletons", "count", "lower"),
    ("attacks.refill_s", "s/pass", "lower"),
    ("attacks.baseline_s", "s/pass", "lower"),
    ("analysis.solves_per_point", "count/point", "lower"),
    ("analysis.solver_iterations_per_point", "count/point", "lower"),
    ("analysis.interval_width_max", "beta", "lower"),
    ("analysis.strategy_eval_s", "s/pass", "lower"),
    ("mdp.solve_s", "s/pass", "lower"),
    ("mdp.chain_build_s", "s/pass", "lower"),
    ("mdp.poisson_assembly_s", "s/pass", "lower"),
    ("mdp.lu_s", "s/pass", "lower"),
    ("mdp.lu_calls", "count/pass", "lower"),
    ("mdp.improve_s", "s/pass", "lower"),
    ("mdp.lu_share", "ratio", "higher"),
    ("core.plan_s", "s/pass", "lower"),
    ("core.assemble_s", "s/pass", "lower"),
    ("core.journal_record_s", "s/pass", "lower"),
    ("core.journal_bytes", "B/pass", "lower"),
    ("core.via_plane", "count/pass", "higher"),
    ("core.via_pickle", "count/pass", "lower"),
    ("core.worker_builds", "count/pass", "lower"),
    ("core.sweep_tax_s", "s/pass", "lower"),
    ("core.worker_busy_frac", "ratio", "higher"),
    ("attacks.self_s", "s/pass", "lower"),
    ("analysis.self_s", "s/pass", "lower"),
    ("mdp.self_s", "s/pass", "lower"),
    ("core.self_s", "s/pass", "lower"),
    ("other_s", "s/pass", "lower"),
    ("traced_wall_s", "s/pass", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("host.slowdown", "ratio", "lower"),
)


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` this benchmark implements."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


# ------------------------------------------------------------------ helpers


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every waited-for descendant, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux; best effort).

    A helper a child leaves behind -- say the resource tracker of a killed
    traced child -- is then re-parented here, so :func:`stop_children` waits
    for it instead of leaving it to the host's init.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    """Processes whose parent is this process, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop multiprocessing's helper processes and wait for every child to end.

    The resource tracker (started by the first shared-memory segment) and a
    forkserver would otherwise outlive the benchmark.  Children still running
    after ``timeout`` seconds are killed; every child is waited for.
    """
    import signal

    for module, attribute in (("resource_tracker", "_resource_tracker"), ("forkserver", "_forkserver")):
        helper = getattr(sys.modules.get(f"multiprocessing.{module}"), attribute, None)
        if helper is not None:
            try:
                helper._stop()
            except (OSError, ChildProcessError):
                pass
    deadline = time.monotonic() + timeout
    while True:
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.02)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> Dict[str, object]:
    """Environment stamp of a result."""
    import multiprocessing

    import numpy
    import scipy
    from repro.core import engine

    start_method = getattr(engine, "_pool_start_method", multiprocessing.get_start_method)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pool_start_method": start_method(),
        "seed": seed,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def timed_passes(workload, budget: float, speed) -> List[object]:
    """Repeat passes while the next one fits in ``budget`` seconds (at least ``MIN_PASSES``).

    The host-speed kernel runs before the first pass and after every pass, for
    ``CALIBRATION_SHARE`` of that pass's wall clock, so its samples bracket
    the passes they scale.
    """
    passes = []
    start = time.perf_counter()
    speed.sample(0.0)
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1].wall <= budget:
        passes.append(workload.run_pass())
        speed.sample(CALIBRATION_SHARE * passes[-1].wall)
    return passes


def child_command(role: str, args: argparse.Namespace, seconds: float) -> List[str]:
    """Command line re-running this script in ``role`` for the same inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role",
        role,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(seconds),
        "--reference",
        str(args.reference),
    ]
    return command + (["--tiny"] if args.tiny else [])


def run_child(command: List[str]) -> Dict[str, object]:
    """Run a child role to completion and parse its last stdout line."""
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command[2:5])} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------- roles


def setup_probe(args: argparse.Namespace) -> Dict[str, object]:
    """Import the package and explore the workload's skeletons cold, timed."""
    start = time.perf_counter()
    import workloads

    workload = workloads.Workload(
        args.workload, args.seed, reference=None, scratch=SCRATCH_PARENT, tiny=args.tiny
    )
    workload.explore()
    seconds = time.perf_counter() - start
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.sample(0.3)
    return {"setup_s": speed.scale(seconds), "slowdown": speed.slowdown}


def traced_child(args: argparse.Namespace, scratch: Path) -> Dict[str, object]:
    """Traced passes in this (dedicated) process; returns the per-layer split."""
    import hostspeed
    import spans
    import workloads

    speed = hostspeed.HostSpeed()
    spill = scratch / "spans"
    spill.mkdir()
    recorder = spans.SpanRecorder(spill)
    recorder.install()
    try:
        workload = workloads.Workload(
            args.workload, args.seed, reference=load_reference(args), scratch=scratch, tiny=args.tiny
        )
        workload.explore()
        explore = recorder.totals
        recorder.reset()
        workload.run_pass()
        recorder.reset()
        recorder.collect_workers()
        passes = timed_passes(workload, args.seconds, speed)
        main = recorder.totals
        everywhere = recorder.collect_workers()
        worker_builds = everywhere["count"].get("attacks.explore", 0.0)
        spans.merge_totals(everywhere, main)
    finally:
        recorder.restore()
    leftover = spans.installed_wrappers()
    if leftover:
        raise RuntimeError(f"span wrappers left installed: {leftover}")
    metrics = layer_metrics(workload, passes, main, everywhere, explore, worker_builds)
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in metrics.items():
        if units[name].startswith("s"):
            metrics[name] = speed.scale(value)
    metrics["host.slowdown"] = speed.slowdown
    return {
        "metrics": metrics,
        "wall": speed.scale(workload.typical_wall(passes)),
        "attempted": sum(result.attempted for result in passes),
        "failed": sum(result.failed for result in passes),
        "problems": [problem for result in passes for problem in result.problems][:20],
    }


def layer_metrics(workload, passes, main, everywhere, explore, worker_builds) -> Dict[str, float]:
    """Per-pass layer metrics from the span totals of the traced passes."""
    import spans

    n = len(passes)
    points = workload.attack_points

    def inclusive(key: str) -> float:
        return everywhere["inclusive"].get(key, 0.0) / n

    def own(key: str) -> float:
        return everywhere["self"].get(key, 0.0) / n

    wall = sum(result.wall for result in passes) / n
    layer_self = {
        layer: sum(v for k, v in main["self"].items() if k.startswith(layer + ".")) / n
        for layer in spans.LAYERS
    }
    solve = everywhere["inclusive"].get("mdp.solve", 0.0)
    busy = [sum(r.point_seconds) / workload.workers for r in passes]
    metrics = {
        "attacks.explore_s": explore["inclusive"].get("attacks.explore", 0.0),
        "attacks.skeletons": explore["count"].get("attacks.explore", 0.0),
        "attacks.refill_s": inclusive("attacks.refill"),
        "attacks.baseline_s": inclusive("attacks.baseline"),
        "analysis.solves_per_point": everywhere["count"].get("mdp.solve", 0.0) / (n * points),
        "analysis.solver_iterations_per_point": statistics.fmean(
            it for r in passes for it in r.solver_iterations
        ),
        "analysis.interval_width_max": max(w for r in passes for w in r.widths),
        "analysis.strategy_eval_s": inclusive("analysis.strategy_eval"),
        "mdp.solve_s": inclusive("mdp.solve"),
        "mdp.chain_build_s": inclusive("mdp.chain_build"),
        "mdp.poisson_assembly_s": own("mdp.poisson"),
        "mdp.lu_s": inclusive("mdp.lu"),
        "mdp.lu_calls": everywhere["count"].get("mdp.lu", 0.0) / n,
        "mdp.improve_s": own("mdp.solve"),
        "mdp.lu_share": everywhere["inclusive"].get(spans.LU_IN_SOLVE, 0.0) / solve if solve else 0.0,
        "core.plan_s": inclusive("core.plan"),
        "core.assemble_s": inclusive("core.assemble"),
        "core.journal_record_s": inclusive("core.journal_record"),
        "core.journal_bytes": statistics.fmean(r.journal_bytes for r in passes),
        "core.via_plane": statistics.fmean(r.channels.get("via_plane", 0) for r in passes),
        "core.via_pickle": statistics.fmean(r.channels.get("via_pickle", 0) for r in passes),
        "core.worker_builds": worker_builds / n,
        "core.sweep_tax_s": statistics.fmean(r.wall - b for r, b in zip(passes, busy)),
        "core.worker_busy_frac": statistics.fmean(b / r.wall for r, b in zip(passes, busy)),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["other_s"] = wall - sum(layer_self.values())
    metrics["traced_wall_s"] = wall
    return metrics


def load_reference(args: argparse.Namespace) -> Dict[str, object]:
    """The committed reference (or the one ``--reference`` names)."""
    return json.loads(Path(args.reference).read_text())


def bench(args: argparse.Namespace, scratch: Path) -> Tuple[Dict[str, object], List[str], float]:
    """Run one workload; returns the result object, the problems found and the host slowdown."""
    import hostspeed
    import spans
    import workloads

    setup = [
        run_child(child_command("setup-probe", args, 0.0))["setup_s"]
        for _ in range(0 if args.trace else SETUP_REPEATS)
    ]
    leftover = spans.installed_wrappers()
    if leftover:
        raise RuntimeError(f"untraced run found span wrappers installed: {leftover}")
    workload = workloads.Workload(
        args.workload, args.seed, reference=load_reference(args), scratch=scratch, tiny=args.tiny
    )
    workload.explore()
    workload.run_pass()
    budget = args.seconds / 2 if args.trace else args.seconds
    speed = hostspeed.HostSpeed()
    passes = timed_passes(workload, budget, speed)
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    problems = [problem for result in passes for problem in result.problems]
    wall = speed.scale(workload.typical_wall(passes))
    if args.trace:
        traced = run_child(child_command("traced", args, budget))
        values = dict(traced["metrics"])
        values["trace_overhead_frac"] = traced["wall"] / wall - 1.0
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": median(setup),
            "wall_s": wall,
            "point_p50_s": speed.scale(median([s for r in passes for s in r.point_seconds])),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, problems, speed.slowdown


# ------------------------------------------------------------------ compare


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """Improved / unchanged / unresolved / regressed, by the pairwise rule.

    A gain needs at least ten pairs, wins in nine tenths of them and a median
    gap larger than the parent's interquartile range; a regression is a median
    worse by more than ``bound``; a spread wider than ``bound`` is unresolved
    unless every change run beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gap = sign * (pm - cm)
    dominates = all(sign * (p - c) > 0 for p in parent for c in change)
    if -gap > bound * abs(pm):
        return "regressed"
    if max(p3 - p1, c3 - c1) > bound * abs(pm) and not dominates:
        return "unresolved"
    if len(pairs) < 10:
        return "unresolved"
    if wins >= 0.9 * len(pairs) and gap > p3 - p1:
        return "improved"
    return "unchanged"


def compare(parent_path: Path, change_path: Path) -> int:
    """Print one verdict row per workload and end-to-end metric; 1 on a regression."""

    def load(path: Path) -> Dict[str, List[Dict[str, object]]]:
        runs: Dict[str, List[Dict[str, object]]] = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record["result"])
        return runs

    parent, change = load(parent_path), load(change_path)
    status = 0
    header = f"{'workload':<24} {'metric':<12} {'parent q1/med/q3':<30} {'change q1/med/q3':<30} pairs verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        before, after = parent[workload], change[workload]
        for name, _unit, better, bound in END_TO_END:
            old = [run["metrics"][name]["value"] for run in before]
            new = [run["metrics"][name]["value"] for run in after]
            outcome = verdict(old, new, better, bound)
            status |= outcome == "regressed"
            cells = [" ".join(f"{v:.4g}" for v in quartiles(values)) for values in (old, new)]
            print(
                f"{workload:<24} {name:<12} {cells[0]:<30} {cells[1]:<30} "
                f"{min(len(old), len(new)):>5} {outcome}"
            )
        shares = [
            sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))
            for runs in (before, after)
        ]
        if shares[1] > shares[0]:
            status = 1
            print(f"{workload:<24} failed_frac ROSE: {shares[0]:.4g} -> {shares[1]:.4g}")
    return status


# --------------------------------------------------------------------- main


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Command-line arguments (``--role`` is internal: set-up probe, traced child)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each run as a JSON line")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--tiny", action="store_true", help="shrink every grid (smoke tests)")
    parser.add_argument("--role", choices=("bench", "setup-probe", "traced"), default="bench")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; see the module docstring."""
    adopt_orphans()
    # Registered first, so it runs last: after the package's shared-memory backstop.
    atexit.register(stop_children)
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.role == "setup-probe":
        print(json.dumps(setup_probe(args)))
        return 0
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_PARENT))
    try:
        if args.make_reference:
            import workloads

            reference = workloads.build_reference(scratch)
            args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            return 0
        if args.role == "traced":
            print(json.dumps(traced_child(args, scratch)))
            return 0
        return run_workloads(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass


def run_workloads(args: argparse.Namespace, scratch: Path) -> int:
    """Benchmark the chosen workload (or all of them) and print the results."""
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        result, problems, slowdown = bench(args, scratch)
        env = {**fingerprint(args.seed), "host_slowdown": slowdown}
        for problem in problems[:20]:
            print(f"{name}: FAILED CHECK {problem}")
        for metric, entry in result["metrics"].items():
            print(f"{name:<24} {metric:<38} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<24} attempted={result['attempted']} failed={result['failed']} env={json.dumps(env)}")
        if args.out is not None:
            record = {"workload": name, "trace": args.trace, "seconds": args.seconds, "env": env}
            with args.out.open("a") as handle:
                handle.write(json.dumps({**record, "result": result}) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            key = metric if len(names) == 1 else f"{name}:{metric}"
            combined["metrics"][key] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
