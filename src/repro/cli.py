"""Command-line interface.

Five subcommands mirror the library's main entry points (installed as both
``repro`` and the legacy ``repro-selfish-mining``)::

    repro analyze  --p 0.3 --gamma 0.5 --depth 2 --forks 1
    repro sweep    --gamma 0.5 --p-step 0.05 --csv out.csv
    repro simulate --p 0.3 --gamma 0.5 --depth 2 --forks 1 --steps 100000
    repro attacks
    repro lint

``analyze`` runs Algorithm 1 for one parameter point, ``sweep`` regenerates a
Figure 2 panel, ``simulate`` Monte-Carlo-validates the computed strategy,
``attacks`` lists the registered attack scenarios, and ``lint`` runs the
AST-based invariant checker (:mod:`repro.lint`) over the package source.

Every model-facing subcommand accepts ``--attack NAME`` to select a registered
attack scenario (:mod:`repro.attacks.registry`): the paper's ``selfish-forks``
family (default) or the classic ``sm-actions`` ADOPT/OVERRIDE/WAIT/MATCH
space, plus anything registered at runtime.  ``sweep`` additionally takes
``--grid SPEC``, interpreted by the selected scenario (``default``, ``paper``,
or scenario-specific tokens such as ``d2f1l4`` / ``l8:overpaying``), and
``--variant`` to select a scenario variant for every grid configuration.

The full flag-by-flag reference lives in ``docs/cli.md``.

Solver selection
----------------

``--solver`` picks the mean-payoff backend that Algorithm 1 calls once per
bisection probe and accepts both full names and short aliases:
``pi``/``policy_iteration`` (default, exact) or ``vi``/``value_iteration``
(certified bounds).

Sweep-only engine flags: ``--workers N`` fans grid points out over N worker
processes, ``--warm-start-across-points`` chains solver warm starts along the
p axis, and ``--reuse-p-bounds`` additionally starts each point's binary search
from the previous p point's certified lower bound (sound because ERRev* is
monotone in p).

Crash safety
------------

``repro sweep --journal PATH`` appends every computed point to a durable,
checksummed journal (:mod:`repro.core.journal`); ``--resume`` replays an
existing journal and recomputes only the missing delta, bit-for-bit identical
to an uninterrupted run.  ``--journal-fsync {never,close,always}`` tunes
durability.  A worker that dies mid-unit turns that unit's points into
failures; ``--resume`` recomputes them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from dataclasses import replace

from .config import AnalysisConfig, AttackParams, ProtocolParams, known_scenario_names
from .core import SelfishMiningAnalyzer, ascii_plot, render_table, write_csv
from .core.reporting import ProgressReporter
from .core.sweep import SweepConfig, run_sweep
from .lint.engine import add_lint_arguments

#: Short aliases accepted by ``--solver`` alongside the full backend names.
SOLVER_ALIASES = {
    "pi": "policy_iteration",
    "vi": "value_iteration",
}

_SOLVER_CHOICES = ("policy_iteration", "value_iteration", *SOLVER_ALIASES)


def _resolve_solver(name: str) -> str:
    """Map a ``--solver`` value (full name or alias) to the backend name."""
    return SOLVER_ALIASES.get(name, name)


def _positive_int(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return workers


def _positive_float(value: str) -> float:
    number = float(value)
    if not number > 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return number


def _attack_name(value: str) -> str:
    """Validate an ``--attack`` value against the registered scenario names."""
    names = known_scenario_names()
    if value not in names:
        raise argparse.ArgumentTypeError(
            f"unknown attack scenario {value!r} (known: {', '.join(sorted(names))}; "
            f"see `repro attacks`)"
        )
    return value


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--attack",
        type=_attack_name,
        default="selfish-forks",
        metavar="NAME",
        help="registered attack scenario (see `repro attacks`)",
    )
    parser.add_argument(
        "--variant",
        type=str,
        default="",
        metavar="NAME",
        help="scenario variant, e.g. 'overpaying' for sm-actions (default: none)",
    )


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser)
    parser.add_argument("--p", type=float, default=0.3, help="adversarial resource fraction")
    parser.add_argument("--gamma", type=float, default=0.5, help="switching probability")
    parser.add_argument("--depth", "-d", type=int, default=2, help="attack depth d")
    parser.add_argument("--forks", "-f", type=int, default=1, help="forking number f")
    parser.add_argument("--max-fork-length", "-l", type=int, default=4, help="maximal fork length l")
    parser.add_argument(
        "--epsilon", type=_positive_float, default=1e-3, help="binary search precision"
    )
    _add_solver_arguments(parser)


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solver",
        choices=_SOLVER_CHOICES,
        default="policy_iteration",
        help="mean-payoff solver backend (pi/vi aliases)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fully automated selfish mining analysis in efficient proof systems blockchains",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="run Algorithm 1 for one parameter point")
    _add_model_arguments(analyze)

    sweep = subparsers.add_parser("sweep", help="regenerate a Figure 2 panel")
    _add_scenario_arguments(sweep)
    sweep.add_argument("--gamma", type=float, default=0.5)
    sweep.add_argument("--p-max", type=float, default=0.3)
    sweep.add_argument("--p-step", type=_positive_float, default=0.05)
    sweep.add_argument("--epsilon", type=_positive_float, default=1e-3)
    sweep.add_argument(
        "--grid",
        type=str,
        default=None,
        metavar="SPEC",
        help="attack grid specification interpreted by the selected scenario "
        "('default', 'paper', or scenario tokens such as 'd1f1,d2f1l6' / 'l4,l8')",
    )
    sweep.add_argument("--csv", type=str, default=None, help="optional CSV output path")
    _add_solver_arguments(sweep)
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for the sweep engine (1 = serial)",
    )
    sweep.add_argument(
        "--warm-start-across-points",
        action="store_true",
        help="chain solver warm starts along the p axis of each series",
    )
    sweep.add_argument(
        "--reuse-p-bounds",
        action="store_true",
        help="start each point's binary search from the previous p point's certified "
        "lower bound (ERRev* is monotone in p)",
    )
    sweep.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="PATH",
        help="append every computed point to a durable, checksummed journal at PATH "
        "(crash-safe; see --resume)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="replay the intact points of the --journal file and recompute only the "
        "missing delta (bit-for-bit identical to an uninterrupted run)",
    )
    sweep.add_argument(
        "--journal-fsync",
        choices=("never", "close", "always"),
        default="close",
        help="journal durability: fsync never, once on close (default), or per record",
    )
    sweep.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress and summary diagnostics on stderr "
        "(the plot, failures and CSV path still print)",
    )

    simulate = subparsers.add_parser("simulate", help="Monte-Carlo validate the computed strategy")
    _add_model_arguments(simulate)
    simulate.add_argument("--steps", type=int, default=100_000, help="simulated block events")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")

    subparsers.add_parser("attacks", help="list the registered attack scenarios")

    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant checker over the package source",
    )
    add_lint_arguments(lint)
    return parser


def _attack_params(args: argparse.Namespace) -> AttackParams:
    """Build the :class:`AttackParams` of a model-facing subcommand."""
    return AttackParams(
        depth=args.depth,
        forks=args.forks,
        max_fork_length=args.max_fork_length,
        scenario=args.attack,
        variant=args.variant,
    )


def _command_analyze(args: argparse.Namespace) -> int:
    analyzer = SelfishMiningAnalyzer(
        ProtocolParams(p=args.p, gamma=args.gamma),
        _attack_params(args),
        AnalysisConfig(
            epsilon=args.epsilon,
            solver=_resolve_solver(args.solver),
        ),
    )
    result = analyzer.run()
    rows = [result.to_row()]
    print(render_table(rows))
    print(
        f"\nERRev lower bound: {result.errev_lower_bound:.4f}  "
        f"(strategy achieves {result.strategy_errev:.4f}, honest mining {result.honest_errev:.4f})"
    )
    print(f"MDP: {result.num_states} states, {result.num_transitions} transitions")
    print(f"Time: build {result.build_seconds:.2f}s, analysis {result.analysis_seconds:.2f}s")
    return 0


def _sweep_attack_configs(args: argparse.Namespace):
    """Resolve the sweep's attack grid through the selected scenario's builder."""
    from .attacks.registry import get_attack

    configs = get_attack(args.attack).grid_configs(args.grid or "default")
    if args.variant:
        configs = tuple(replace(attack, variant=args.variant) for attack in configs)
    return configs


def _command_sweep(args: argparse.Namespace) -> int:
    if args.resume and args.journal is None:
        raise SystemExit("repro sweep: --resume requires --journal PATH")
    num_points = int(round(args.p_max / args.p_step)) + 1
    p_values = tuple(round(index * args.p_step, 4) for index in range(num_points))
    config = SweepConfig(
        p_values=p_values,
        gammas=(args.gamma,),
        attack_configs=_sweep_attack_configs(args),
        attack=args.attack,
        analysis=AnalysisConfig(
            epsilon=args.epsilon,
            solver=_resolve_solver(args.solver),
        ),
        workers=args.workers,
        warm_start_across_points=args.warm_start_across_points,
        reuse_p_axis_bounds=args.reuse_p_bounds,
        journal_path=args.journal,
        journal_resume=args.resume,
        journal_fsync=args.journal_fsync,
    )
    # One reporter for every diagnostic line: per-point progress from the
    # execution plane plus the journal summary below.  --quiet silences all
    # of it while stdout keeps the actual results.
    reporter = ProgressReporter.stderr(quiet=args.quiet)
    sweep = run_sweep(config, progress=reporter)
    journal_meta = sweep.metadata.get("journal")
    if journal_meta:
        reporter(
            f"journal: {journal_meta['path']} "
            f"(replayed {journal_meta['replayed']} point(s), "
            f"recorded {journal_meta['recorded']}, "
            f"skipped {journal_meta['skipped_units']} unit(s))"
        )
    print(ascii_plot(sweep, args.gamma))
    for failure in sweep.failures:
        print(
            f"FAILED p={failure.p} gamma={failure.gamma} {failure.series}: {failure.message}",
            file=sys.stderr,
        )
    if args.csv:
        path = write_csv([point.to_row() for point in sweep.points], args.csv)
        print(f"\nwrote {path}")
    return 0 if not sweep.failures else 1


def _command_attacks(args: argparse.Namespace) -> int:
    from .attacks.registry import list_attacks, scenario_id_for

    for scenario in list_attacks():
        default_grid = ", ".join(
            scenario.series_name(attack) for attack in scenario.grid_configs("default")
        )
        proof_systems = ", ".join(sorted(scenario.PROOF_SYSTEMS)) or "-"
        doc = (scenario.__doc__ or "").strip()
        print(scenario_id_for(scenario.SCENARIO_NAME))
        print(f"  {doc.splitlines()[0] if doc else scenario.SCENARIO_NAME}")
        print(f"  default grid:  {default_grid}")
        print(f"  proof systems: {proof_systems}")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .lint.engine import run

    return run(
        args.paths,
        output_format=args.format,
        select=args.select,
        list_rules=args.list_rules,
    )


def _command_simulate(args: argparse.Namespace) -> int:
    analyzer = SelfishMiningAnalyzer(
        ProtocolParams(p=args.p, gamma=args.gamma),
        _attack_params(args),
        AnalysisConfig(
            epsilon=args.epsilon,
            solver=_resolve_solver(args.solver),
        ),
    )
    result = analyzer.run()
    analyzer.validate_by_simulation(result, num_steps=args.steps, seed=args.seed)
    print(
        f"analysis ERRev = {result.strategy_errev:.4f}, "
        f"simulated ERRev = {result.simulated_errev:.4f} over {args.steps} steps"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-selfish-mining`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return _command_analyze(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "attacks":
        return _command_attacks(args)
    if args.command == "lint":
        return _command_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
