"""Command-line interface.

Three subcommands mirror the library's main entry points (installed as both
``repro`` and the legacy ``repro-selfish-mining``)::

    repro analyze --p 0.3 --gamma 0.5 --depth 2 --forks 1
    repro sweep   --gamma 0.5 --p-step 0.05 --csv out.csv
    repro attacks

``analyze`` runs Algorithm 1 for one parameter point, ``sweep`` regenerates a
Figure 2 panel, and ``attacks`` lists the two attack scenarios.

Every model-facing subcommand accepts ``--attack NAME`` to select an attack
scenario (:data:`repro.config.SCENARIO_NAMES`): the paper's ``selfish-forks``
family (default) or the classic ``sm-actions`` ADOPT/OVERRIDE/WAIT/MATCH
space, and ``--variant`` to select one of that scenario's variants
(``overpaying`` for ``sm-actions``).  ``sweep`` additionally takes
``--grid SPEC``, interpreted by the selected scenario (``default``, ``paper``,
or scenario-specific tokens such as ``d2f1l4`` / ``l8:overpaying``); the
variant applies to every grid configuration.

The full flag-by-flag reference lives in ``docs/cli.md``.

Sweep-only engine flags: ``--workers N`` fans grid points out over N worker
processes, ``--warm-start-across-points`` starts each point's first solve from
the previous p point's strategy, and ``--reuse-p-bounds`` additionally starts
each point's binary search from the previous p point's certified lower bound
(sound because ERRev* is monotone in p).

Crash safety
------------

``repro sweep --journal PATH`` appends every computed point to a durable,
checksummed journal (:mod:`repro.core.journal`); ``--resume`` replays an
existing journal and recomputes only the missing delta, bit-for-bit identical
to an uninterrupted run.  ``--journal-fsync {never,close,always}`` tunes
durability.  A worker that dies mid-unit turns that unit's points into
failures; ``--resume`` recomputes them.  A journal that another sweep wrote,
or that is corrupt before its tail, is refused with one ``error:`` line on
stderr and exit code 2.

Per-point progress and the journal summary go to stderr, one line each;
``--quiet`` drops them.  Stdout carries only the results.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Callable, Optional, Sequence, Tuple

from ._validation import check_positive_float, check_positive_int, check_probability
from .config import (
    SCENARIO_NAMES,
    SCENARIO_VARIANTS,
    AnalysisConfig,
    AttackParams,
    ProtocolParams,
)
from .core import SelfishMiningAnalyzer, ascii_plot, render_table, write_csv
from .core.sweep import SweepConfig, run_sweep
from .exceptions import ConfigurationError, ModelError


def _check_p_step(step: float, name: str) -> float:
    # The grid is rounded to 4 decimals, so a finer step would repeat p values.
    if not step >= 1e-4:
        raise ConfigurationError(f"{name} must be at least 0.0001, got {step!r}")
    return check_positive_float(step, name)


def _flag_type(check: Callable, name: str, parse: Callable = float) -> Callable[[str], object]:
    """The argparse type of flag ``name``: ``parse`` the text, then apply the library's rule."""

    def flag_value(text: str) -> object:
        try:
            return check(parse(text), name)
        except ValueError as exc:  # a ConfigurationError, or text that does not parse
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_value


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--attack",
        choices=SCENARIO_NAMES,
        default="selfish-forks",
        metavar="NAME",
        help=f"attack scenario, one of {', '.join(SCENARIO_NAMES)} (see `repro attacks`)",
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
    parser.add_argument(
        "--p", type=_flag_type(check_probability, "p"), default=0.3,
        help="adversarial resource fraction",
    )
    parser.add_argument(
        "--gamma", type=_flag_type(check_probability, "gamma"), default=0.5,
        help="switching probability",
    )
    parser.add_argument("--depth", "-d", type=int, default=2, help="attack depth d")
    parser.add_argument("--forks", "-f", type=int, default=1, help="forking number f")
    parser.add_argument("--max-fork-length", "-l", type=int, default=4, help="maximal fork length l")
    parser.add_argument(
        "--epsilon", type=_flag_type(check_positive_float, "epsilon"), default=1e-3,
        help="binary search precision",
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
    sweep.add_argument("--gamma", type=_flag_type(check_probability, "gamma"), default=0.5)
    sweep.add_argument("--p-max", type=_flag_type(check_probability, "p-max"), default=0.3)
    sweep.add_argument("--p-step", type=_flag_type(_check_p_step, "p-step"), default=0.05)
    sweep.add_argument("--epsilon", type=_flag_type(check_positive_float, "epsilon"), default=1e-3)
    sweep.add_argument(
        "--grid",
        type=str,
        default=None,
        metavar="SPEC",
        help="attack grid specification interpreted by the selected scenario "
        "('default', 'paper', or scenario tokens such as 'd1f1,d2f1l6' / 'l4,l8')",
    )
    sweep.add_argument("--csv", type=str, default=None, help="optional CSV output path")
    sweep.add_argument(
        "--workers",
        type=_flag_type(check_positive_int, "workers", int),
        default=1,
        help="worker processes for the sweep engine (1 = serial)",
    )
    sweep.add_argument(
        "--warm-start-across-points",
        action="store_true",
        help="start each point's first solve from the previous p point's strategy",
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

    subparsers.add_parser("attacks", help="list the attack scenarios")
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


def _command_analyze(
    protocol: ProtocolParams, attack: AttackParams, analysis: AnalysisConfig
) -> int:
    result = SelfishMiningAnalyzer(protocol, attack, analysis).run()
    rows = [result.to_row()]
    print(render_table(rows))
    print(
        f"\nERRev lower bound: {result.errev_lower_bound:.4f}  "
        f"(strategy achieves {result.strategy_errev:.4f}, honest mining {result.honest_errev:.4f})"
    )
    print(f"MDP: {result.num_states} states, {result.num_transitions} transitions")
    print(f"Time: build {result.build_seconds:.2f}s, analysis {result.analysis_seconds:.2f}s")
    return 0


def _sweep_attack_configs(args: argparse.Namespace) -> Tuple[AttackParams, ...]:
    """Resolve the sweep's attack grid through the selected scenario's parser."""
    from .attacks.registry import get_attack

    configs = get_attack(args.attack).grid_configs(args.grid or "default")
    if args.variant:
        configs = tuple(replace(attack, variant=args.variant) for attack in configs)
    return configs


def _print_stderr(message: str) -> None:
    print(message, file=sys.stderr)


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Build the :class:`SweepConfig` of ``repro sweep``."""
    # Every multiple of --p-step up to --p-max, never past it; the 1e-9 slack
    # absorbs float error so that e.g. 0.3 / 0.05 still yields 7 points.
    num_points = math.floor(args.p_max / args.p_step + 1e-9) + 1
    return SweepConfig(
        p_values=tuple(round(index * args.p_step, 4) for index in range(num_points)),
        gammas=(args.gamma,),
        attack_configs=_sweep_attack_configs(args),
        analysis=AnalysisConfig(epsilon=args.epsilon),
        workers=args.workers,
        warm_start_across_points=args.warm_start_across_points,
        reuse_p_axis_bounds=args.reuse_p_bounds,
        journal_path=args.journal,
        journal_resume=args.resume,
        journal_fsync=args.journal_fsync,
    )


def _command_sweep(args: argparse.Namespace, config: SweepConfig) -> int:
    # Diagnostics (per-point progress and the journal summary) go to stderr
    # through one printer; --quiet passes none, and stdout keeps the results.
    progress = None if args.quiet else _print_stderr
    try:
        sweep = run_sweep(config, progress=progress)
    except ModelError as exc:
        # Points fail per point inside the sweep, so a ModelError out of it is
        # the journal refusing to resume: another sweep wrote it, or it is
        # corrupt before its tail.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    journal_meta = sweep.metadata.get("journal")
    if journal_meta and progress is not None:
        progress(
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
    from .attacks.registry import get_attack, scenario_id_for

    for name in SCENARIO_NAMES:
        scenario = get_attack(name)
        default_grid = ", ".join(
            scenario.series_name(attack) for attack in scenario.grid_configs("default")
        )
        variants = ", ".join(variant or "(default)" for variant in SCENARIO_VARIANTS[name])
        print(scenario_id_for(name))
        print(f"  {(scenario.__doc__ or name).strip().splitlines()[0]}")
        print(f"  default grid: {default_grid}")
        print(f"  variants:     {variants}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-selfish-mining`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "attack" in args and args.variant not in SCENARIO_VARIANTS[args.attack]:
        variants = ", ".join(repr(variant) for variant in SCENARIO_VARIANTS[args.attack])
        parser.error(f"--variant of {args.attack} must be one of {variants}, got {args.variant!r}")
    if args.command == "sweep" and args.resume and args.journal is None:
        parser.error("--resume requires --journal PATH")
    # Build every configuration before any model is built, so that a bad
    # value is a usage error (exit 2), not a traceback.
    try:
        if args.command == "sweep":
            config = _sweep_config(args)
        elif args.command == "analyze":
            protocol = ProtocolParams(p=args.p, gamma=args.gamma)
            attack = _attack_params(args)
            analysis = AnalysisConfig(epsilon=args.epsilon)
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.command == "analyze":
        return _command_analyze(protocol, attack, analysis)
    if args.command == "sweep":
        return _command_sweep(args, config)
    if args.command == "attacks":
        return _command_attacks(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
