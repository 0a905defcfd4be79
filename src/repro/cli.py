"""Command-line interface: the RichNote toolbox.

Subcommands::

    richnote generate-trace  --preset medium --out trace.jsonl
    richnote stats           --trace trace.jsonl
    richnote train           --trace trace.jsonl
    richnote run             --trace trace.jsonl --method richnote --budget 10
    richnote sweep           --trace trace.jsonl --budgets 1,5,20,100
    richnote figures         --trace trace.jsonl --out artifacts/
    richnote survey
    richnote serve           --rounds 3 --chaos flash-crowd
    richnote bench-channels  --rounds 40

``generate-trace`` synthesizes a labelled Spotify-like notification trace
and writes it as JSONL; the other trace-consuming commands load any such
file (the records embed every feature the pipeline needs).  ``survey``
runs the Figure 2 presentation-utility pipeline end to end.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.core.presentations import build_audio_ladder
from repro.experiments.config import ExperimentConfig, MethodSpec, NetworkMode
from repro.experiments.figures import figure3_and_4, paper_method_specs
from repro.experiments.reporting import render_series_table
from repro.experiments.runner import UtilityAnnotations, run_experiment
from repro.experiments.workloads import workload_spec
from repro.trace.generator import Workload, build_workload
from repro.trace.io import iter_trace, read_trace, write_trace


def _parse_faults(text: str):
    """``0.2`` (disconnect shorthand) or ``disconnect=0.2,timeout=0.05,...``.

    Recognized kinds: disconnect, timeout, corrupt, reject.  Returns a
    :class:`repro.sim.faults.FaultConfig`.
    """
    from repro.sim.faults import FaultConfig

    text = text.strip()
    if not text:
        raise argparse.ArgumentTypeError("empty --faults spec")
    try:
        shorthand = float(text)
    except ValueError:
        shorthand = None
    if shorthand is not None:
        try:
            return FaultConfig(p_disconnect=shorthand)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from error
    known = {"disconnect", "timeout", "corrupt", "reject"}
    kwargs: dict[str, float] = {}
    for part in text.split(","):
        kind, sep, value = part.partition("=")
        kind = kind.strip().lower()
        if not sep or kind not in known:
            raise argparse.ArgumentTypeError(
                f"bad --faults entry {part!r}; use e.g. "
                "disconnect=0.2,timeout=0.05 (kinds: disconnect, timeout, "
                "corrupt, reject) or a bare probability"
            )
        if f"p_{kind}" in kwargs:
            raise argparse.ArgumentTypeError(
                f"duplicate fault kind {kind!r} in {text!r}"
            )
        try:
            kwargs[f"p_{kind}"] = float(value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"bad probability in --faults entry {part!r}"
            ) from error
    try:
        return FaultConfig(**kwargs)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _parse_method(text: str) -> MethodSpec:
    """``richnote`` | ``fifo:3`` | ``util:2`` (see :meth:`MethodSpec.parse`);
    a baseline's level must be a rung of the audio ladder."""
    try:
        spec = MethodSpec.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    top = build_audio_ladder().max_level
    if spec.fixed_level is not None and spec.fixed_level > top:
        raise argparse.ArgumentTypeError(
            f"bad method {text!r}: the ladder's top level is {top}"
        )
    return spec


def _parse_methods(text: str) -> tuple[MethodSpec, ...]:
    """``richnote,util:3``: distinct method specs, in the order given."""
    specs: list[MethodSpec] = []
    for entry in text.split(","):
        spec = _parse_method(entry)
        if spec in specs:
            raise argparse.ArgumentTypeError(f"duplicate method {entry!r} in {text!r}")
        specs.append(spec)
    return tuple(specs)


def _parse_probability(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as a usage error
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not a probability in [0, 1]")
    return value


def _parse_positive(text: str) -> float:
    """A finite number > 0: a budget in MB, a round length, a pool size."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}: need a finite number > 0"
        )
    return value


def _parse_budgets(text: str) -> tuple[float, ...]:
    """``1,5,20``: distinct weekly budgets in MB, in the order given."""
    budgets: list[float] = []
    for entry in text.split(","):
        budget = _parse_positive(entry)
        if budget in budgets:
            raise argparse.ArgumentTypeError(f"duplicate budget {entry!r} in {text!r}")
        budgets.append(budget)
    return tuple(budgets)


def _parse_count(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"bad count {text!r}: need an integer >= {minimum}"
        )
    return value


def _parse_count_or_zero(text: str) -> int:
    """Zero allowed: ``--users N`` (top N users, 0 for all), ``--workers N``
    (0 runs sequentially)."""
    return _parse_count(text, 0)


def _parse_positive_count(text: str) -> int:
    """At least one: ``serve`` users, rounds, queue bound; bench sizes;
    survey respondents."""
    return _parse_count(text, 1)


#: What reading a trace raises when the file is not one: ``OSError`` (a
#: missing path, a directory, a ``.gz`` that is not gzip), ``ValueError``
#: (not JSON, not a richnote trace) and ``EOFError`` (a truncated ``.gz``).
UNREADABLE_TRACE = (OSError, ValueError, EOFError)


def _unreadable_trace(path: str, error: Exception) -> SystemExit:
    """An unreadable ``--trace`` is a usage error (exit 2) naming the path."""
    reason = (error.strerror if isinstance(error, OSError) else None) or str(error)
    if path not in reason:
        reason = f"{path}: {reason}"
    sys.stderr.write(f"richnote: error: argument --trace: {reason}\n")
    return SystemExit(2)


def _load_workload(path: str) -> Workload:
    try:
        records = read_trace(path)
    except UNREADABLE_TRACE as error:
        raise _unreadable_trace(path, error) from error
    return Workload.from_records(records)


def cmd_generate_trace(args: argparse.Namespace) -> int:
    spec = workload_spec(args.preset, seed=args.seed)
    workload = build_workload(spec)
    count = write_trace(args.out, workload.records)
    users = len(workload.user_ids())
    print(f"wrote {count} notifications for {users} users to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    workload = _load_workload(args.trace)
    annotations = UtilityAnnotations.train(
        workload, seed=args.seed, run_cross_validation=True
    )
    cv = annotations.cross_validation
    print("content-utility classifier, 5-fold cross validation:")
    print(f"  {cv.summary()}")
    print("  (paper: precision=0.700 accuracy=0.689 on the real trace)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = _load_workload(args.trace)
    spec = args.method
    config = ExperimentConfig(
        weekly_budget_mb=args.budget, seed=args.seed, faults=args.faults
    )
    annotations = UtilityAnnotations.train(workload, seed=args.seed)
    users = workload.top_users(args.users) if args.users else None
    result = run_experiment(workload, spec, config, annotations, users)
    agg = result.aggregate
    print(f"{spec.label} @ {args.budget:g} MB/week over {agg.users} users:")
    for key, value in agg.row().items():
        print(f"  {key:>15}: {value:.4f}")
    if args.faults is not None:
        from repro.experiments.reporting import render_failure_stats

        print(render_failure_stats(result.failures, label=spec.label))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    workload = _load_workload(args.trace)
    specs = list(args.methods) if args.methods else paper_method_specs()
    annotations = UtilityAnnotations.train(workload, seed=args.seed)
    users = workload.top_users(args.users) if args.users else None
    config = ExperimentConfig(seed=args.seed, faults=args.faults)
    grid = None
    if args.workers:
        from repro.experiments.pool import sweep_budgets_parallel

        grid = sweep_budgets_parallel(
            workload, specs, args.budgets, config, annotations, users,
            max_workers=args.workers, keep_per_user=False,
        )
    figs = figure3_and_4(
        workload, args.budgets, config, annotations, users, specs, grid=grid,
    )
    for name in sorted(figs):
        print(render_series_table(figs[name]))
        print()
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate every paper figure into an artifacts directory."""
    from pathlib import Path

    from repro.experiments.figures import (
        figure5a_fixed_levels,
        figure5b_presentation_mix,
        figure5d_user_categories,
        v_sensitivity,
    )
    from repro.experiments.reporting import (
        render_level_mix,
        render_sensitivity,
        render_series_table,
        render_user_categories,
        save_series_csv,
    )

    workload = _load_workload(args.trace)
    users = workload.top_users(args.users) if args.users else None
    annotations = UtilityAnnotations.train(workload, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig(seed=args.seed, faults=args.faults)

    figs = figure3_and_4(workload, args.budgets, config, annotations, users)
    tables: list[str] = []
    for name in sorted(figs):
        save_series_csv(figs[name], out / f"{name}.csv")
        tables.append(render_series_table(figs[name]))
    fig5a = figure5a_fixed_levels(workload, args.budgets, config, annotations, users)
    save_series_csv(fig5a, out / "fig5a_fixed_levels.csv")
    tables.append(render_series_table(fig5a, precision=1))
    for mode in (NetworkMode.CELL_ONLY, NetworkMode.MARKOV):  # Fig. 5(b), Fig. 5(c)
        mix = figure5b_presentation_mix(workload, args.budgets, config, annotations, users, mode)
        tables.append(render_level_mix(mix))
    categories = figure5d_user_categories(workload, config, annotations, users)
    tables.append(render_user_categories(categories))
    sensitivity = v_sensitivity(workload, config=config, annotations=annotations,
                                user_ids=users)
    tables.append(render_sensitivity(sensitivity))
    (out / "tables.txt").write_text("\n\n".join(tables) + "\n", encoding="utf-8")
    print(f"wrote {len(list(out.iterdir()))} artifact files to {out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.trace.stats import compute_stats, render_stats

    # Streaming: stats are a single fold, so never materialize the trace.
    try:
        stats = compute_stats(iter_trace(args.trace))
    except UNREADABLE_TRACE as error:
        raise _unreadable_trace(args.trace, error) from error
    print(render_stats(stats))
    return 0


def cmd_bench_channels(args: argparse.Namespace) -> int:
    """Flash-crowd shared-cell scenario: cross-user degradation report."""
    from repro.experiments.channels_bench import ChannelsBenchConfig, bench_channels

    config = ChannelsBenchConfig(
        seed=args.seed,
        rounds=args.rounds,
        crowd_users=args.crowd_users,
        bystanders_per_cell=args.bystanders,
        pool_bytes_per_round=args.pool_bytes,
    )
    payload = bench_channels(config)
    shared = payload["coupling"]["shared_bystanders"]
    control = payload["coupling"]["control_bystanders"]
    print(
        f"shared-cell bystanders: utility "
        f"{shared['uncoupled_utility']:.2f} -> {shared['coupled_utility']:.2f} "
        f"({shared['drop_fraction']:.1%} drop from the crowd's pool drain); "
        f"control cell: {control['drop_fraction']:.1%}"
    )
    for name, row in payload["coupled"]["per_channel"].items():
        print(
            f"  {name}: {row['delivered']} delivered, {row['shed']} shed, "
            f"{row['dead_letters']} dead-lettered"
        )
    print(
        "conservation error: "
        f"{payload['coupled']['conservation_error_bytes']:g} B"
    )
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    from repro.survey.fitting import select_best_fit
    from repro.survey.pareto import pareto_frontier
    from repro.survey.synthesis import (
        ratings_to_candidates,
        synthesize_duration_survey,
        synthesize_presentation_survey,
    )

    ratings = synthesize_presentation_survey(
        n_respondents=args.respondents, seed=args.seed
    )
    frontier = pareto_frontier(ratings_to_candidates(ratings))
    print(f"Fig 2(a): {len(ratings)} candidates -> {len(frontier)} useful")
    survey = synthesize_duration_survey(
        n_respondents=args.respondents, seed=args.seed
    )
    probes = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 39.0]
    utilities = [max(u, 1e-6) for u in survey.utilities_at(probes)]
    best, other = select_best_fit(probes, utilities)
    print(f"Fig 2(b): best fit {best}; runner-up {other}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the live notification service for a bounded chaos session.

    Builds the self-contained harness (seeded devices, flash-crowd
    ingress, flaky egress), runs ``--rounds`` round periods on a
    simulated clock and prints the health ledger.
    """
    from repro.service.harness import DemoConfig, run_demo

    config = DemoConfig(
        users=args.users,
        rounds=args.rounds,
        round_seconds=args.round_seconds,
        queue_bound=args.queue_bound,
        seed=args.seed,
        policy=args.policy,
        chaos=args.chaos,
        sink_fail=args.sink_fail,
        p_outage=args.outage,
    )
    service = run_demo(config).service
    accounting = service.accounting()
    stats = service.stats
    controller = service.controller
    print(
        f"served {config.users} users x {config.rounds} rounds "
        f"({config.round_seconds:g}s each), chaos={config.chaos}"
    )
    print(
        f"  ingested={accounting['ingested']} delivered={accounting['delivered']} "
        f"shed={accounting['shed']} deferred_pending={accounting['deferred_pending']} "
        f"dead_lettered={accounting['dead_lettered']} pending={accounting['pending']}"
    )
    print(
        f"  latency p50={stats.latency_quantile(0.50):.1f}s "
        f"p99={stats.latency_quantile(0.99):.1f}s "
        f"({len(stats.latencies)} delivered); "
        f"{stats.delivered / (config.rounds * config.round_seconds):.2f} "
        f"delivered/sim-s"
    )
    print(
        f"  pressure max={controller.max_level.name} "
        f"final={controller.level.name} "
        f"({len(controller.transitions)} transitions); "
        f"queue high-water {service.frontier.high_water()}"
        f"/{config.queue_bound}"
    )
    error = accounting["error"]
    print(f"  conservation error: {error}")
    return 0 if error == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richnote",
        description="RichNote (ICDCS 2016) reproduction toolbox",
    )
    parser.add_argument("--seed", type=int, default=97, help="master seed")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate-trace", help="synthesize a labelled notification trace"
    )
    generate.add_argument(
        "--preset", default="medium", choices=("small", "medium", "large")
    )
    generate.add_argument("--out", required=True, help="output JSONL path")
    generate.set_defaults(handler=cmd_generate_trace)

    train = commands.add_parser(
        "train", help="cross-validate the content-utility classifier"
    )
    train.add_argument("--trace", required=True)
    train.set_defaults(handler=cmd_train)

    run = commands.add_parser("run", help="replay one policy at one budget")
    run.add_argument("--trace", required=True)
    run.add_argument("--method", type=_parse_method, default="richnote",
                     help="richnote | fifo:<level> | util:<level>")
    run.add_argument("--budget", type=_parse_positive, default=10.0,
                     help="weekly data budget in MB")
    run.add_argument("--users", type=_parse_count_or_zero, default=0,
                     help="restrict to the top N users (0 = all)")
    run.add_argument("--faults", type=_parse_faults, default=None,
                     help="chaos: fault probabilities, e.g. 0.2 or "
                          "disconnect=0.2,timeout=0.05")
    run.set_defaults(handler=cmd_run)

    sweep = commands.add_parser(
        "sweep", help="the Figures 3-4 grid over budgets and methods"
    )
    sweep.add_argument("--trace", required=True)
    sweep.add_argument("--budgets", type=_parse_budgets, default="1,2,5,10,20,50,100")
    sweep.add_argument("--methods", type=_parse_methods, default=None,
                       help="comma list, e.g. richnote,util:3 (default: paper's five)")
    sweep.add_argument("--users", type=_parse_count_or_zero, default=0)
    sweep.add_argument("--faults", type=_parse_faults, default=None,
                       help="chaos: fault probabilities, e.g. 0.2 or "
                            "disconnect=0.2,timeout=0.05")
    sweep.add_argument("--workers", type=_parse_count_or_zero, default=0,
                       help="run the grid on a persistent worker pool with "
                            "N processes (0 = sequential)")
    sweep.set_defaults(handler=cmd_sweep)

    figures = commands.add_parser(
        "figures", help="regenerate every paper figure into --out (CSV + text)"
    )
    figures.add_argument("--trace", required=True)
    figures.add_argument("--out", required=True)
    figures.add_argument("--budgets", type=_parse_budgets, default="1,2,5,10,20,50,100")
    figures.add_argument("--users", type=_parse_count_or_zero, default=0)
    figures.add_argument("--faults", type=_parse_faults, default=None,
                         help="chaos: re-render every figure under a fault "
                              "schedule, e.g. disconnect=0.2")
    figures.set_defaults(handler=cmd_figures)

    stats = commands.add_parser(
        "stats", help="summarize a trace (volumes, kinds, interactions)"
    )
    stats.add_argument("--trace", required=True)
    stats.set_defaults(handler=cmd_stats)

    bench_channels = commands.add_parser(
        "bench-channels",
        help="multi-channel flash-crowd bench: shared cell pools "
             "coupling users",
    )
    bench_channels.add_argument(
        "--rounds", type=_parse_positive_count, default=40,
        help="rounds to simulate",
    )
    bench_channels.add_argument(
        "--crowd-users", type=_parse_positive_count, default=12,
        dest="crowd_users", help="flash-crowd cohort size on the shared cell",
    )
    bench_channels.add_argument(
        "--bystanders", type=_parse_positive_count, default=4,
        help="bystanders per cell (shared + control)",
    )
    bench_channels.add_argument(
        "--pool-bytes", type=_parse_positive, default=4_000_000.0,
        dest="pool_bytes",
        help="per-round shared byte pool of each cell",
    )
    bench_channels.set_defaults(handler=cmd_bench_channels)

    survey = commands.add_parser(
        "survey", help="the Figure 2 presentation-utility pipeline"
    )
    survey.add_argument("--respondents", type=_parse_positive_count, default=80)
    survey.set_defaults(handler=cmd_survey)

    serve = commands.add_parser(
        "serve",
        help="run the live notification service (bounded chaos session)",
    )
    serve.add_argument("--users", type=_parse_positive_count, default=16)
    serve.add_argument("--rounds", type=_parse_positive_count, default=6)
    serve.add_argument(
        "--round-seconds", type=_parse_positive, default=60.0,
        dest="round_seconds",
    )
    serve.add_argument(
        "--queue-bound", type=_parse_positive_count, default=16,
        dest="queue_bound",
    )
    serve.add_argument("--policy", default="richnote")
    serve.add_argument(
        "--chaos", default="flash-crowd", choices=("none", "flash-crowd")
    )
    serve.add_argument(
        "--sink-fail",
        type=_parse_probability,
        default=0.10,
        dest="sink_fail",
        help="probability an egress delivery attempt fails",
    )
    serve.add_argument(
        "--outage",
        type=_parse_probability,
        default=0.10,
        help="per-round probability a connected device is forced offline",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
