"""Command-line interface.

Subcommands: validate, audit, decide, baseline, simulate, oracle, report.
Exit codes: 0 clean, 1 audit found the process SF-unfair (with --strict) or
an oracle mismatch, 2 input error (including an unreadable file, a sweep
grid flag that lists no number and a flag the command would ignore), 3 a
fault in the engine itself, with its traceback on stderr.

A command imports only what it runs: the generator, the oracle, the CSV
writer and the traceback printer are imported by the one subcommand or
fault path that uses each.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from collections.abc import Callable, Sequence
from typing import Any

from .. import __version__
from ..aggregation import STRATEGY_KINDS, VETO, AggregationStrategy
from ..audit import FAIR, UNFAIR
from ..core import AuditParams, InputError, validate_population
from ..explanations import NO_OBLIGATION, unmatched_entries
from .report import (
    Point,
    audit_grid,
    audit_run,
    baselines_section,
    build_audit_doc,
    build_report_doc,
    decide_run,
    dumps_doc,
    label_fields,
    render_baselines,
    render_labels,
    render_text,
    summary_counts,
)
from .runfile import AuditRunFile, load_run, located, save_run

EXIT_OK = 0
EXIT_UNFAIR = 1
EXIT_INPUT = 2
EXIT_FAULT = 3


#: The settings flags, each with its ``add_argument`` keywords.
_SETTINGS_FLAGS = {
    "delta": {"type": float, "help": "override cluster threshold"},
    "epsilon": {"type": float, "help": "override treatment threshold"},
    "theta": {"type": float, "help": "override majority threshold"},
    "strategy": {"choices": STRATEGY_KINDS, "help": "override aggregation strategy"},
}

#: The settings the pipeline reads; epsilon is read by the audit alone.
_PIPELINE_FLAGS = ("delta", "theta", "strategy")


def _add_common(
    parser: argparse.ArgumentParser, settings: Sequence[str] = tuple(_SETTINGS_FLAGS)
) -> None:
    parser.add_argument("--input", required=True, help="audit-run file (JSON)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output form"
    )
    for name in settings:
        parser.add_argument(f"--{name}", **_SETTINGS_FLAGS[name])


def _with_settings(
    run: AuditRunFile,
    delta: float | None = None,
    epsilon: float | None = None,
    theta: float | None = None,
    strategy: str | None = None,
) -> Point:
    """The point ``(params, strategy)`` of the run's own settings with each
    given one in their place, ``strategy`` a kind. Veto rules are kept only
    under the veto kind."""
    theta = run.params.theta if theta is None else theta
    params = AuditParams(
        delta=run.params.delta if delta is None else delta,
        epsilon=run.params.epsilon if epsilon is None else epsilon,
        theta=theta,
    )
    kind = run.strategy.kind if strategy is None else strategy
    rules = run.strategy.veto_rules if kind == VETO else ()
    return params, AggregationStrategy(kind=kind, theta=theta, veto_rules=rules)


def _overridden(run: AuditRunFile, args: argparse.Namespace) -> Point:
    # A settings flag the command does not take counts as not given.
    return _with_settings(run, **{name: getattr(args, name, None) for name in _SETTINGS_FLAGS})


def _refuse_given(args: argparse.Namespace, names: Sequence[str], why: str) -> None:
    # Refuse the first of the flags ``names`` that was given, naming it.
    for name in names:
        if getattr(args, name) is not None:
            raise InputError(f"--{name} {why}")


def _emit(doc: dict[str, Any], fmt: str, text: Callable[[Any], str] = render_text) -> None:
    sys.stdout.write(dumps_doc(doc) if fmt == "json" else text(doc))


def _cmd_validate(args: argparse.Namespace) -> int:
    run = load_run(args.input, validate=False)
    violations = validate_population(run.population, run.perceptions, run.recommendations)
    if not violations and run.ledger is not None:
        # A ledger answers the obligations of its file's own settings, as
        # ``report`` reads it there; only clean inputs can be audited.
        unmatched = unmatched_entries(audit_run(run).owed, run.ledger)
        refusals = [located(exc, ".".join) for exc in unmatched]
        violations = [(NO_OBLIGATION, r.location, r.reason) for r in refusals]
    if args.format == "json":
        doc = {
            "ok": not violations,
            "violations": [
                {"code": code, "where": where, "message": message}
                for code, where, message in violations
            ],
        }
        sys.stdout.write(dumps_doc(doc))
    elif not violations:
        sys.stdout.write("validation: clean\n")
    else:
        sys.stdout.write(f"validation: {len(violations)} violation(s)\n")
        for _, where, message in violations:
            sys.stdout.write(f"  ! {where}: {message}\n")
    return EXIT_INPUT if violations else EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    run = load_run(args.input)
    result = audit_run(run, _overridden(run, args))
    _emit(build_report_doc(result, group_attr=args.group_attr), args.format)
    if args.strict and result.report.sf == UNFAIR:
        return EXIT_UNFAIR
    return EXIT_OK


def _cmd_decide(args: argparse.Namespace) -> int:
    run = load_run(args.input)
    doc = label_fields(run.population.individuals, *decide_run(run, _overridden(run, args)))
    _emit(doc, args.format, lambda d: "\n".join(render_labels(d)) + "\n")
    return EXIT_OK


def _cmd_baseline(args: argparse.Namespace) -> int:
    # Parity reads the decisions alone, and the IF checks read no settings.
    if args.group_attr is None:
        _refuse_given(args, _PIPELINE_FLAGS, "needs --group-attr: without it no setting is read")
    run = load_run(args.input)
    decisions = None if args.group_attr is None else decide_run(run, _overridden(run, args))[1]
    baselines = baselines_section(run, decisions, args.group_attr, include_if=True)
    if not baselines:
        raise InputError(
            "nothing to report: pass --group-attr or add a 'baseline' section to the run file"
        )
    _emit(baselines, args.format, lambda d: "\n".join(render_baselines(d)) + "\n")
    return EXIT_OK


def _parse_grid(raw: str | None, fallback: float, flag: str) -> list[float]:
    """The numbers the grid flag ``flag`` lists, or ``[fallback]`` when it
    is not given; a flag that lists no number is refused."""
    if raw is None:
        return [fallback]
    try:
        grid = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(
            f"{flag} expects a comma-separated list of numbers, got {raw!r}"
        ) from None
    if not grid:
        raise InputError(f"{flag} lists no number: {raw!r}")
    return grid


#: The columns of the sweep table, one row per (grid point, metric).
_SWEEP_FIELDS = ("delta", "epsilon", "theta", "metric", "value")


def _sweep_rows(run: AuditRunFile, args: argparse.Namespace) -> list[dict[str, Any]]:
    points = [
        _with_settings(run, delta, epsilon, theta)
        for delta in _parse_grid(args.deltas, run.params.delta, "--deltas")
        for epsilon in _parse_grid(args.epsilons, run.params.epsilon, "--epsilons")
        for theta in _parse_grid(args.thetas, run.params.theta, "--thetas")
    ]
    rows = []
    for result in audit_grid(run, points):
        report = result.report
        summary = summary_counts(report)
        metrics = {
            "sf_fair": 1.0 if report.sf == FAIR else 0.0,
            "dissenters": float(len(report.dissenters)),
            **{name: float(count) for name, count in summary["counts"].items()},
            "obligations": float(sum(map(len, result.owed.values()))),
            "positive_decision_rate": sum(report.decisions) / run.n,
        }
        for histogram in ("scenario", "conflict"):
            for label, count in summary[f"{histogram}_histogram"].items():
                metrics[f"{histogram}_{label}"] = float(count)
        params = result.params
        rows += [
            dict(zip(_SWEEP_FIELDS, (params.delta, params.epsilon, params.theta, *item)))
            for item in metrics.items()
        ]
    return rows


#: The generator's flags, each with the ``SynthProfile`` field it sets; a
#: flag not given leaves the profile's default.
_PROFILE_FLAGS = {
    "n": "n", "density": "cluster_density", "rate": "base_positive_rate", "seed": "seed"
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not args.sweep:
        _refuse_given(args, ("deltas", "epsilons", "thetas"), "needs --sweep")
    if args.input is not None:
        generator = (*_PROFILE_FLAGS, "manipulate")
        _refuse_given(args, generator, "shapes a generated run, but --input reads one")
        run = load_run(args.input)
    else:
        from .synth import SynthProfile, generate_population
        specs = args.manipulate or []
        for spec in specs:
            if ":" not in spec:
                raise InputError(f"--manipulate expects AGENT:TARGET, got {spec!r}")
        given = {field: getattr(args, flag) for flag, field in _PROFILE_FLAGS.items()}
        profile = SynthProfile(
            manipulation=[spec.split(":", 1) for spec in specs],
            **{field: value for field, value in given.items() if value is not None},
        )
        run = generate_population(profile)

    if args.output is not None:
        save_run(run, args.output)
        sys.stderr.write(f"wrote {args.output}\n")

    if args.sweep:
        rows = _sweep_rows(run, args)
        if args.format == "json":
            sys.stdout.write(dumps_doc(rows))
        else:
            import csv
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=_SWEEP_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
            sys.stdout.write(buffer.getvalue())
    elif args.output is None:
        _emit(build_report_doc(audit_run(run)), args.format)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import DEFAULT_BOUND, brute_force_oracle
    run = load_run(args.input)
    engine_doc = build_audit_doc(audit_run(run))
    bound = DEFAULT_BOUND if args.bound is None else args.bound
    oracle_doc = brute_force_oracle(run, bound=bound)
    if engine_doc == oracle_doc:
        sys.stdout.write("oracle: match\n")
        return EXIT_OK
    sys.stdout.write("oracle: MISMATCH\n")
    for key in sorted(set(engine_doc) | set(oracle_doc)):
        if engine_doc.get(key) != oracle_doc.get(key):
            sys.stdout.write(f"  field {key!r}:\n")
            sys.stdout.write(f"    engine: {json.dumps(engine_doc.get(key), sort_keys=True)}\n")
            sys.stdout.write(f"    oracle: {json.dumps(oracle_doc.get(key), sort_keys=True)}\n")
    return EXIT_UNFAIR


def _cmd_report(args: argparse.Namespace) -> int:
    run = load_run(args.input)
    result = audit_run(run, _overridden(run, args))
    doc = build_report_doc(result, group_attr=args.group_attr, include_baselines=True)
    _emit(doc, args.format)
    return EXIT_OK


def _validate_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, settings=())


def _decide_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, settings=_PIPELINE_FLAGS)


def _audit_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--group-attr", help="also report statistical parity on this attribute")
    p.add_argument(
        "--strict", action="store_true", help="exit 1 when the process is SF-unfair"
    )


def _baseline_args(p: argparse.ArgumentParser) -> None:
    _decide_args(p)
    p.add_argument("--group-attr", help="statistical parity attribute")


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="sweep an existing run file instead of generating")
    p.add_argument("--n", type=int, help="population size")
    p.add_argument("--density", type=float, help="off-diagonal perception density")
    p.add_argument("--rate", type=float, help="base positive recommendation rate")
    p.add_argument("--seed", type=int, help="generator seed")
    p.add_argument(
        "--manipulate",
        action="append",
        metavar="AGENT:TARGET",
        help="add a manipulative agent targeting an owner's cluster (repeatable)",
    )
    p.add_argument("--output", help="write the generated run file here")
    p.add_argument("--sweep", action="store_true", help="emit a parameter-sweep table")
    p.add_argument("--deltas", help="comma-separated delta grid")
    p.add_argument("--epsilons", help="comma-separated epsilon grid")
    p.add_argument("--thetas", help="comma-separated theta grid")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--bound", type=int, help="max population for the oracle")


def _report_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--group-attr", help="also report statistical parity on this attribute")


#: Each subcommand: its name, its help line, what adds its arguments, and
#: what runs it.
_COMMANDS = (
    ("validate", "check a run file against the model invariants", _validate_args, _cmd_validate),
    ("audit", "full fairness audit of a run file", _audit_args, _cmd_audit),
    ("decide", "run the two-stage decision pipeline only", _decide_args, _cmd_decide),
    ("baseline", "classical fairness baselines", _baseline_args, _cmd_baseline),
    ("simulate", "generate synthetic runs and parameter sweeps", _simulate_args, _cmd_simulate),
    ("oracle", "compare the engine against the brute-force oracle", _oracle_args, _cmd_oracle),
    ("report", "emit the full audit report", _report_args, _cmd_report),
)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser; when ``argv``, the arguments it is about to
    parse, starts with a subcommand's name, only that subcommand is
    registered.

    In every other case (no argument, an unknown command, ``--help``,
    ``--version``) all seven are. The one-subcommand parser lists all seven
    names in its usage, so every usage, help and error text it prints is
    the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="subjfair",
        description="Subjective-fairness auditing and decision aggregation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    names = [name for name, *_ in _COMMANDS]
    named = argv[0] if argv and argv[0] in names else None
    # Usage shows the choices: with one registered, name all seven. The full
    # parser sets no metavar, as its errors name the argument ``command``.
    metavar = None if named is None else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_line, add_arguments, func in _COMMANDS:
        if named in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the whole command and put
    back as the caller had it, on every exit. The engine forms no reference
    cycles, so reference counting frees all it makes; what a command leaves
    for the collector is argparse's parser, about a hundred objects for any
    input. In process the caller's next collection takes it; a process run
    for one command (``subjfair.__main__.run``) keeps the collector off and
    freezes it with the rest.
    """
    if argv is None:
        argv = sys.argv[1:]
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser(argv).parse_args(argv)
        try:
            return args.func(args)
        except (InputError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INPUT
        except Exception:
            import traceback
            traceback.print_exc()
            return EXIT_FAULT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    from subjfair.__main__ import run

    run()
