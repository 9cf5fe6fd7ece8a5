"""Command line front end.

Three subcommands: check (one spec or a batch file), sweep (exhaustive or
randomized families, resumable), reproduce (named expected results).
Machine output is schema-versioned JSON: a single document for checks and
reproductions, line-delimited records for sweeps.  Every number in machine
output is an exact decimal integer; timings are reported in milliseconds.

An argv whose first token names a subcommand is parsed by that subcommand's
parser alone; any other argv, or one leaving a token that parser does not
take, goes to the full parser.

Exit codes: 0 success, 2 usage error or refusal (bad arguments, checkpoint
mismatch, I/O failure), 3 positivity violation or reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .harness import (
    FAKE_GAUSSIAN_TEMPLATES,
    REPORT_SCHEMA,
    VERDICT_VIOLATION,
    CheckpointMismatch,
    CheckResult,
    SweepReport,
    crosscheck_theorems,
    remark25_table,
    reproduce_corollary10,
    reproduce_lemma6,
    stanton_table,
    sweep_conjecture1,
    sweep_fake_gaussian,
    verify_fake_gaussian,
    verify_quotient,
)
from .qexpr import FakeGaussianSpec, QuotientSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3

#: Sweeps beyond this n_max must be requested explicitly with --long-run.
DESK_N_MAX = 150

CHECKPOINT_DIR_ENV = "QPOSITIVITY_CHECKPOINT_DIR"


def _ms(seconds: float) -> int:
    return int(round(seconds * 1000))


def _document(command: "list[str]", **payload) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "tool": "qpositivity",
        "version": __version__,
        "command": command,
    }
    doc.update(payload)
    return doc


def _result_json(result: CheckResult, seconds: float = 0.0) -> dict:
    return {**result.to_dict(), "elapsed_ms": _ms(seconds)}


def _coeff_list(coeffs) -> str:
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def _resolve_checkpoint(path: "str | None") -> "str | None":
    if path is None or os.path.isabs(path):
        return path
    base = os.environ.get(CHECKPOINT_DIR_ENV)
    return os.path.join(base, path) if base else path


def _parse_sequence(text: str) -> "tuple[int, ...]":
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad exponent sequence {text!r}; expected e.g. 1,3,1")


def _parse_check_spec(tokens: "list[str]", fake: bool):
    if fake:
        if len(tokens) != 2:
            raise ValueError("--fake-gaussian expects: m a1,a2,...")
        try:
            m = int(tokens[0])
        except ValueError:
            raise ValueError(f"bad m {tokens[0]!r}")
        return FakeGaussianSpec(m, _parse_sequence(tokens[1]))
    if len(tokens) != 3:
        raise ValueError("check expects: n k l  (or --fake-gaussian m a1,a2,...)")
    try:
        n, k, l = (int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"bad quotient spec {' '.join(tokens)!r}")
    return QuotientSpec(n, k, l)


def _parse_batch_line(line: str, lineno: int):
    tokens = line.split()
    if len(tokens) == 3:
        return _parse_check_spec(tokens, fake=False)
    if len(tokens) == 2:
        return _parse_check_spec(tokens, fake=True)
    raise ValueError(f"line {lineno}: expected 'n k l' or 'm a1,a2,...', got {line!r}")


def _load_batch(path: str):
    specs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                specs.append(_parse_batch_line(line, lineno))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read batch file: {exc}")
    if not specs:
        raise ValueError(f"batch file {path} holds no spec")
    return specs


def _verify(spec, expand_flag: bool, properties: bool) -> CheckResult:
    if isinstance(spec, QuotientSpec):
        return verify_quotient(spec, properties=properties, keep_expansion=expand_flag)
    return verify_fake_gaussian(spec, properties=properties, keep_expansion=expand_flag)


def _print_check_text(result: CheckResult, expand_flag: bool) -> None:
    if result.normalized_spec != result.spec:
        print(f"spec {result.spec} normalized to {result.normalized_spec}")
    else:
        print(f"spec {result.spec}")
    if not result.is_polynomial:
        print("not a polynomial")
    elif result.verdict == VERDICT_VIOLATION and result.properties is None:
        print(f"VIOLATION; {result.note}")
    elif result.verdict == VERDICT_VIOLATION:
        exponent, coefficient = result.properties.first_negative
        print(f"VIOLATION; first negative coefficient {coefficient} at q^{exponent}")
        if expand_flag and result.expansion is not None:
            print(f"coefficients {_coeff_list(result.expansion.coeffs)}")
    else:
        if expand_flag and result.expansion is not None:
            print(f"polynomial; coefficients {_coeff_list(result.expansion.coeffs)}")
        else:
            print("polynomial; nonnegative")
    if result.properties is not None:
        p = result.properties
        print(
            f"properties: reciprocal={p.reciprocal} unimodal={p.unimodal} "
            f"parity_unimodal={p.parity_unimodal} order={p.order} degree={p.degree}"
        )


def cmd_check(args, command: "list[str]") -> int:
    if args.batch:
        if args.spec:
            raise ValueError("--batch and an inline spec are mutually exclusive")
        specs = _load_batch(args.batch)
    else:
        specs = [_parse_check_spec(args.spec, args.fake_gaussian)]
    results, seconds = [], []
    for spec in specs:
        started = time.perf_counter()
        results.append(_verify(spec, args.expand, args.properties))
        seconds.append(time.perf_counter() - started)
    if args.format == "json":
        doc = _document(command, results=list(map(_result_json, results, seconds)))
        print(json.dumps(doc))
    else:
        for result in results:
            _print_check_text(result, args.expand)
    if any(r.verdict == VERDICT_VIOLATION for r in results):
        return EXIT_VIOLATION
    return EXIT_OK


def _print_sweep_text(report: SweepReport) -> None:
    print(f"sweep {report.sweep_id} {report.params}")
    for violation in report.violations:
        locus = violation.properties.first_negative if violation.properties else None
        note = f" ({violation.note})" if violation.note else ""
        print(f"VIOLATION at {violation.spec}: first negative {locus}{note}")
    c = report.counts
    print(
        f"examined {c['examined']}, polynomial {c['polynomial']}, "
        f"violations {c['violations']}"
    )
    print(f"cursor {report.cursor}, wall time {report.wall_time:.1f}s")


def _print_sweep_jsonl(report: SweepReport, command: "list[str]") -> None:
    begin = _document(
        command,
        event="begin",
        sweep=report.sweep_id,
        params=report.params,
        seed=report.params.get("seed"),
    )
    print(json.dumps(begin))
    for violation in report.violations:
        print(json.dumps({"event": "violation", "result": _result_json(violation)}))
    summary = {
        "event": "summary",
        "counts": report.counts,
        "cursor": report.cursor,
        "wall_time_ms": _ms(report.wall_time),
    }
    print(json.dumps(summary))


def cmd_sweep(args, command: "list[str]") -> int:
    checkpoint = _resolve_checkpoint(args.checkpoint)
    if args.family == "conjecture1":
        if args.n_max is None:
            raise ValueError("sweep conjecture1 requires --n-max")
        if args.n_max > DESK_N_MAX and not args.long_run:
            raise ValueError(
                f"--n-max {args.n_max} exceeds the desk bound {DESK_N_MAX}; "
                "pass --long-run to confirm"
            )
        report = sweep_conjecture1(
            args.n_max,
            workers=args.jobs,
            checkpoint=checkpoint,
            resume=args.resume,
            stop_after=args.stop_after,
        )
    else:
        if args.samples is None:
            raise ValueError("sweep fake-gaussian requires --samples")
        report = sweep_fake_gaussian(
            args.template,
            seed=args.seed,
            samples=args.samples,
            value_max=args.value_max,
            m_span=args.m_span,
            workers=args.jobs,
            checkpoint=checkpoint,
            resume=args.resume,
            stop_after=args.stop_after,
        )
    if args.format == "json":
        _print_sweep_jsonl(report, command)
    else:
        _print_sweep_text(report)
    return EXIT_VIOLATION if report.counts["violations"] else EXIT_OK


def _remark25_line(r: dict) -> str:
    verdict = "match" if r["match"] else "MISMATCH, expected " + _coeff_list(r["expected"])
    return f"{r['expression']} -> {_coeff_list(r['coefficients'])} {verdict}"


def _stanton_line(r: dict) -> str:
    suffix = "" if r["match"] else "  <- unexpected"
    if r["first_negative"]:
        e, c = r["first_negative"]
        return f"m={r['m']}: {r['verdict']}, first negative {c} at q^{e}{suffix}"
    return f"m={r['m']}: {r['verdict']}{suffix}"


def _lemma6_line(r: dict) -> str:
    return (
        f"K={r['K']} M={r['M']} degree={r['degree']} order_bound={r['order_bound']} "
        f"A={'ok' if r['A'] else 'FAIL'} "
        f"B={'-' if r['B'] is None else 'ok' if r['B'] else 'FAIL'}"
    )


def _m_max(args, default: int) -> int:
    # m-max doubles as the m range bound (stanton) and the M grid bound (lemma6)
    return default if args.m_max is None else args.m_max


#: Table reproductions: name -> (harness function returning (rows, ok),
#: its bounds from the parsed arguments, the text line of one row).
_TABLES = {
    "remark25": (remark25_table, lambda args: (), _remark25_line),
    "stanton": (stanton_table, lambda args: (_m_max(args, 50),), _stanton_line),
    "lemma6": (reproduce_lemma6, lambda args: (args.k_max, _m_max(args, 3)), _lemma6_line),
}


def cmd_reproduce(args, command: "list[str]") -> int:
    if args.name in _TABLES:
        fn, bounds, line = _TABLES[args.name]
        rows, ok = fn(*bounds(args))
    else:
        fn = reproduce_corollary10 if args.name == "corollary10" else crosscheck_theorems
        report = fn(args.n_max)
        ok = report.counts["violations"] == 0
        rows = [report.to_dict(canonical=True)]

    if args.format == "json":
        print(json.dumps(_document(command, name=args.name, rows=rows, ok=ok)))
    else:
        if args.name in _TABLES:
            for r in rows:
                print(line(r))
        else:
            _print_sweep_text(report)
        print("reproduction ok" if ok else "reproduction FAILED")
    return EXIT_OK if ok else EXIT_VIOLATION


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("spec", nargs="*", help="n k l, or with --fake-gaussian: m a1,a2,...")
    check.add_argument("--fake-gaussian", action="store_true")
    check.add_argument("--expand", action="store_true", help="print the coefficient vector")
    check.add_argument("--properties", action="store_true", help="attach the property record")
    check.add_argument("--batch", metavar="FILE", help="one spec per line")
    check.add_argument("--format", choices=("text", "json"), default="text")


def _sweep_arguments(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("family", choices=("conjecture1", "fake-gaussian"))
    sweep.add_argument("--n-max", type=int, help="exhaustive bound (conjecture1)")
    sweep.add_argument("--template", choices=FAKE_GAUSSIAN_TEMPLATES, default="aba")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--samples", type=int, help="sample count (fake-gaussian)")
    sweep.add_argument("--value-max", type=int, default=10)
    sweep.add_argument("--m-span", type=int, default=200)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sweep.add_argument("--jobs", type=int, default=cpus or 1)
    sweep.add_argument("--checkpoint", metavar="PATH",
                       help=f"checkpoint file; relative paths honor ${CHECKPOINT_DIR_ENV}")
    sweep.add_argument("--resume", action="store_true")
    sweep.add_argument("--stop-after", type=int, help="stop after this many work units")
    sweep.add_argument("--long-run", action="store_true",
                       help=f"allow --n-max beyond {DESK_N_MAX}")
    sweep.add_argument("--format", choices=("text", "json"), default="text")


def _reproduce_arguments(reproduce: argparse.ArgumentParser) -> None:
    reproduce.add_argument(
        "name", choices=("remark25", "stanton", "corollary10", "lemma6", "crosscheck")
    )
    reproduce.add_argument("--n-max", type=int, default=20,
                           help="bound for corollary10 and crosscheck")
    reproduce.add_argument("--m-max", type=int, default=None,
                           help="m bound for stanton (default 50), M bound for lemma6 (default 3)")
    reproduce.add_argument("--k-max", type=int, default=6, help="K bound for lemma6")
    reproduce.add_argument("--format", choices=("text", "json"), default="text")


#: Subcommand name -> (help, function adding its arguments, handler).
_COMMANDS = {
    "check": ("verify a single spec or a batch file", _check_arguments, cmd_check),
    "sweep": ("run a parameter sweep", _sweep_arguments, cmd_sweep),
    "reproduce": ("recompute a named expected result", _reproduce_arguments, cmd_reproduce),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand registered with its arguments."""
    parser = argparse.ArgumentParser(
        prog="qpositivity",
        description="Exact positivity checks for q-factorial quotients and products.",
        epilog="Exit codes: 0 ok, 2 usage error or refusal, 3 violation or mismatch.",
    )
    parser.add_argument("--version", action="version", version=f"qpositivity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: "list[str]") -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        # the parser add_parser builds, to which the full one hands argv[1:];
        # a token it leaves is the full parser's top-level error to report
        parser = argparse.ArgumentParser(prog=f"qpositivity {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    handler = _COMMANDS[args.command][2]
    try:
        return handler(args, list(argv))
    except CheckpointMismatch as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # a bad argument or parameter, an I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
