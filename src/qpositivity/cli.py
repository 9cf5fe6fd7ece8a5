"""Command line front end.

Three subcommands: check (one spec or a batch file), sweep (exhaustive or
randomized families, resumable), reproduce (named expected results).
Machine output is schema-versioned JSON: a single document for checks and
reproductions, line-delimited records for sweeps.  Every number in machine
output is an exact decimal integer; timings are reported in milliseconds.

Exit codes: 0 success, 2 usage error or refusal (bad arguments, checkpoint
mismatch, I/O failure), 3 positivity violation or reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .harness import (
    REMARK25_EXPECTED,
    REPORT_SCHEMA,
    CheckpointMismatch,
    CheckResult,
    SweepReport,
    crosscheck_theorems,
    reproduce_corollary10,
    reproduce_lemma6,
    reproduce_remark25,
    reproduce_stanton,
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


class UsageError(Exception):
    pass


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


def _result_json(result: CheckResult) -> dict:
    d = result.to_dict(canonical=True)
    d["elapsed_ms"] = _ms(result.elapsed)
    return d


def _coeff_list(coeffs) -> str:
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the ValueError that library code raises
    for an out-of-range parameter turned into a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _resolve_checkpoint(path: "str | None") -> "str | None":
    if path is None or os.path.isabs(path):
        return path
    base = os.environ.get(CHECKPOINT_DIR_ENV)
    return os.path.join(base, path) if base else path


def _parse_sequence(text: str) -> "tuple[int, ...]":
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad exponent sequence {text!r}; expected e.g. 1,3,1")


def _parse_check_spec(tokens: "list[str]", fake: bool):
    if fake:
        if len(tokens) != 2:
            raise UsageError("--fake-gaussian expects: m a1,a2,...")
        try:
            m = int(tokens[0])
        except ValueError:
            raise UsageError(f"bad m {tokens[0]!r}")
        return _checked(FakeGaussianSpec, m, _parse_sequence(tokens[1]))
    if len(tokens) != 3:
        raise UsageError("check expects: n k l  (or --fake-gaussian m a1,a2,...)")
    try:
        n, k, l = (int(t) for t in tokens)
    except ValueError:
        raise UsageError(f"bad quotient spec {' '.join(tokens)!r}")
    return QuotientSpec(n, k, l)


def _parse_batch_line(line: str, lineno: int):
    tokens = line.split()
    if len(tokens) == 3:
        return _parse_check_spec(tokens, fake=False)
    if len(tokens) == 2:
        return _parse_check_spec(tokens, fake=True)
    raise UsageError(f"line {lineno}: expected 'n k l' or 'm a1,a2,...', got {line!r}")


def _load_batch(path: str):
    specs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                specs.append(_parse_batch_line(line, lineno))
    except OSError as exc:
        raise UsageError(f"cannot read batch file: {exc}")
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
    elif result.verdict == "VIOLATION":
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
            raise UsageError("--batch and an inline spec are mutually exclusive")
        specs = _load_batch(args.batch)
    else:
        specs = [_parse_check_spec(args.spec, args.fake_gaussian)]
    try:
        results = [_verify(s, args.expand, args.properties) for s in specs]
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        doc = _document(command, results=[_result_json(r) for r in results])
        print(json.dumps(doc))
    else:
        for result in results:
            _print_check_text(result, args.expand)
    if any(r.verdict == "VIOLATION" for r in results):
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
        seed=report.seed,
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
    if args.resume and not args.checkpoint:
        raise UsageError("--resume requires --checkpoint")
    checkpoint = _resolve_checkpoint(args.checkpoint)
    if args.family == "conjecture1":
        if args.n_max is None:
            raise UsageError("sweep conjecture1 requires --n-max")
        if args.n_max > DESK_N_MAX and not args.long_run:
            raise UsageError(
                f"--n-max {args.n_max} exceeds the desk bound {DESK_N_MAX}; "
                "pass --long-run to confirm"
            )
        report = _checked(
            sweep_conjecture1,
            args.n_max,
            workers=args.jobs,
            checkpoint=checkpoint,
            resume=args.resume,
            stop_after=args.stop_after,
        )
    else:
        if args.samples is None:
            raise UsageError("sweep fake-gaussian requires --samples")
        report = _checked(
            sweep_fake_gaussian,
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


def _reproduce_remark25_rows():
    rows = []
    for (expr, p), expected in zip(reproduce_remark25(), REMARK25_EXPECTED):
        rows.append(
            {
                "expression": str(expr),
                "coefficients": list(p.coeffs),
                "expected": list(expected),
                "match": p.coeffs == expected,
            }
        )
    return rows, all(r["match"] for r in rows)


def _reproduce_stanton_rows(m_max: int):
    rows = []
    ok = True
    for m, result in enumerate(reproduce_stanton(m_max), start=1):
        locus = result.properties.first_negative if result.properties else None
        if m == 1:
            good = result.verdict == "VIOLATION" and locus == (7, -1)
        else:
            good = result.verdict == "polynomial-nonnegative"
        ok = ok and good
        rows.append(
            {
                "m": m,
                "verdict": result.verdict,
                "first_negative": list(locus) if locus else None,
                "match": good,
            }
        )
    return rows, ok


def cmd_reproduce(args, command: "list[str]") -> int:
    name = args.name
    report = None
    # m-max doubles as the m range bound (stanton) and the M grid bound (lemma6)
    m_max = args.m_max if args.m_max is not None else (50 if name == "stanton" else 3)
    if name == "remark25":
        rows, ok = _reproduce_remark25_rows()
        text = [
            f"{r['expression']} -> {_coeff_list(r['coefficients'])} "
            f"{'match' if r['match'] else 'MISMATCH, expected ' + _coeff_list(r['expected'])}"
            for r in rows
        ]
    elif name == "stanton":
        rows, ok = _checked(_reproduce_stanton_rows, m_max)
        text = []
        for r in rows:
            suffix = "" if r["match"] else "  <- unexpected"
            if r["first_negative"]:
                e, c = r["first_negative"]
                text.append(f"m={r['m']}: {r['verdict']}, first negative {c} at q^{e}{suffix}")
            else:
                text.append(f"m={r['m']}: {r['verdict']}{suffix}")
    elif name == "lemma6":
        rows, ok = _checked(reproduce_lemma6, args.k_max, m_max)
        text = [
            f"K={r['K']} M={r['M']} degree={r['degree']} order_bound={r['order_bound']} "
            f"A={'ok' if r['A'] else 'FAIL'} "
            f"B={'-' if r['B'] is None else 'ok' if r['B'] else 'FAIL'}"
            for r in rows
        ]
    elif name == "corollary10":
        report = _checked(reproduce_corollary10, args.n_max)
        ok = report.counts["violations"] == 0
        rows = [report.to_dict(canonical=True)]
        text = None
    else:
        report = _checked(crosscheck_theorems, args.n_max)
        ok = report.counts["violations"] == 0
        rows = [report.to_dict(canonical=True)]
        text = None

    if args.format == "json":
        print(json.dumps(_document(command, name=name, rows=rows, ok=ok)))
    elif report is not None:
        _print_sweep_text(report)
        print("reproduction ok" if ok else "reproduction FAILED")
    else:
        for line in text:
            print(line)
        print("reproduction ok" if ok else "reproduction FAILED")
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpositivity",
        description="Exact positivity checks for q-factorial quotients and products.",
        epilog="Exit codes: 0 ok, 2 usage error or refusal, 3 violation or mismatch.",
    )
    parser.add_argument("--version", action="version", version=f"qpositivity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a single spec or a batch file")
    check.add_argument("spec", nargs="*", help="n k l, or with --fake-gaussian: m a1,a2,...")
    check.add_argument("--fake-gaussian", action="store_true")
    check.add_argument("--expand", action="store_true", help="print the coefficient vector")
    check.add_argument("--properties", action="store_true", help="attach the property record")
    check.add_argument("--batch", metavar="FILE", help="one spec per line")
    check.add_argument("--format", choices=("text", "json"), default="text")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("family", choices=("conjecture1", "fake-gaussian"))
    sweep.add_argument("--n-max", type=int, help="exhaustive bound (conjecture1)")
    sweep.add_argument("--template", choices=("a", "aa", "aba", "abcba"), default="aba")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--samples", type=int, help="sample count (fake-gaussian)")
    sweep.add_argument("--value-max", type=int, default=10)
    sweep.add_argument("--m-span", type=int, default=200)
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep.add_argument("--checkpoint", metavar="PATH",
                       help=f"checkpoint file; relative paths honor ${CHECKPOINT_DIR_ENV}")
    sweep.add_argument("--resume", action="store_true")
    sweep.add_argument("--stop-after", type=int, help="stop after this many work units")
    sweep.add_argument("--long-run", action="store_true",
                       help=f"allow --n-max beyond {DESK_N_MAX}")
    sweep.add_argument("--format", choices=("text", "json"), default="text")

    reproduce = sub.add_parser("reproduce", help="recompute a named expected result")
    reproduce.add_argument(
        "name", choices=("remark25", "stanton", "corollary10", "lemma6", "crosscheck")
    )
    reproduce.add_argument("--n-max", type=int, default=20,
                           help="bound for corollary10 and crosscheck")
    reproduce.add_argument("--m-max", type=int, default=None,
                           help="m bound for stanton (default 50), M bound for lemma6 (default 3)")
    reproduce.add_argument("--k-max", type=int, default=6, help="K bound for lemma6")
    reproduce.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"check": cmd_check, "sweep": cmd_sweep, "reproduce": cmd_reproduce}[
        args.command
    ]
    try:
        return handler(args, list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointMismatch as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
