"""Named reproductions and deterministic, resumable parameter sweeps.

The sweeps are evidence generators: they examine large families of
quotient and product specs, decide polynomiality by the cheap divisor
profile, expand only the polynomial cases, and record any positivity
violation in full.  Reports are deterministic for a fixed parameter set
and seed regardless of worker count, which makes them comparable across
machines and resumable from checkpoints.

Randomized sweeps draw every sample as a pure function of (seed, index)
through SHA-256, so sample i is the same on every platform, in every
process, on every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from operator import add

from .analysis import PropertyRecord, is_reciprocal, nonnegativity, property_record
from .criteria import (
    Lemma6Variant,
    corollary10_expression,
    lemma6_degree,
    lemma6_expression,
    lemma6_order_bound,
    thm8_is_polynomial,
    thm9_is_polynomial,
)
from .qexpr import (
    FactoredQExpression,
    FakeGaussianSpec,
    QuotientSpec,
    column_negative_exponents,
    expand,
    fake_gaussian_expansions,
    from_factorials,
    from_fake_gaussian,
    from_quotient_spec,
    is_polynomial,
    quotient_degree,
    quotient_expansions,
    quotient_lower_halves,
)
from .qpoly import IntPolynomial, NotDivisible

CHECKPOINT_FORMAT = "qpositivity-checkpoint/3"
REPORT_SCHEMA = "qpositivity-report/1"

VERDICT_NOT_POLYNOMIAL = "not-polynomial"
VERDICT_NONNEGATIVE = "polynomial-nonnegative"
VERDICT_VIOLATION = "VIOLATION"

#: The 17-term exponent sequence whose m=1 product is a polynomial with a
#: negative coefficient (at q^7), while m >= 2 appears uniformly positive.
STANTON_SEQUENCE = (1, 3, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1)

#: Recognized symmetric sequence shapes for randomized product sweeps.
FAKE_GAUSSIAN_TEMPLATES = ("a", "aa", "aba", "abcba")

#: Samples per work unit of the randomized product sweep.
_FAKE_GAUSSIAN_CHUNK = 200


class CheckpointMismatch(RuntimeError):
    """Raised when a checkpoint cannot be resumed against the given sweep."""


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of verifying a single spec: what was decided, never how
    long it took, so equal inputs give equal results.

    verdict is VIOLATION when the expression is a polynomial with some
    negative coefficient, or when two routes disagree on it; note then
    says which.  properties is attached on demand and always on a
    violation with an expansion.  expansion is kept only when explicitly
    requested.
    """

    spec: "QuotientSpec | FakeGaussianSpec"
    normalized_spec: "QuotientSpec | FakeGaussianSpec"
    is_polynomial: bool
    verdict: str
    properties: "PropertyRecord | None" = None
    note: "str | None" = None
    expansion: "IntPolynomial | None" = None

    def to_dict(self) -> dict:
        return {
            "spec": _spec_to_dict(self.spec),
            "normalized_spec": _spec_to_dict(self.normalized_spec),
            "is_polynomial": self.is_polynomial,
            "verdict": self.verdict,
            "properties": _properties_to_dict(self.properties),
            "note": self.note,
            "expansion": list(self.expansion.coeffs) if self.expansion else None,
        }


@dataclasses.dataclass
class SweepReport:
    """Aggregated outcome of one sweep or named reproduction.

    Deterministic for fixed parameters and seed regardless of worker
    count; wall_time is informational and excluded from the canonical
    serialized form.  The canonical switch stays while perfbench's
    workloads still call to_dict(canonical=True).
    """

    sweep_id: str
    params: dict
    counts: dict
    violations: list
    cursor: int
    wall_time: float = 0.0

    def to_dict(self, canonical: bool = False) -> dict:
        d = {
            "schema": REPORT_SCHEMA,
            "sweep": self.sweep_id,
            "params": dict(self.params),
            "seed": self.params.get("seed"),
            "counts": dict(self.counts),
            "violations": [v.to_dict() for v in self.violations],
            "cursor": self.cursor,
        }
        if not canonical:
            d["wall_time"] = self.wall_time
        return d


def canonical_json(payload: dict) -> str:
    """Stable, whitespace-free JSON used for determinism comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _spec_to_dict(spec) -> dict:
    if isinstance(spec, QuotientSpec):
        return {"type": "quotient", "n": spec.n, "k": spec.k, "l": spec.l}
    if isinstance(spec, FakeGaussianSpec):
        return {
            "type": "fake-gaussian",
            "m": spec.m,
            "a": list(spec.a),
            "symmetric": spec.is_symmetric,
        }
    raise TypeError(f"unknown spec {spec!r}")


def _properties_to_dict(props: "PropertyRecord | None") -> "dict | None":
    if props is None:
        return None
    d = dataclasses.asdict(props)
    if d["first_negative"] is not None:
        d["first_negative"] = list(d["first_negative"])
    return d


def normalize_quotient_spec(spec: QuotientSpec) -> QuotientSpec:
    """Reduce a spec to the range 0 <= l <= k <= n/2.

    Both parameters are reflected into the lower half (the defining
    factorials are symmetric under k -> n-k and l -> n-l) and then
    ordered.  The ordering swap replaces the expression by its
    reciprocal; for l < k the original direction is never a polynomial,
    so verdicts are reported for the normalized triple.
    """
    n = spec.n
    k = min(spec.k, n - spec.k)
    l = min(spec.l, n - spec.l)
    if l > k:
        k, l = l, k
    return QuotientSpec(n, k, l)


def _polynomial_verdict(
    spec, normalized_spec, p, properties: bool, keep_expansion: bool
) -> CheckResult:
    """The verdict on a case the divisor profile calls a polynomial.

    p is its expansion, or NotDivisible when the expander refused it: the
    two polynomiality routes disagree, which is reported as a violation.
    The property record is attached on request and always on a violation.
    """
    if p is NotDivisible:
        return CheckResult(spec, normalized_spec, True, VERDICT_VIOLATION,
                           note="divisor profile says polynomial, expansion refused")
    nonneg, _ = nonnegativity(p)
    return CheckResult(
        spec, normalized_spec, True, VERDICT_NONNEGATIVE if nonneg else VERDICT_VIOLATION,
        properties=property_record(p) if properties or not nonneg else None,
        expansion=p if keep_expansion else None,
    )


def _verify_expression(
    spec, normalized_spec, expr: FactoredQExpression, properties: bool, keep_expansion: bool,
    p=None,
) -> CheckResult:
    """Not a polynomial by the divisor profile, or else _polynomial_verdict
    on expr's expansion p, which expand gives when p is None."""
    if is_polynomial(expr):
        if p is None:
            p = expand(expr)
        return _polynomial_verdict(spec, normalized_spec, p, properties, keep_expansion)
    return CheckResult(spec, normalized_spec, False, VERDICT_NOT_POLYNOMIAL)


def verify_quotient(
    spec: QuotientSpec, *, properties: bool = False, keep_expansion: bool = False
) -> CheckResult:
    """Check one factorial quotient for polynomiality and nonnegativity.

    The spec is normalized first; the cheap divisor-profile test decides
    polynomiality, and only polynomial cases are expanded.

    >>> verify_quotient(QuotientSpec(11, 3, 2), keep_expansion=True).expansion
    IntPolynomial(1 + q^3 + q^6)
    >>> verify_quotient(QuotientSpec(12, 2, 1)).verdict
    'not-polynomial'
    """
    if not (0 <= spec.k <= spec.n and 0 <= spec.l <= spec.n):
        raise ValueError(f"spec {spec} outside 0 <= k, l <= n")
    normalized = normalize_quotient_spec(spec)
    expr = from_quotient_spec(normalized)
    return _verify_expression(spec, normalized, expr, properties, keep_expansion)


def verify_fake_gaussian(
    spec: FakeGaussianSpec, *, properties: bool = False, keep_expansion: bool = False
) -> CheckResult:
    """Check one fake Gaussian product; no normalization applies.

    >>> r = verify_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE))
    >>> r.verdict, r.properties.first_negative
    ('VIOLATION', (7, -1))
    """
    expr = from_fake_gaussian(spec)
    return _verify_expression(spec, spec, expr, properties, keep_expansion)


# ---------------------------------------------------------------------------
# sweep machinery


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _load_checkpoint(path: str):
    """The payload at path, and its fields as canonical JSON if it is an
    object.  Both are read in one guard: json.load parses a nesting a level
    or so deeper than canonical_json, called further down the stack, can
    write back."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return data, _canonical_fields(data) if isinstance(data, dict) else {}
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointMismatch(f"checkpoint {path} is unreadable: {exc}") from exc


def _canonical_fields(payload: dict) -> dict:
    return {key: canonical_json(value) for key, value in payload.items()}


def _resume_state(path: "str | None", resume: bool, sweep_id: str, params: dict, units, unit_fn,
                  recount):
    """Cursor, counts, and violations restored from a checkpoint, or fresh.

    The one rule: the file must equal, key by key as canonical JSON, the
    payload _checkpoint_payload writes for the cursor, counts and
    violations this build derives.  Format, sweep and params are compared
    before anything runs, then the cursor must be 0 or end a unit.  The
    counts sum recount(task), a unit's cheap (examined, polynomial), over
    the passed units.  The file stores each violation as its unit's cursor
    only; the passed units those int cursors name run again, and give the
    records, and a passed unit that no cursor names is trusted as clean.
    """
    counts = {"examined": 0, "polynomial": 0, "violations": 0}
    if not (resume and os.path.exists(path)):
        return 0, counts, []
    data, stored = _load_checkpoint(path)
    expected = _canonical_fields(_checkpoint_payload(sweep_id, params, 0, counts, []))
    header = [k for k in ("format", "sweep", "params") if stored.get(k) != expected[k]]
    if header:
        raise CheckpointMismatch(
            f"checkpoint {path} differs in {', '.join(header)} from one written in format "
            f"{CHECKPOINT_FORMAT!r} by sweep {sweep_id!r} with parameters {params!r}"
        )
    cursor = data.get("cursor")
    if not (type(cursor) is int and (cursor == 0 or cursor in [c for c, _ in units])):
        raise CheckpointMismatch(f"checkpoint {path} has a cursor that ends no unit")
    listed = data.get("violations")
    named = {c for c in listed if type(c) is int} if isinstance(listed, list) else set()
    violations = [
        (c, v) for c, task in units if c <= cursor and c in named for v in unit_fn(task)[2]
    ]
    passed = zip((0, 0), *(recount(task) for c, task in units if c <= cursor))
    examined, polynomial = map(sum, passed)
    counts = {"examined": examined, "polynomial": polynomial, "violations": len(violations)}
    derived = _canonical_fields(_checkpoint_payload(sweep_id, params, cursor, counts, violations))
    keys = sorted(k for k in stored.keys() | derived.keys() if stored.get(k) != derived.get(k))
    if keys:
        verb = "report" if "violations" in keys else "derive"
        raise CheckpointMismatch(
            f"checkpoint {path} holds {', '.join(keys)} that this {sweep_id!r} sweep does not "
            f"{verb} for the units before its cursor"
        )
    return cursor, counts, violations


def _checkpoint_payload(sweep_id, params, cursor, counts, violations) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "sweep": sweep_id,
        "params": params,
        "cursor": cursor,
        "counts": dict(counts),
        "violations": [c for c, _ in violations],
    }


def _execute_units(units, fn, workers: int):
    """Run fn over units, yielding results in submission order."""
    workers = min(workers, len(units))
    if workers <= 1:
        for unit in units:
            yield fn(unit)
        return
    import multiprocessing  # here, not at the top: only a pooled sweep pays its import
    with multiprocessing.Pool(processes=workers) as pool:
        yield from pool.imap(fn, units, chunksize=1)


def _run_units(
    sweep_id: str,
    params: dict,
    units,
    unit_fn,
    workers: int = 1,
    checkpoint: "str | None" = None,
    resume: bool = False,
    stop_after: "int | None" = None,
    recount=None,
) -> SweepReport:
    """The one sweep loop behind every sweep and table reproduction.

    units is the sweep's whole ordered list of (cursor, task) pairs, with
    cursors increasing; a unit's cursor is the sweep's cursor once it and
    every unit before it have run.  State is restored from the checkpoint
    (or fresh), the units past the cursor remain, and at most stop_after
    of them run.  Each unit_fn(task) returns (examined, polynomial,
    violations); the results are merged in unit order, whatever the worker
    count, and the checkpoint, which stores each violation as its unit's
    cursor, is rewritten after every merged unit.  resume needs a
    checkpoint, and a recount(task) that gives a unit's (examined,
    polynomial) without running it; a missing file starts fresh.  A
    checkpoint resumes only if it equals the payload this build derives at
    its cursor: the units its violation cursors name run again and give the
    reported records, and the other passed units are trusted as clean (see
    _resume_state).
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if stop_after is not None and stop_after < 0:
        raise ValueError("stop_after must be nonnegative")
    if resume and not checkpoint:
        raise ValueError("resume requires a checkpoint")
    if checkpoint is not None:
        if not os.path.basename(checkpoint) or os.path.isdir(checkpoint):
            raise ValueError(f"checkpoint path {checkpoint!r} names no file")
        # a path that cannot be written fails here, before any unit runs
        try:
            os.makedirs(os.path.dirname(checkpoint) or os.curdir, exist_ok=True)
            open(checkpoint + ".tmp", "w").close()
            os.remove(checkpoint + ".tmp")
        except OSError as exc:
            raise OSError(f"cannot write checkpoint {checkpoint!r}: {exc}") from exc
    cursor, counts, violations = _resume_state(
        checkpoint, resume, sweep_id, params, units, unit_fn, recount
    )
    todo = [(c, task) for c, task in units if c > cursor]
    if stop_after is not None:
        todo = todo[:stop_after]

    started = time.perf_counter()
    results = _execute_units([task for _, task in todo], unit_fn, workers)
    # results first: zip then exhausts, and so closes, the pool's generator
    for (examined, polynomial, unit_violations), (cursor, _) in zip(results, todo):
        counts["examined"] += examined
        counts["polynomial"] += polynomial
        counts["violations"] += len(unit_violations)
        violations.extend((cursor, v) for v in unit_violations)
        if checkpoint:
            _write_checkpoint(
                checkpoint,
                _checkpoint_payload(sweep_id, params, cursor, counts, violations),
            )
    return SweepReport(
        sweep_id=sweep_id,
        params=params,
        counts=counts,
        violations=[v for _, v in violations],
        cursor=cursor,
        wall_time=time.perf_counter() - started,
    )


def _polynomial_ls(n: int) -> "dict[int, frozenset[int]]":
    # For fixed n, floor(x/d) + floor((n-x)/d) equals floor(n/d) exactly when
    # x mod d <= n mod d, and is one less otherwise.  The quotient (n,k,l) is
    # a polynomial iff every d where k attains the maximum also has l
    # attaining it, i.e. table[k] <= table[l] as sets.
    return {
        x: frozenset(d for d in range(2, n + 1) if x % d <= n % d)
        for x in range(0, n // 2 + 1)
    }


def _conjecture1_pairs(n: int):
    """(examined, polynomial, rows) for one n, by the divisor table alone:
    rows holds (k, ls) for each k with polynomial pairs, ls its ascending l."""
    table = _polynomial_ls(n)
    half = n // 2
    rows = [(k, [l for l in range(1, k) if table[k] <= table[l]]) for k in range(2, half + 1)]
    rows = [(k, ls) for k, ls in rows if ls]
    return half * (half - 1) // 2, sum(len(ls) for _, ls in rows), rows


def _conjecture1_unit(n: int):
    """All triples 1 <= l < k <= n/2 for one n; the per-n work unit.

    Lower halves come in the report's order, ascending k, then l.  Each is
    checked as it stands, for nonnegativity, for f(1) = C(n,k)/C(n,l), and
    by the cyclotomic profile stepped down its column, since f(1) does not
    certify polynomiality.  Only a failing triple is mirrored (or refused)
    and judged by _polynomial_verdict, as its full expansion would be.
    """
    examined, polynomial, rows = _conjecture1_pairs(n)
    column_end = {l: k for k, ls in rows for l in ls}
    negative = {l: list(column_negative_exponents(n, l, k)) for l, k in column_end.items()}
    violations: list[CheckResult] = []
    for k, l, lower in quotient_lower_halves(n, rows):
        degree = quotient_degree(n, k, l)
        # an even degree's middle coefficient is not mirrored
        mirrored_sum = 2 * lower.digit_sum() - (lower.top_digit() if degree % 2 == 0 else 0)
        if negative[l][k - l - 1] or mirrored_sum * math.comb(n, l) != math.comb(n, k):
            p = NotDivisible
        elif not nonnegativity(lower)[0]:
            coeffs = lower.coeffs
            p = IntPolynomial(coeffs + coeffs[: degree + 1 - len(coeffs)][::-1])
        else:
            continue
        spec = QuotientSpec(n, k, l)
        violations.append(
            _polynomial_verdict(spec, spec, p, properties=False, keep_expansion=False)
        )
    return examined, polynomial, violations


def sweep_conjecture1(
    n_max: int,
    workers: int = 1,
    checkpoint: "str | None" = None,
    resume: bool = False,
    stop_after: "int | None" = None,
) -> SweepReport:
    """Exhaustive positivity sweep over 1 <= l < k <= n/2 for n <= n_max.

    Work is split by n, processed in increasing order (scheduling may be
    parallel; merging is ordered), and checkpointed after every completed
    n.  stop_after limits how many n values this call completes, which
    models interruption while leaving a resumable checkpoint.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return _run_units(
        "conjecture1", {"n_max": n_max}, [(n, n) for n in range(2, n_max + 1)],
        _conjecture1_unit, workers, checkpoint, resume, stop_after,
        recount=lambda n: _conjecture1_pairs(n)[:2],
    )


def _draw(seed: int, index: int, field: str, lo: int, hi: int) -> int:
    """Deterministic uniform draw from [lo, hi] keyed by (seed, index, field)."""
    digest = hashlib.sha256(f"{seed}:{index}:{field}".encode()).digest()
    return lo + int.from_bytes(digest[:8], "big") % (hi - lo + 1)


def _sample_spec(template: str, seed: int, index: int, value_max: int, m_span: int) -> FakeGaussianSpec:
    s = _draw(seed, index, "s", 0, value_max)
    a = _draw(seed, index, "a", 0, value_max)
    b = _draw(seed, index, "b", 0, value_max)
    c = _draw(seed, index, "c", 0, value_max)
    core = {
        "a": (a,),
        "aa": (a, a),
        "aba": (a, b, a),
        "abcba": (a, b, c, b, a),
    }[template]
    m = _draw(seed, index, "m", max(1, s), s + m_span)
    return FakeGaussianSpec(m, (0,) * s + core + (0,) * s)


def _fake_gaussian_unit(task):
    template, seed, value_max, m_span, start, count = task
    examined = 0
    polynomial = 0
    violations: list[CheckResult] = []
    for index in range(start, start + count):
        spec = _sample_spec(template, seed, index, value_max, m_span)
        result = verify_fake_gaussian(spec)
        examined += 1
        if result.is_polynomial:
            polynomial += 1
        if result.verdict == VERDICT_VIOLATION:
            violations.append(dataclasses.replace(result, note=f"sample {index}"))
    return examined, polynomial, violations


def _fake_gaussian_counts(task):
    """(examined, polynomial) of one unit, by the cyclotomic profile alone."""
    template, seed, value_max, m_span, start, count = task
    exprs = (from_fake_gaussian(_sample_spec(template, seed, i, value_max, m_span))
             for i in range(start, start + count))
    return count, sum(map(is_polynomial, exprs))


def sweep_fake_gaussian(
    template: str,
    seed: int,
    samples: int,
    value_max: int = 10,
    m_span: int = 200,
    workers: int = 1,
    checkpoint: "str | None" = None,
    resume: bool = False,
    stop_after: "int | None" = None,
) -> SweepReport:
    """Randomized positivity sweep over symmetric product specs.

    Each sample index maps to a spec through the counter-based RNG, so the
    report depends only on (template, seed, samples, value_max, m_span).
    Work is chunked by index ranges of _FAKE_GAUSSIAN_CHUNK samples; the
    cursor is the completed sample prefix.
    """
    if template not in FAKE_GAUSSIAN_TEMPLATES:
        raise ValueError(f"template must be one of {FAKE_GAUSSIAN_TEMPLATES}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if value_max < 0:
        raise ValueError("value_max must be nonnegative")
    if m_span < 1:
        # a zero span leaves no valid m when the zero padding s is 0
        raise ValueError("m_span must be positive")
    params = {
        "template": template,
        "samples": samples,
        "value_max": value_max,
        "m_span": m_span,
        "seed": seed,
    }

    chunk = _FAKE_GAUSSIAN_CHUNK
    units = [
        (min(start + chunk, samples),
         (template, seed, value_max, m_span, start, min(chunk, samples - start)))
        for start in range(0, samples, chunk)
    ]
    return _run_units(
        "fake-gaussian", params, units, _fake_gaussian_unit,
        workers, checkpoint, resume, stop_after, recount=_fake_gaussian_counts,
    )


def crosscheck_theorems(n_max: int) -> SweepReport:
    """Criterion-vs-expansion agreement for the two closed-form theorems.

    Examines the full admissible k range at both l=1 and l=2 for every
    n <= n_max.  A disagreement, or a polynomial expansion with a negative
    coefficient, is recorded as a violation: both would signal an
    implementation bug, since the criteria are proved.
    """
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    return _run_units(
        "crosscheck-theorems", {"n_max": n_max}, [(n, n) for n in range(2, n_max + 1)],
        _crosscheck_unit,
    )


def _crosscheck_unit(n: int):
    """Both theorems' admissible k ranges for one n; the per-n work unit.

    The brute-force side reads each expansion off one exact Gaussian row
    (quotient_expansions), stepped up k = 0 .. n//2, and l = 2 stepped on
    from l = 1 when that is a polynomial, by exact steps whose failed
    division is the NotDivisible verdict; (n, k, l) and (n, n-k, l) are one
    expression, looked up by min(k, n-k).
    """
    examined = 0
    polynomial = 0
    violations: list[CheckResult] = []
    expansions = {(k, l): p for k, l, p in quotient_expansions(n, (1, 2))}
    for l, criterion, k_range in (
        (1, thm8_is_polynomial, range(1, n)),
        (2, thm9_is_polynomial, range(2, n - 1)),
    ):
        for k in k_range:
            examined += 1
            p = expansions[min(k, n - k), l]
            brute = p is not NotDivisible
            polynomial += brute
            says = criterion(n, k)
            note = None
            if says != brute:
                note = f"criterion says {says}, expansion says {brute}"
            elif brute and not nonnegativity(p)[0]:
                note = "polynomial expansion has a negative coefficient"
            if note:
                spec = QuotientSpec(n, k, l)
                violations.append(CheckResult(spec, spec, brute, VERDICT_VIOLATION, note=note))
    return examined, polynomial, violations


# ---------------------------------------------------------------------------
# named reproductions

#: Factorial tops (numerator, denominator) of the four displayed quotients.
_REMARK25_FACTORIALS = (
    ((12, 2, 2), (11, 4, 1)),
    ((10, 4, 3, 1), (9, 5, 2, 2)),
    ((12, 2, 2, 2), (11, 4, 1, 1, 1)),
    ((12, 2, 2, 2, 2, 2), (11, 4, 1, 1, 1, 1, 1, 1, 1)),
)

#: Expected coefficient vectors for the four quotients, lowest degree first.
REMARK25_EXPECTED = (
    (1, 0, -1, 1, 1, -1, 0, 1),
    (1, 0, 1, -1, 1, 0, 1),
    (1, 1, -1, 0, 2, 0, -1, 1, 1),
    (1, 3, 2, -1, 1, 4, 1, -1, 2, 3, 1),
)


def reproduce_remark25() -> "list[tuple[FactoredQExpression, IntPolynomial]]":
    """Expand the four displayed factorial quotients.

    These are polynomials that are not nonnegative: small witnesses that
    the factorial-quotient generalization loses positivity.  Expected
    values live in REMARK25_EXPECTED; this function only computes.
    """
    pairs = []
    for numerator, denominator in _REMARK25_FACTORIALS:
        expr = from_factorials(numerator, denominator)
        p = expand(expr)
        assert p is not NotDivisible, str(expr)
        pairs.append((expr, p))
    return pairs


def reproduce_stanton(m_max: int = 50) -> "list[CheckResult]":
    """Verify the STANTON_SEQUENCE product for every m in 1..m_max.

    m=1 is the known positivity violation (coefficient -1 at q^7); each
    m >= 2 in the tested range expands to a nonnegative polynomial.
    Nothing is asserted beyond the tested bound.  The expansions come off
    one chain in m (fake_gaussian_expansions), each judged as
    verify_fake_gaussian judges it: the divisor profile first, then the
    expansion's verdict.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    results = []
    for m, p in fake_gaussian_expansions(STANTON_SEQUENCE, m_max):
        spec = FakeGaussianSpec(m, STANTON_SEQUENCE)
        results.append(_verify_expression(spec, spec, from_fake_gaussian(spec), False, False, p))
    return results


def remark25_table() -> "tuple[list[dict], bool]":
    """reproduce_remark25 against REMARK25_EXPECTED: one row per quotient,
    and whether every row matched."""
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


def stanton_table(m_max: int) -> "tuple[list[dict], bool]":
    """reproduce_stanton(m_max) against the expected verdicts: the violation
    -1 at q^7 for m=1, nonnegative for every m >= 2.  One row per m, and
    whether every row matched."""
    rows = []
    ok = True
    for m, result in enumerate(reproduce_stanton(m_max), start=1):
        locus = result.properties.first_negative if result.properties else None
        if m == 1:
            good = result.verdict == VERDICT_VIOLATION and locus == (7, -1)
        else:
            good = result.verdict == VERDICT_NONNEGATIVE
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


def reproduce_lemma6(k_max: int, m_max: int) -> "tuple[list[dict], bool]":
    """Expand both Lemma 6 variants on the grid 2 <= K <= k_max, 0 <= M <= m_max.

    Each expansion must be a nonnegative palindrome, and variant A must
    have the closed-form degree.  Variant B needs K >= 3; its cell is None
    below that.  Returns one row per (K, M) and whether every cell passed.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    rows = []
    ok = True
    for K in range(2, k_max + 1):
        for M in range(0, m_max + 1):
            degree = lemma6_degree(K, M)
            row = {"K": K, "M": M, "degree": degree, "order_bound": lemma6_order_bound(K, M)}
            for variant in (Lemma6Variant.VariantA, Lemma6Variant.VariantB):
                if variant is Lemma6Variant.VariantB and K < 3:
                    row["B"] = None
                    continue
                p = expand(lemma6_expression(K, M, variant))
                good = p is not NotDivisible and nonnegativity(p)[0] and is_reciprocal(p)
                if variant is Lemma6Variant.VariantA:
                    good = good and p.degree == degree
                row["A" if variant is Lemma6Variant.VariantA else "B"] = good
                ok = ok and good
            rows.append(row)
    return rows, ok


def reproduce_corollary10(n_max: int) -> SweepReport:
    """Expand the even/odd quotient for n <= n_max and cross-check the route.

    The direct expansion must be a nonnegative polynomial, and must equal
    the product of the (n', k', l')=(3n+2, n+1, 2) quotient evaluated in
    q squared with the factors (1+q^j) for j = 3..2n+1.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return _run_units(
        "corollary10", {"n_max": n_max}, [(n, n) for n in range(1, n_max + 1)],
        _corollary10_unit,
    )


def _corollary10_unit(n: int):
    """One row of the corollary: direct expansion against the companion route."""
    direct = expand(corollary10_expression(n))
    polynomial = direct is not NotDivisible
    route_spec = QuotientSpec(3 * n + 2, n + 1, 2)
    note = None
    if not polynomial:
        note = "expansion refused"
    else:
        base = expand(from_quotient_spec(route_spec))
        if base is NotDivisible:
            note = "companion quotient is not a polynomial"
        else:
            # base in q^2, then times (1+q^j) in place: pad by j zeros,
            # then c_i += c_(i-j)
            via = [0] * (2 * len(base.coeffs) - 1)
            via[::2] = base.coeffs
            for j in range(3, 2 * n + 2):
                via += [0] * j
                via[j:] = map(add, via[j:], via)
            if IntPolynomial(via) != direct:
                note = "route comparison mismatch"
            elif not nonnegativity(direct)[0]:
                note = "negative coefficient"
    violations = []
    if note:
        violations.append(
            CheckResult(route_spec, route_spec, polynomial, VERDICT_VIOLATION,
                        note=f"row n={n}: {note}")
        )
    return 1, int(polynomial), violations
