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
import multiprocessing
import os
import time

from .analysis import PropertyRecord, nonnegativity, property_record
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
    expand,
    expand_quotient_row,
    from_factorials,
    from_fake_gaussian,
    from_quotient_spec,
    is_polynomial,
)
from .qpoly import IntPolynomial, NotDivisible, poly_mul

CHECKPOINT_FORMAT = "qpositivity-checkpoint/1"
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


@dataclasses.dataclass
class CheckResult:
    """Outcome of verifying a single spec.

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
    elapsed: float = 0.0
    note: "str | None" = None
    expansion: "IntPolynomial | None" = None

    def to_dict(self, canonical: bool = False) -> dict:
        d = {
            "spec": _spec_to_dict(self.spec),
            "normalized_spec": _spec_to_dict(self.normalized_spec),
            "is_polynomial": self.is_polynomial,
            "verdict": self.verdict,
            "properties": _properties_to_dict(self.properties),
            "note": self.note,
            "expansion": list(self.expansion.coeffs) if self.expansion else None,
        }
        if not canonical:
            d["elapsed"] = self.elapsed
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CheckResult":
        return cls(
            spec=_spec_from_dict(d["spec"]),
            normalized_spec=_spec_from_dict(d["normalized_spec"]),
            is_polynomial=d["is_polynomial"],
            verdict=d["verdict"],
            properties=_properties_from_dict(d["properties"]),
            elapsed=d.get("elapsed", 0.0),
            note=d.get("note"),
            expansion=(
                IntPolynomial([_restored_int(c) for c in d["expansion"]])
                if d.get("expansion") else None
            ),
        )


@dataclasses.dataclass
class SweepReport:
    """Aggregated outcome of one sweep or named reproduction.

    Deterministic for fixed parameters and seed regardless of worker
    count; wall_time is informational and excluded from the canonical
    serialized form.
    """

    sweep_id: str
    params: dict
    seed: "int | None"
    counts: dict
    violations: list
    cursor: int
    wall_time: float = 0.0

    def to_dict(self, canonical: bool = False) -> dict:
        d = {
            "schema": REPORT_SCHEMA,
            "sweep": self.sweep_id,
            "params": dict(self.params),
            "seed": self.seed,
            "counts": dict(self.counts),
            "violations": [v.to_dict(canonical=True) for v in self.violations],
            "cursor": self.cursor,
        }
        if not canonical:
            d["wall_time"] = self.wall_time
        return d


def canonical_json(payload: dict) -> str:
    """Stable, whitespace-free JSON used for determinism comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _spec_to_dict(spec) -> "dict | None":
    if spec is None:
        return None
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


def _restored_int(x) -> int:
    """x, if it is an int; a restored checkpoint carries no other number."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _spec_from_dict(d: "dict | None"):
    if d is None:
        return None
    if d["type"] == "quotient":
        return QuotientSpec(*(_restored_int(d[key]) for key in "nkl"))
    if d["type"] == "fake-gaussian":
        return FakeGaussianSpec(_restored_int(d["m"]), [_restored_int(x) for x in d["a"]])
    raise ValueError(f"unknown spec type {d['type']!r}")


def _properties_to_dict(props: "PropertyRecord | None") -> "dict | None":
    if props is None:
        return None
    d = dataclasses.asdict(props)
    if d["first_negative"] is not None:
        d["first_negative"] = list(d["first_negative"])
    return d


def _properties_from_dict(d: "dict | None") -> "PropertyRecord | None":
    if d is None:
        return None
    d = dict(d)
    if d["first_negative"] is not None:
        exponent, coefficient = d["first_negative"]
        d["first_negative"] = (_restored_int(exponent), _restored_int(coefficient))
    for key in ("order", "degree"):
        d[key] = _restored_int(d[key])
    return PropertyRecord(**d)


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
    spec, normalized_spec, expr: FactoredQExpression, properties: bool, keep_expansion: bool
) -> CheckResult:
    started = time.perf_counter()
    if is_polynomial(expr):
        p = expand(expr)
        result = _polynomial_verdict(spec, normalized_spec, p, properties, keep_expansion)
    else:
        result = CheckResult(spec, normalized_spec, False, VERDICT_NOT_POLYNOMIAL)
    result.elapsed = time.perf_counter() - started
    return result


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
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _load_checkpoint(path: str) -> "dict | None":
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointMismatch(f"checkpoint {path} is unreadable: {exc}") from exc
    return data


def _resume_state(
    path: "str | None", resume: bool, sweep_id: str, params: dict, last_cursor: int
):
    """Cursor, counts, and violations restored from a checkpoint, or fresh.

    A restored cursor must lie in 0..last_cursor, the cursor of the
    sweep's final unit.
    """
    counts = {"examined": 0, "polynomial": 0, "violations": 0}
    if not (path and resume):
        return 0, counts, []
    data = _load_checkpoint(path)
    if data is None:
        return 0, counts, []
    if not isinstance(data, dict):
        raise CheckpointMismatch(f"checkpoint {path} does not hold a JSON object")
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointMismatch(
            f"checkpoint format {data.get('format')!r} is not {CHECKPOINT_FORMAT!r}"
        )
    if data.get("sweep") != sweep_id or data.get("params") != params:
        raise CheckpointMismatch(
            f"checkpoint was written by sweep {data.get('sweep')!r} with parameters "
            f"{data.get('params')!r}; refusing to resume {sweep_id!r} with {params!r}"
        )
    try:
        cursor = data["cursor"]
        restored = dict(data["counts"])
        violations = [CheckResult.from_dict(v) for v in data["violations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatch(f"checkpoint {path} is incomplete or malformed: {exc!r}") from exc
    if not (
        type(cursor) is int
        and 0 <= cursor <= last_cursor
        and restored.keys() == counts.keys()
        and all(type(c) is int and c >= 0 for c in restored.values())
        and restored["violations"] == len(violations)
    ):
        raise CheckpointMismatch(
            f"checkpoint {path} has a cursor outside 0..{last_cursor}, malformed counts, "
            "or a violation count that disagrees with its violations"
        )
    return cursor, restored, violations


def _checkpoint_payload(sweep_id, params, cursor, counts, violations) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "sweep": sweep_id,
        "params": params,
        "cursor": cursor,
        "counts": dict(counts),
        "violations": [v.to_dict(canonical=True) for v in violations],
    }


def _execute_units(units, fn, workers: int):
    """Run fn over units, yielding results in submission order."""
    workers = min(workers, len(units))
    if workers <= 1:
        for unit in units:
            yield fn(unit)
        return
    with multiprocessing.Pool(processes=workers) as pool:
        yield from pool.imap(fn, units, chunksize=1)


def _run_units(
    sweep_id: str,
    params: dict,
    units_from,
    unit_fn,
    last_cursor: int,
    workers: int = 1,
    checkpoint: "str | None" = None,
    resume: bool = False,
    stop_after: "int | None" = None,
) -> SweepReport:
    """The one sweep loop behind every sweep and table reproduction.

    State is restored from the checkpoint (or fresh), units_from(cursor)
    lists the units still to do, and at most stop_after of them run.  Each
    unit_fn(unit) returns (cursor, examined, polynomial, violations); the
    results are merged in unit order, whatever the worker count, and the
    checkpoint is rewritten after every merged unit.  last_cursor is the
    cursor after the final unit; a checkpoint past it is refused.  The
    report's seed is params["seed"], None for a sweep that draws nothing.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if stop_after is not None and stop_after < 0:
        raise ValueError("stop_after must be nonnegative")
    cursor, counts, violations = _resume_state(
        checkpoint, resume, sweep_id, params, last_cursor
    )
    units = units_from(cursor)
    if stop_after is not None:
        units = units[:stop_after]

    started = time.perf_counter()
    for cursor, examined, polynomial, unit_violations in _execute_units(
        units, unit_fn, workers
    ):
        counts["examined"] += examined
        counts["polynomial"] += polynomial
        counts["violations"] += len(unit_violations)
        violations.extend(unit_violations)
        if checkpoint:
            _write_checkpoint(
                checkpoint,
                _checkpoint_payload(sweep_id, params, cursor, counts, violations),
            )
    return SweepReport(
        sweep_id=sweep_id,
        params=params,
        seed=params.get("seed"),
        counts=counts,
        violations=violations,
        cursor=cursor,
        wall_time=time.perf_counter() - started,
    )


def _per_n(first: int, n_max: int):
    """units_from for per-n units: every n from first (or past the cursor) to n_max."""
    return lambda cursor: list(range(max(cursor + 1, first), n_max + 1))


def _polynomial_ls(n: int) -> "dict[int, frozenset[int]]":
    # For fixed n, floor(x/d) + floor((n-x)/d) equals floor(n/d) exactly when
    # x mod d <= n mod d, and is one less otherwise.  The quotient (n,k,l) is
    # a polynomial iff every d where k attains the maximum also has l
    # attaining it, i.e. table[k] <= table[l] as sets.
    return {
        x: frozenset(d for d in range(2, n + 1) if x % d <= n % d)
        for x in range(0, n // 2 + 1)
    }


def _conjecture1_unit(n: int):
    """All triples 1 <= l < k <= n/2 for one n; the per-n work unit.

    Each k expands its polynomial l from one chained series, which walks
    l downward; violations are kept in ascending l within each k.
    """
    examined = 0
    polynomial = 0
    violations: list[CheckResult] = []
    table = _polynomial_ls(n)
    for k in range(2, n // 2 + 1):
        profile_k = table[k]
        ls = [l for l in range(1, k) if profile_k <= table[l]]
        examined += k - 1
        polynomial += len(ls)
        if not ls:
            continue
        exprs = {l: from_quotient_spec(QuotientSpec(n, k, l)) for l in ls}
        row = []
        for l, p in expand_quotient_row(n, k, exprs):
            spec = QuotientSpec(n, k, l)
            # is_polynomial is the second, independent polynomiality route:
            # the f(1) check inside expand_quotient_row does not certify it
            if not is_polynomial(exprs[l]):
                p = NotDivisible
            result = _polynomial_verdict(spec, spec, p, properties=False, keep_expansion=False)
            if result.verdict == VERDICT_VIOLATION:
                row.append(result)
        violations.extend(reversed(row))
    return n, examined, polynomial, violations


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
        "conjecture1", {"n_max": n_max}, _per_n(2, n_max), _conjecture1_unit,
        n_max, workers, checkpoint, resume, stop_after,
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
            result.note = f"sample {index}"
            result.elapsed = 0.0  # stored records must not depend on timing
            violations.append(result)
    return start + count, examined, polynomial, violations


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
    if samples < 0:
        raise ValueError("samples must be nonnegative")
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

    def units_from(cursor):
        chunk = _FAKE_GAUSSIAN_CHUNK
        return [
            (template, seed, value_max, m_span, start, min(chunk, samples - start))
            for start in range(cursor, samples, chunk)
        ]

    return _run_units(
        "fake-gaussian", params, units_from, _fake_gaussian_unit,
        samples, workers, checkpoint, resume, stop_after,
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
        "crosscheck-theorems", {"n_max": n_max}, _per_n(2, n_max), _crosscheck_unit,
        n_max,
    )


def _crosscheck_unit(n: int):
    """Both theorems' admissible k ranges for one n; the per-n work unit."""
    examined = 0
    polynomial = 0
    violations: list[CheckResult] = []
    for l, criterion, k_range in (
        (1, thm8_is_polynomial, range(1, n)),
        (2, thm9_is_polynomial, range(2, n - 1)),
    ):
        for k in k_range:
            examined += 1
            spec = QuotientSpec(n, k, l)
            p = expand(from_quotient_spec(spec))
            brute = p is not NotDivisible
            polynomial += brute
            note = None
            if criterion(n, k) != brute:
                note = f"criterion says {criterion(n, k)}, expansion says {brute}"
            elif brute and not nonnegativity(p)[0]:
                note = "polynomial expansion has a negative coefficient"
            if note:
                violations.append(CheckResult(spec, spec, brute, VERDICT_VIOLATION, note=note))
    return n, examined, polynomial, violations


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
    Nothing is asserted beyond the tested bound.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return [
        verify_fake_gaussian(FakeGaussianSpec(m, STANTON_SEQUENCE))
        for m in range(1, m_max + 1)
    ]


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
                good = p is not NotDivisible and min(p.coeffs) >= 0
                good = good and p.coeffs == p.coeffs[::-1]
                if variant is Lemma6Variant.VariantA:
                    good = good and p.degree == degree
                row["A" if variant is Lemma6Variant.VariantA else "B"] = good
                ok = ok and good
            rows.append(row)
    return rows, ok


def _one_plus_q_power(j: int) -> IntPolynomial:
    return IntPolynomial((1,) + (0,) * (j - 1) + (1,))


def reproduce_corollary10(n_max: int) -> SweepReport:
    """Expand the even/odd quotient for n <= n_max and cross-check the route.

    The direct expansion must be a nonnegative polynomial, and must equal
    the product of the (n', k', l')=(3n+2, n+1, 2) quotient evaluated in
    q squared with the factors (1+q^j) for j = 3..2n+1.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return _run_units(
        "corollary10", {"n_max": n_max}, _per_n(1, n_max), _corollary10_unit,
        n_max,
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
            via = base.substitute_q_power(2)
            for j in range(3, 2 * n + 2):
                via = poly_mul(via, _one_plus_q_power(j))
            if via != direct:
                note = "route comparison mismatch"
            elif not nonnegativity(direct)[0]:
                note = "negative coefficient"
    violations = []
    if note:
        violations.append(
            CheckResult(route_spec, route_spec, polynomial, VERDICT_VIOLATION,
                        note=f"row n={n}: {note}")
        )
    return n, 1, int(polynomial), violations
