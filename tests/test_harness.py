"""Verification entry points, sweeps, checkpoints, and reproductions."""

import dataclasses
import doctest
import hashlib
import json
import multiprocessing
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpositivity.harness
from _reference import div_one_minus_qk_series, mul_one_minus_qm_series, packed
from qpositivity.analysis import nonnegativity, property_record
from qpositivity.harness import (
    CHECKPOINT_FORMAT,
    REMARK25_EXPECTED,
    STANTON_SEQUENCE,
    CheckpointMismatch,
    CheckResult,
    canonical_json,
    crosscheck_theorems,
    normalize_quotient_spec,
    remark25_table,
    reproduce_corollary10,
    reproduce_lemma6,
    reproduce_remark25,
    reproduce_stanton,
    stanton_table,
    sweep_conjecture1,
    sweep_fake_gaussian,
    verify_fake_gaussian,
    verify_quotient,
)
from qpositivity.harness import (
    _conjecture1_unit,
    _polynomial_ls,
    _polynomial_verdict,
    _sample_spec,
)
from qpositivity.qexpr import (
    FactoredQExpression,
    FakeGaussianSpec,
    QuotientSpec,
    column_negative_exponents,
    expand,
    from_factorials,
    from_quotient_spec,
    is_polynomial,
    lower_half_width,
    quotient_degree,
    quotient_lower_halves,
)
from qpositivity.qpoly import IntPolynomial, NotDivisible


def test_doctests():
    failures, _ = doctest.testmod(qpositivity.harness)
    assert failures == 0


# ---------------------------------------------------------------------------
# single-spec verification


def test_verify_quotient_examples():
    r = verify_quotient(QuotientSpec(11, 3, 2), keep_expansion=True)
    assert r.verdict == "polynomial-nonnegative"
    assert r.is_polynomial
    assert r.expansion == IntPolynomial([1, 0, 0, 1, 0, 0, 1])
    assert r.normalized_spec == QuotientSpec(11, 3, 2)

    r = verify_quotient(QuotientSpec(12, 2, 1))
    assert r.verdict == "not-polynomial"
    assert not r.is_polynomial
    assert r.expansion is None

    r = verify_quotient(QuotientSpec(9, 4, 4), keep_expansion=True)
    assert r.verdict == "polynomial-nonnegative"
    assert r.expansion == IntPolynomial([1])


def test_verify_quotient_preconditions():
    with pytest.raises(ValueError):
        verify_quotient(QuotientSpec(5, 6, 1))
    with pytest.raises(ValueError):
        verify_quotient(QuotientSpec(5, 2, -1))


def test_verify_quotient_expansion_kept_only_on_request():
    assert verify_quotient(QuotientSpec(11, 3, 2)).expansion is None


def test_verify_quotient_properties_on_demand():
    plain = verify_quotient(QuotientSpec(11, 3, 2))
    assert plain.properties is None
    rich = verify_quotient(QuotientSpec(11, 3, 2), properties=True)
    assert rich.properties is not None
    assert rich.properties.nonnegative
    assert rich.properties.reciprocal
    assert rich.properties.degree == 6


def test_normalization_reduces_and_preserves_verdict():
    # reflections k -> n-k and l -> n-l leave the factorials untouched
    assert from_quotient_spec(QuotientSpec(11, 8, 2)) == from_quotient_spec(
        QuotientSpec(11, 3, 2)
    )
    assert from_quotient_spec(QuotientSpec(11, 3, 9)) == from_quotient_spec(
        QuotientSpec(11, 3, 2)
    )
    for raw in (QuotientSpec(11, 8, 2), QuotientSpec(11, 2, 3), QuotientSpec(11, 8, 9)):
        r = verify_quotient(raw, keep_expansion=True)
        assert r.normalized_spec == QuotientSpec(11, 3, 2)
        assert r.spec == raw
        assert r.expansion == IntPolynomial([1, 0, 0, 1, 0, 0, 1])


@given(st.integers(1, 40), st.data())
def test_normalization_soundness(n, data):
    k = data.draw(st.integers(0, n))
    l = data.draw(st.integers(0, n))
    raw = QuotientSpec(n, k, l)
    norm = normalize_quotient_spec(raw)
    assert 0 <= norm.l <= norm.k <= n - norm.k
    # the raw expression is either the normalized one or its inverse
    raw_expr = from_quotient_spec(raw)
    norm_expr = from_quotient_spec(norm)
    inverse = FactoredQExpression([(m, -e) for m, e in norm_expr.factors])
    assert raw_expr in (norm_expr, inverse)


def test_verify_fake_gaussian_stanton():
    r = verify_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE))
    assert r.verdict == "VIOLATION"
    assert r.is_polynomial
    assert r.properties is not None
    assert r.properties.first_negative == (7, -1)
    assert verify_fake_gaussian(FakeGaussianSpec(2, STANTON_SEQUENCE)).verdict == (
        "polynomial-nonnegative"
    )


def test_verify_fake_gaussian_single_entry():
    # (0, a, 0) shape reduces to a power of [m+s+1]/[s+1]
    assert verify_fake_gaussian(FakeGaussianSpec(2, (0, 1, 0))).verdict == (
        "polynomial-nonnegative"
    )
    assert verify_fake_gaussian(FakeGaussianSpec(3, (0, 2, 0))).verdict == (
        "not-polynomial"
    )


# ---------------------------------------------------------------------------
# the per-n fast path


def test_polynomial_table_matches_divisor_profile():
    for n in range(2, 61):
        table = _polynomial_ls(n)
        for k in range(2, n // 2 + 1):
            for l in range(1, k):
                fast = table[k] <= table[l]
                slow = is_polynomial(from_quotient_spec(QuotientSpec(n, k, l)))
                assert fast == slow, (n, k, l)


def test_polynomial_table_against_expansion_samples():
    for n in (37, 44, 53):
        table = _polynomial_ls(n)
        for k in range(2, n // 2 + 1):
            for l in range(1, k):
                p = expand(from_quotient_spec(QuotientSpec(n, k, l)))
                assert (table[k] <= table[l]) == (p is not NotDivisible)


def mirror_lower_half(lower, degree):
    """The reciprocal polynomial of the given degree whose lower half is lower."""
    return IntPolynomial(lower + lower[degree - len(lower) :: -1])


def _polynomial_rows(n, table):
    """The (k, ls) rows of n's polynomial pairs under table, ascending."""
    rows = [(k, [l for l in range(1, k) if table[k] <= table[l]]) for k in range(2, n // 2 + 1)]
    return [(k, ls) for k, ls in rows if ls]


def _no_negative_exponents(n, l, k_max):
    return iter([0] * (k_max - l))


def test_f1_check_refuses_when_the_mirrored_sum_misses_f1(monkeypatch):
    # [11]/[2]: f(1) = C(12,2)/C(12,1) = 11/2, but the mirrored half-length
    # series sums to 6
    spec = QuotientSpec(12, 2, 1)
    assert str(from_quotient_spec(spec)) == "[11]/[2]"
    [(k, l, lower)] = quotient_lower_halves(12, [(2, [1])])
    lower = lower.coeffs
    assert (k, l, lower) == (2, 1, [1, 0, 1, 0, 1])
    assert sum(mirror_lower_half(lower, quotient_degree(12, 2, 1)).coeffs) == 6

    # a divisor table and a stepped profile that both wrongly call it a
    # polynomial leave the f(1) check alone to refuse it
    table = _polynomial_ls(12)
    table[1] = table[1] | table[2]
    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", lambda n: table)
    monkeypatch.setattr(qpositivity.harness, "column_negative_exponents", _no_negative_exponents)
    _, _, violations = _conjecture1_unit(12)
    assert [v.spec for v in violations] == [spec]
    assert violations[0].note == "divisor profile says polynomial, expansion refused"


def test_row_chain_of_no_pairs_yields_nothing():
    assert list(quotient_lower_halves(12, [])) == []
    assert list(column_negative_exponents(12, 1, 1)) == []


def test_is_polynomial_guard_catches_what_f1_passes(monkeypatch):
    # [20][21]/([14][15]) is no polynomial, yet its mirrored half-length
    # series sums to f(1) = 2, so the row chain and the f(1) check alone
    # do not refuse it; the profile stepped along the column does
    spec = QuotientSpec(34, 15, 13)
    assert not is_polynomial(from_quotient_spec(spec))
    [(k, l, lower)] = quotient_lower_halves(34, [(15, [13])])
    lower = lower.coeffs
    assert (k, l) == (15, 13)
    assert sum(mirror_lower_half(lower, quotient_degree(34, 15, 13)).coeffs) == 2
    # F_15 has C_14 and C_15 at exponent -1
    assert list(column_negative_exponents(34, 13, 15))[-1] == 2

    # a divisor table that wrongly calls (34, 15, 13) a polynomial
    table = _polynomial_ls(34)
    table[13] = table[13] | table[15]
    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", lambda n: table)
    _, _, violations = _conjecture1_unit(34)
    assert spec in [v.spec for v in violations]
    for v in violations:
        assert v.note == "divisor profile says polynomial, expansion refused"
        assert not is_polynomial(from_quotient_spec(v.spec))


def test_negative_coefficient_in_a_lower_half_is_reported_as_expanded(monkeypatch):
    # (34, 15, 3) is a polynomial of degree 192; move 5 from q^2 to q^1 of
    # its lower half, which keeps f(1) and makes q^1 negative
    spec = QuotientSpec(34, 15, 3)
    degree = quotient_degree(34, 15, 3)
    real = qpositivity.harness.quotient_lower_halves
    forced = []

    def tampered(n, rows):
        for k, l, lower in real(n, rows):
            if (n, k, l) == (34, 15, 3):
                coeffs = lower.coeffs
                coeffs[2] += coeffs[1] + 5
                coeffs[1] = -5
                forced.append(coeffs)
                lower = packed(coeffs, lower.width)
            yield k, l, lower

    [(_, _, untouched)] = real(34, [(15, [3])])
    untouched = untouched.coeffs
    monkeypatch.setattr(qpositivity.harness, "quotient_lower_halves", tampered)
    _, _, violations = _conjecture1_unit(34)
    [lower] = forced
    assert sum(lower) == sum(untouched) and lower[1] == -5
    p = mirror_lower_half(lower, degree)
    expected = _polynomial_verdict(spec, spec, p, properties=False, keep_expansion=False)
    assert [v.to_dict() for v in violations] == [expected.to_dict()]
    assert violations[0].verdict == "VIOLATION"
    assert violations[0].properties == property_record(p)
    assert violations[0].properties.first_negative == (1, -5)
    assert violations[0].properties.degree == degree


def _unit_violations_one_by_one(n, table):
    """The violations of _conjecture1_unit(n) under table, triple by triple
    in (k, l) order, each expanded on its own by expand."""
    expected = []
    for k in range(2, n // 2 + 1):
        for l in range(1, k):
            if table[k] <= table[l]:
                spec = QuotientSpec(n, k, l)
                p = expand(from_quotient_spec(spec))
                r = _polynomial_verdict(spec, spec, p, properties=False, keep_expansion=False)
                if r.verdict == "VIOLATION":
                    expected.append(spec)
    return expected


def test_violations_stay_in_ascending_l_within_each_k(monkeypatch):
    # A divisor table that wrongly calls (34, 15, 2) and (34, 15, 13)
    # polynomials: 2 sits below the row's real polynomial l = 3, 4 and 13
    # above them.  Violations must come back in the order of the
    # per-triple loop, ascending l within each k.
    table = _polynomial_ls(34)
    table[2] = table[2] | table[15]
    table[13] = table[13] | table[15]
    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", lambda n: table)

    expected = _unit_violations_one_by_one(34, table)
    _, _, violations = _conjecture1_unit(34)
    got = [v.spec for v in violations]
    assert got == expected
    assert got == sorted(got, key=lambda s: (s.k, s.l))
    assert [s.l for s in got if s.k == 15] == [2, 13]


def test_violations_come_in_k_order_not_column_order(monkeypatch):
    # A divisor table that wrongly calls (34, 14, 13) and (34, 15, 2)
    # polynomials (and with the latter, a few more l = 2 triples).  The
    # column chains run l = 2 before l = 13, so they find (15, 2) first;
    # the report lists (14, 13) first, as the per-triple loop over k, then
    # l, would.
    table = _polynomial_ls(34)
    table[13] = table[13] | table[14]
    table[2] = table[2] | table[15]
    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", lambda n: table)

    expected = _unit_violations_one_by_one(34, table)
    _, _, violations = _conjecture1_unit(34)
    got = [v.spec for v in violations]
    assert got == expected
    assert [(s.k, s.l) for s in got if (s.k, s.l) in {(14, 13), (15, 2)}] == [(14, 13), (15, 2)]


@pytest.mark.parametrize("ns", [range(2, 61), [150]], ids=["n<=60", "n=150"])
def test_row_chain_matches_expand(ns):
    # every polynomial triple of the sweep, as _conjecture1_unit expands it
    expansions = {}
    for n in ns:
        rows = _polynomial_rows(n, _polynomial_ls(n))
        halves = list(quotient_lower_halves(n, rows))
        # one yield per polynomial pair, in ascending k, then l
        assert [(k, l) for k, l, _ in halves] == [(k, l) for k, ls in rows for l in ls]
        for k, l, lower in halves:
            assert lower.width == lower_half_width(n, rows)
            lower = lower.coeffs
            degree = quotient_degree(n, k, l)
            assert len(lower) == degree // 2 + 1, (n, k, l)
            p = mirror_lower_half(lower, degree)
            assert p == expand(from_quotient_spec(QuotientSpec(n, k, l))), (n, k, l)
            expansions[QuotientSpec(n, k, l)] = p
    if 150 in ns:
        # the widest case of the n <= 150 sweep
        widest = expansions[QuotientSpec(150, 73, 1)]
        assert widest.degree == 5472
        assert max(c.bit_length() for c in widest.coeffs) == 130


def _list_lower_halves(n, rows):
    """quotient_lower_halves on coefficient lists, stepped by the truncated
    series kernels: the reference for the packed chain."""
    row = [1] + [0] * max((quotient_degree(n, k, ls[0]) // 2 for k, ls in rows), default=0)
    k_row = 0
    for k, ls in rows:
        for j in range(k_row + 1, k + 1):
            mul_one_minus_qm_series(row, n - j + 1)
            div_one_minus_qk_series(row, j)
        k_row, series, l_series = k, row[:], 0
        for l in ls:
            del series[quotient_degree(n, k, l) // 2 + 1 :]
            for j in range(l_series, l):
                mul_one_minus_qm_series(series, j + 1)
                div_one_minus_qk_series(series, n - j)
            l_series = l
            yield k, l, series[:]


def test_packed_width_covers_every_lower_half_to_150():
    # every coefficient of every lower half of the n <= 150 sweep, and
    # their sum, stays below 2^(width-2), so the packed digits read back
    pairs = 0
    for n in range(2, 151):
        rows = _polynomial_rows(n, _polynomial_ls(n))
        limit = 1 << (lower_half_width(n, rows) - 2)
        for k, l, lower in _list_lower_halves(n, rows):
            assert max(map(abs, lower)) < limit and abs(sum(lower)) < limit, (n, k, l)
            pairs += 1
    assert pairs == 8261
    assert list(_list_lower_halves(11, [(3, [1, 2])])) == [
        (k, l, lower.coeffs) for k, l, lower in quotient_lower_halves(11, [(3, [1, 2])])
    ]


@pytest.mark.parametrize(
    "ns, ls", [(range(2, 61), None), ([150], (1, 73))], ids=["n<=60", "n=150-l=1,73"]
)
def test_stepped_profile_and_degree_match_the_expression(ns, ls):
    # the two quantities _conjecture1_unit steps down each column, against
    # the expression from_quotient_spec builds, polynomial or not
    seen = 0
    for n in ns:
        for l in ls or range(1, n // 2):
            for k, negative in enumerate(column_negative_exponents(n, l, n // 2), start=l + 1):
                expr = from_quotient_spec(QuotientSpec(n, k, l))
                assert (negative == 0) == is_polynomial(expr), (n, k, l)
                assert quotient_degree(n, k, l) == expr.net_degree, (n, k, l)
                seen += 1
    # every triple 1 <= l < k <= n/2 with n <= 60; k = 2..75 at l = 1, 74..75 at l = 73
    assert seen == (8555 if ls is None else 74 + 2)


def test_route_disagreement_is_a_violation(monkeypatch):
    # an expander that refuses what the divisor profile calls a polynomial
    monkeypatch.setattr(qpositivity.harness, "expand", lambda expr: NotDivisible)
    r = verify_quotient(QuotientSpec(11, 3, 2), properties=True, keep_expansion=True)
    assert r.is_polynomial
    assert r.verdict == "VIOLATION"
    assert r.note == "divisor profile says polynomial, expansion refused"
    assert r.properties is None and r.expansion is None


# ---------------------------------------------------------------------------
# conjecture sweep


def expected_examined(n_max):
    return sum(
        1
        for n in range(2, n_max + 1)
        for k in range(2, n // 2 + 1)
        for l in range(1, k)
    )


def test_sweep_conjecture1_clean_run():
    report = sweep_conjecture1(30)
    assert report.sweep_id == "conjecture1"
    assert report.params == {"n_max": 30}
    assert report.cursor == 30
    assert report.violations == []
    assert report.counts["violations"] == 0
    assert report.counts["examined"] == expected_examined(30)
    assert 0 < report.counts["polynomial"] < report.counts["examined"]
    assert report.wall_time > 0


def test_sweep_conjecture1_precondition():
    with pytest.raises(ValueError):
        sweep_conjecture1(1)


#: sha256 of the canonical sweep_conjecture1(60) report; the report of the
#: scheduled-expansion sweep, so any later expansion route must match it.
SWEEP60_SHA256 = "13190198ba65d24b480deeb0aeb20a43aa8bcbc5f31341e9d788df151db51ea1"


def report_sha256(report) -> str:
    return hashlib.sha256(canonical_json(report.to_dict(canonical=True)).encode()).hexdigest()


#: sha256 of further canonical reports, taken from the hand-rolled loops that
#: each report had before all of them ran through one sweep engine.
REPORT_PINS = {
    "crosscheck40": (
        lambda: crosscheck_theorems(40),
        "30f371d82a80721d487c7842d497b4e9ae4d6629bed9706d96012aaa0f4802c2",
    ),
    "corollary10-8": (
        lambda: reproduce_corollary10(8),
        "868a4e8735e8d5f539a96834ee13f01660072702f7993fb87e16ff7c7df470f8",
    ),
    "fake-gaussian-aba-w1": (
        lambda: sweep_fake_gaussian("aba", 7, 500, workers=1),
        "2dfbdf328bb255bd82121fb1c17431aba8a8c4ca01196e0267d8446f3d065d9c",
    ),
    "fake-gaussian-aba-w2": (
        lambda: sweep_fake_gaussian("aba", 7, 500, workers=2),
        "2dfbdf328bb255bd82121fb1c17431aba8a8c4ca01196e0267d8446f3d065d9c",
    ),
    "fake-gaussian-a": (
        lambda: sweep_fake_gaussian("a", 1, 300, value_max=3, m_span=5),
        "3d7fce71358e5dac9a5c371b96a3bfbfd5ed0bf63aaa6255212ba4a97fb79678",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_pinned(name):
    build, digest = REPORT_PINS[name]
    assert report_sha256(build()) == digest


def test_sweep_conjecture1_report_pinned(tmp_path):
    assert report_sha256(sweep_conjecture1(60, workers=1)) == SWEEP60_SHA256
    assert report_sha256(sweep_conjecture1(60, workers=2)) == SWEEP60_SHA256
    path = str(tmp_path / "c1.ckpt")
    partial = sweep_conjecture1(60, checkpoint=path, stop_after=5)
    assert partial.cursor == 6
    resumed = sweep_conjecture1(60, checkpoint=path, resume=True)
    assert report_sha256(resumed) == SWEEP60_SHA256


def test_sweep_conjecture1_worker_determinism():
    single = sweep_conjecture1(40, workers=1)
    double = sweep_conjecture1(40, workers=2)
    assert canonical_json(single.to_dict(canonical=True)) == canonical_json(
        double.to_dict(canonical=True)
    )


def test_sweep_checkpoint_resume_equals_uninterrupted(tmp_path):
    path = str(tmp_path / "c1.ckpt")
    partial = sweep_conjecture1(24, checkpoint=path, stop_after=5)
    assert partial.cursor == 6
    assert partial.counts["examined"] == expected_examined(6)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format"] == CHECKPOINT_FORMAT
    assert payload["cursor"] == 6

    resumed = sweep_conjecture1(24, checkpoint=path, resume=True)
    plain = sweep_conjecture1(24)
    assert canonical_json(resumed.to_dict(canonical=True)) == canonical_json(
        plain.to_dict(canonical=True)
    )


def test_sweep_checkpoint_repeated_interruption(tmp_path):
    path = str(tmp_path / "c1.ckpt")
    sweep_conjecture1(20, checkpoint=path, stop_after=3)
    sweep_conjecture1(20, checkpoint=path, resume=True, stop_after=4)
    final = sweep_conjecture1(20, checkpoint=path, resume=True)
    plain = sweep_conjecture1(20)
    assert canonical_json(final.to_dict(canonical=True)) == canonical_json(
        plain.to_dict(canonical=True)
    )


def _added(**changes):
    return lambda counts: {**counts, **{f: counts[f] + c for f, c in changes.items()}}


#: the derived counts in another form: each is refused as a wrong value is
_COUNT_FORMS = {
    "examined-float": lambda counts: {**counts, "examined": float(counts["examined"])},
    "zero-violations-false": lambda counts: {**counts, "violations": False},
    "extra-key": lambda counts: {**counts, "elapsed": 0},
}


@pytest.mark.parametrize(
    "n_max, stop_after, edit",
    [(5, 2, _added(examined=1)), (40, 19, _added(examined=1)), (40, 19, _added(polynomial=-1)),
     (40, 19, _added(polynomial=1)), (40, 19, _added(violations=1)),
     *((40, 19, form) for form in _COUNT_FORMS.values())],
    ids=["n5-examined-0-to-1", "n40-examined-up", "n40-polynomial-down", "n40-polynomial-up",
         "n40-violations-up", *_COUNT_FORMS],
)
def test_conjecture1_checkpoint_counts_are_rederived(tmp_path, n_max, stop_after, edit):
    path = tmp_path / "c1.ckpt"
    sweep_conjecture1(n_max, checkpoint=str(path), stop_after=stop_after)
    payload = json.loads(path.read_text())
    assert payload["cursor"] == stop_after + 1
    assert payload["counts"]["examined"] == expected_examined(stop_after + 1)
    assert sweep_conjecture1(n_max, checkpoint=str(path), resume=True, stop_after=0).counts == (
        payload["counts"]
    )
    payload["counts"] = edit(payload["counts"])
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch, match="does not derive"):
        sweep_conjecture1(n_max, checkpoint=str(path), resume=True)


@pytest.mark.parametrize(
    "edit",
    [_added(examined=-3, polynomial=7), _added(examined=1), _added(polynomial=-1),
     _added(violations=1), *_COUNT_FORMS.values()],
    ids=["examined-down-polynomial-up", "examined-up", "polynomial-down", "violations-up",
         *_COUNT_FORMS],
)
def test_fake_gaussian_checkpoint_counts_are_rederived(tmp_path, edit):
    # a fresh aba, seed 0 run of 1000 samples counts 1000/150; resumed from
    # its cursor-400 checkpoint with the first edit it used to count 997/157
    path = tmp_path / "fg.ckpt"
    sweep_fake_gaussian("aba", 0, 1000, checkpoint=str(path), stop_after=2)
    payload = json.loads(path.read_text())
    assert payload["cursor"] == 400 and payload["counts"]["examined"] == 400
    resumed = sweep_fake_gaussian("aba", 0, 1000, checkpoint=str(path), resume=True, stop_after=0)
    assert resumed.counts == payload["counts"]
    payload["counts"] = edit(payload["counts"])
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch, match="does not derive"):
        sweep_fake_gaussian("aba", 0, 1000, checkpoint=str(path), resume=True)


_FG_PARAMS = {"template": "aa", "samples": 10, "value_max": 10, "m_span": 200, "seed": 1}

_VIOLATION = CheckResult(
    QuotientSpec(6, 3, 1), QuotientSpec(6, 3, 1), True, "VIOLATION"
).to_dict()

_PROPERTIES = {"nonnegative": False, "first_negative": [1, -1], "reciprocal": True,
               "unimodal": False, "parity_unimodal": False, "order": 0, "degree": 2}

_STANTON_VIOLATION = verify_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE)).to_dict()

#: (id, field, value): a field of a format-2 violation record that a
#: conjecture1 checkpoint could not have written.  Format 3 stores each
#: violation as its unit's cursor, so a record is refused whatever it holds.
_BAD_VIOLATION_FIELDS = [
    ("verdict-ok", "verdict", "OK"),
    ("verdict-nonnegative", "verdict", "polynomial-nonnegative"),
    ("is-polynomial-str", "is_polynomial", "yes"),
    ("is-polynomial-int", "is_polynomial", 1),
    ("note-dict", "note", {"x": [1]}),
    ("note-int", "note", 7),
    ("nonnegative-str", "properties", {**_PROPERTIES, "nonnegative": "no"}),
    ("reciprocal-int", "properties", {**_PROPERTIES, "reciprocal": 1}),
    ("unimodal-null", "properties", {**_PROPERTIES, "unimodal": None}),
    ("parity-unimodal-str", "properties", {**_PROPERTIES, "parity_unimodal": "false"}),
    ("fake-gaussian-spec", "spec", _STANTON_VIOLATION["spec"]),
    ("fake-gaussian-normalized-spec", "normalized_spec", _STANTON_VIOLATION["spec"]),
]


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        None,
        {"cursor": "6", "counts": {"examined": 0, "polynomial": 0, "violations": 0},
         "violations": []},
        {"counts": {"examined": 0}, "violations": []},
        {"counts": [1], "violations": []},
        {"counts": {"examined": 0, "polynomial": 0, "violations": 0}, "violations": [[6, {}]]},
        {"counts": {"examined": "x", "polynomial": 0, "violations": 0}, "violations": []},
        {"counts": {"examined": 9, "polynomial": -1, "violations": 0}, "violations": []},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 0}, "violations": [6]},
        {"cursor": -40, "counts": {"examined": 10**6, "polynomial": 0, "violations": 0},
         "violations": []},
        {"cursor": 21, "counts": {"examined": 9, "polynomial": 3, "violations": 0},
         "violations": []},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 1},
         "violations": [[6, {**_VIOLATION,
                             "spec": {"type": "quotient", "n": "a", "k": 1, "l": 1}}]]},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 1},
         "violations": [[6, {**_VIOLATION, "expansion": [1, "x"]}]]},
        {"cursor": 4, "counts": {"examined": 9, "polynomial": 3, "violations": 1},
         "violations": [6]},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 1},
         "violations": [_VIOLATION]},
        {"cursor": 1, "counts": {"examined": 0, "polynomial": 0, "violations": 0},
         "violations": []},
        {"sweep": "fake-gaussian", "params": _FG_PARAMS, "cursor": 5,
         "counts": {"examined": 5, "polynomial": 0, "violations": 0}, "violations": []},
        *({"counts": {"examined": 9, "polynomial": 3, "violations": 1},
           "violations": [[6, {**_VIOLATION, field: value}]]}
          for _, field, value in _BAD_VIOLATION_FIELDS),
    ],
    ids=["not-an-object", "null", "bad-cursor", "short-counts", "bad-counts", "bad-violation",
         "count-not-an-int", "negative-count", "uncounted-violation", "negative-cursor",
         "cursor-past-the-end", "spec-field-not-an-int", "expansion-not-ints",
         "violation-past-the-cursor", "violation-without-its-unit",
         "conjecture1-cursor-ends-no-unit", "fake-gaussian-cursor-ends-no-unit",
         *(name for name, _, _ in _BAD_VIOLATION_FIELDS)],
)
def test_sweep_checkpoint_malformed_refused(tmp_path, payload):
    path = tmp_path / "ckpt"
    if isinstance(payload, dict):
        payload = {"format": CHECKPOINT_FORMAT, "sweep": "conjecture1",
                   "params": {"n_max": 20}, "cursor": 6, **payload}
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch):
        if isinstance(payload, dict) and payload["sweep"] == "fake-gaussian":
            sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=str(path), resume=True)
        else:
            sweep_conjecture1(20, checkpoint=str(path), resume=True)


def _conjecture1_wrong_at_34(monkeypatch):
    """sweep_conjecture1(40) under a divisor table that is wrong at n = 34
    only, so that unit alone reports violations (see
    test_violations_come_in_k_order_not_column_order)."""

    def table(n):
        t = _polynomial_ls(n)
        if n == 34:
            t[13] = t[13] | t[14]
            t[2] = t[2] | t[15]
        return t

    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", table)
    return lambda **kw: sweep_conjecture1(40, workers=1, **kw)


def _fake_gaussian_flaky_expand(monkeypatch):
    """An aa sweep of 30 samples in chunks of 5 under an expander that
    refuses some polynomials and returns 1 - q + q^2 for others: samples
    1, 2, 6, 8 and 10 are violations, with and without a property record."""
    real = qpositivity.harness.expand

    def flaky(expr):
        pick = len(str(expr)) % 3
        return NotDivisible if pick == 0 else IntPolynomial([1, -1, 1]) if pick == 1 else real(expr)

    monkeypatch.setattr(qpositivity.harness, "expand", flaky)
    monkeypatch.setattr(qpositivity.harness, "_FAKE_GAUSSIAN_CHUNK", 5)
    return lambda **kw: sweep_fake_gaussian("aa", seed=1, samples=30, m_span=30, workers=1, **kw)


_CONJECTURE1_ARGV = ["sweep", "conjecture1", "--n-max", "40", "--jobs", "1"]
_FAKE_GAUSSIAN_ARGV = ["sweep", "fake-gaussian", "--template", "aa", "--seed", "1",
                       "--samples", "30", "--m-span", "30", "--jobs", "1"]

#: name -> (patch or None, argv, stop_after, cursors): a genuine checkpoint,
#: the file that the sweep of argv writes after stop_after units under the
#: patch, and the violations it stores, each as the cursor of the unit that
#: recorded it.  The patches return the sweep of argv as a library call;
#: unpatched, the conjecture1 checkpoint stops at cursor 11 and the
#: fake-gaussian one is complete at cursor 30, both clean.
_GENUINE_CHECKPOINTS = {
    "conjecture1": (_conjecture1_wrong_at_34, _CONJECTURE1_ARGV, 34, [34] * 10),
    "conjecture1-clean": (None, _CONJECTURE1_ARGV, 10, []),
    "fake-gaussian": (_fake_gaussian_flaky_expand, _FAKE_GAUSSIAN_ARGV, 2, [5, 5, 10, 10]),
    "fake-gaussian-complete": (None, _FAKE_GAUSSIAN_ARGV, 1, []),
}

#: the genuine checkpoints that hold violations
_VIOLATING = [name for name, (*_, cursors) in _GENUINE_CHECKPOINTS.items() if cursors]


@pytest.mark.parametrize("sweep", _VIOLATING)
def test_checkpoint_with_genuine_violations_resumes(tmp_path, monkeypatch, sweep):
    setup, _, stop_after, cursors = _GENUINE_CHECKPOINTS[sweep]
    run = setup(monkeypatch)
    path = str(tmp_path / "ckpt")
    partial = run(checkpoint=path, stop_after=stop_after)
    # each violation is stored as the cursor of the unit that recorded it
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["violations"] == cursors
    assert len(partial.violations) == len(cursors)
    resumed = run(checkpoint=path, resume=True)
    plain = run()
    assert canonical_json(resumed.to_dict(canonical=True)) == canonical_json(
        plain.to_dict(canonical=True)
    )


def _as_record_saying_ok(payload):
    payload["violations"][0] = [payload["violations"][0], {"verdict": "OK"}]


def _move_unit(payload):
    payload["violations"][0] += 1


#: one edit of a genuine checkpoint's violations: a format-2 pair stands
#: where a cursor goes, at cursor 0 the cursors name units the cursor has
#: not passed, and a moved cursor names a unit that did not record the
#: violation
_TAMPERS = {
    "verdict-ok": _as_record_saying_ok,
    "cursor-0": lambda payload: payload.update(cursor=0),
    "unit-moved": _move_unit,
}


@pytest.mark.parametrize(
    "sweep, tamper", [(sweep, tamper) for sweep in _VIOLATING for tamper in _TAMPERS]
)
def test_checkpoint_with_a_tampered_genuine_violation_refused(
    tmp_path, monkeypatch, sweep, tamper
):
    setup, _, stop_after, _ = _GENUINE_CHECKPOINTS[sweep]
    run = setup(monkeypatch)
    path = tmp_path / "ckpt"
    run(checkpoint=str(path), stop_after=stop_after)
    payload = json.loads(path.read_text())
    _TAMPERS[tamper](payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch):
        run(checkpoint=str(path), resume=True)


def _recorded(monkeypatch, name):
    """The tasks passed to harness.<name> from now on, which still runs."""
    calls = []
    real = getattr(qpositivity.harness, name)

    def record(task):
        calls.append(task)
        return real(task)

    monkeypatch.setattr(qpositivity.harness, name, record)
    return calls


def test_clean_resume_runs_no_unit(tmp_path, monkeypatch):
    path = str(tmp_path / "c1.ckpt")
    partial = sweep_conjecture1(40, checkpoint=path, stop_after=19)
    units = _recorded(monkeypatch, "_conjecture1_unit")
    recounts = _recorded(monkeypatch, "_conjecture1_pairs")
    resumed = sweep_conjecture1(40, checkpoint=path, resume=True, stop_after=0)
    assert units == []
    assert recounts == list(range(2, 21))
    assert resumed.counts == partial.counts


def test_resume_reruns_exactly_the_units_its_violations_name(tmp_path, monkeypatch):
    run = _conjecture1_wrong_at_34(monkeypatch)
    path = str(tmp_path / "c1.ckpt")
    partial = run(checkpoint=path, stop_after=34)
    assert partial.cursor == 35 and partial.violations
    units = _recorded(monkeypatch, "_conjecture1_unit")
    resumed = run(checkpoint=path, resume=True, stop_after=0)
    assert units == [34]
    assert canonical_json(resumed.to_dict(canonical=True)) == canonical_json(
        partial.to_dict(canonical=True)
    )


def test_resume_reports_the_records_this_build_derives(tmp_path, monkeypatch):
    # README: the file pins no record text, so a build that derives other
    # records for the units its cursors name resumes and reports its own
    run = _conjecture1_wrong_at_34(monkeypatch)
    path = str(tmp_path / "c1.ckpt")
    partial = run(checkpoint=path, stop_after=34)
    verdict = qpositivity.harness._polynomial_verdict
    monkeypatch.setattr(qpositivity.harness, "_polynomial_verdict",
                        lambda *args, **kw: dataclasses.replace(verdict(*args, **kw), note="new"))
    resumed = run(checkpoint=path, resume=True, stop_after=0)
    assert resumed.counts == partial.counts
    assert resumed.violations == [dataclasses.replace(v, note="new") for v in partial.violations]


def test_resume_under_another_seed_is_refused_before_anything_runs(tmp_path, monkeypatch):
    path = str(tmp_path / "fg.ckpt")
    sweep_fake_gaussian("aba", 0, 1000, checkpoint=path, stop_after=2)
    units = _recorded(monkeypatch, "_fake_gaussian_unit")
    recounts = _recorded(monkeypatch, "_fake_gaussian_counts")
    with pytest.raises(CheckpointMismatch, match="by sweep 'fake-gaussian' with parameters"):
        sweep_fake_gaussian("aba", 1, 1000, checkpoint=path, resume=True)
    assert units == recounts == []


def test_resume_without_a_checkpoint_is_refused():
    with pytest.raises(ValueError, match="resume requires a checkpoint"):
        sweep_conjecture1(8, resume=True)
    with pytest.raises(ValueError, match="resume requires a checkpoint"):
        sweep_fake_gaussian("aa", seed=1, samples=10, resume=True)


def test_sweep_checkpoint_io_error_propagates(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    units = _recorded(monkeypatch, "_conjecture1_unit")
    path = str(blocker / "ckpt")
    with pytest.raises(OSError, match=f"cannot write checkpoint {re.escape(repr(path))}: "):
        sweep_conjecture1(8, checkpoint=path)
    assert units == []


def test_sweep_stop_after_zero_does_nothing(tmp_path):
    report = sweep_conjecture1(20, stop_after=0)
    assert report.cursor == 0
    assert report.counts["examined"] == 0
    assert report.violations == []


@pytest.mark.parametrize("bad", [{"workers": 0}, {"workers": -3}, {"stop_after": -1}])
def test_sweep_engine_rejects_bad_worker_count_and_stop_after(bad):
    with pytest.raises(ValueError):
        sweep_conjecture1(8, **bad)
    with pytest.raises(ValueError):
        sweep_fake_gaussian("aa", seed=1, samples=10, **bad)


def test_pool_is_no_larger_than_the_unit_list(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size, maps in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, units, chunksize=1):
            return map(fn, units)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    report = sweep_conjecture1(5, workers=8)  # units n = 2..5
    assert sizes == [4]
    assert report.cursor == 5
    sweep_conjecture1(5, workers=3)
    assert sizes == [4, 3]
    sweep_conjecture1(2, workers=8)  # a single unit runs in-process
    assert sizes == [4, 3]


# ---------------------------------------------------------------------------
# fake Gaussian sweep


def test_sample_spec_shapes():
    for template, arity in (("a", 1), ("aa", 2), ("aba", 3), ("abcba", 5)):
        for index in range(50):
            spec = _sample_spec(template, 11, index, 10, 200)
            s = (len(spec.a) - arity) // 2
            assert len(spec.a) == 2 * s + arity
            assert spec.a[:s] == (0,) * s
            assert spec.m >= max(1, s)
            assert spec.m <= s + 200
            assert spec.is_symmetric


def test_sample_spec_is_pure():
    one = _sample_spec("aba", 5, 17, 10, 200)
    two = _sample_spec("aba", 5, 17, 10, 200)
    assert one == two
    assert _sample_spec("aba", 6, 17, 10, 200) != one


def test_sweep_fake_gaussian_template_validation():
    with pytest.raises(ValueError):
        sweep_fake_gaussian("abba", seed=1, samples=10)


@pytest.mark.parametrize(
    "bad", [{"samples": -1}, {"value_max": -1}, {"m_span": -500}, {"m_span": 0}, {"samples": 0}]
)
def test_sweep_fake_gaussian_parameter_validation(bad):
    kw = {"seed": 1, "samples": 10, **bad}
    with pytest.raises(ValueError):
        sweep_fake_gaussian("aba", **kw)


def test_sweep_fake_gaussian_worker_determinism(monkeypatch):
    monkeypatch.setattr(qpositivity.harness, "_FAKE_GAUSSIAN_CHUNK", 50)
    kw = dict(seed=7, samples=240, m_span=40)
    single = sweep_fake_gaussian("aba", workers=1, **kw)
    double = sweep_fake_gaussian("aba", workers=2, **kw)
    assert canonical_json(single.to_dict(canonical=True)) == canonical_json(
        double.to_dict(canonical=True)
    )
    assert single.counts["examined"] == 240
    assert single.cursor == 240
    assert single.params["seed"] == 7


def test_sweep_fake_gaussian_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(qpositivity.harness, "_FAKE_GAUSSIAN_CHUNK", 60)
    path = str(tmp_path / "fg.ckpt")
    kw = dict(seed=3, samples=300, m_span=30)
    partial = sweep_fake_gaussian("aa", checkpoint=path, stop_after=2, **kw)
    assert partial.cursor == 120
    resumed = sweep_fake_gaussian("aa", checkpoint=path, resume=True, **kw)
    plain = sweep_fake_gaussian("aa", **kw)
    assert canonical_json(resumed.to_dict(canonical=True)) == canonical_json(
        plain.to_dict(canonical=True)
    )


def test_sweep_fake_gaussian_aa_template_is_clean():
    report = sweep_fake_gaussian("aa", seed=19, samples=400, m_span=60)
    assert report.violations == []
    assert report.counts["violations"] == 0


# ---------------------------------------------------------------------------
# crosschecks and reproductions


def test_crosscheck_theorems_clean():
    report = crosscheck_theorems(40)
    assert report.violations == []
    assert report.counts["violations"] == 0
    expected = sum(n - 1 for n in range(2, 41)) + sum(
        max(0, n - 3) for n in range(2, 41)
    )
    assert report.counts["examined"] == expected
    assert report.cursor == 40


def test_crosscheck_theorems_precondition():
    with pytest.raises(ValueError):
        crosscheck_theorems(3)


def test_reproduce_remark25_matches_expected():
    pairs = reproduce_remark25()
    assert len(pairs) == 4
    for (expr, p), expected in zip(pairs, REMARK25_EXPECTED):
        assert p.coeffs == expected
    # first displayed quotient in reduced factored form
    assert pairs[0][0] == from_factorials((12, 2, 2), (11, 4, 1))
    assert pairs[0][0].factors == ((2, 1), (3, -1), (4, -1), (12, 1))
    # every one of them is a polynomial that fails nonnegativity
    for _, p in pairs:
        assert not nonnegativity(p)[0]


def test_reproduce_stanton_slice():
    results = reproduce_stanton(3)
    assert len(results) == 3
    assert results[0].verdict == "VIOLATION"
    assert results[0].properties.first_negative == (7, -1)
    assert results[1].verdict == "polynomial-nonnegative"
    assert results[2].verdict == "polynomial-nonnegative"
    with pytest.raises(ValueError):
        reproduce_stanton(0)


def test_reproduce_stanton_is_verify_fake_gaussian_on_each_m():
    # the chain in m gives every result a from-scratch verification gives
    assert reproduce_stanton(60) == [
        verify_fake_gaussian(FakeGaussianSpec(m, STANTON_SEQUENCE)) for m in range(1, 61)
    ]


def test_remark25_table(monkeypatch):
    rows, ok = remark25_table()
    assert ok
    assert [r["coefficients"] for r in rows] == [list(e) for e in REMARK25_EXPECTED]
    assert all(r["match"] for r in rows)

    wrong = ((1, 2, 3),) + REMARK25_EXPECTED[1:]
    monkeypatch.setattr(qpositivity.harness, "REMARK25_EXPECTED", wrong)
    rows, ok = remark25_table()
    assert not ok
    assert [r["match"] for r in rows] == [False, True, True, True]


def test_stanton_table(monkeypatch):
    rows, ok = stanton_table(3)
    assert ok
    assert rows[0] == {"m": 1, "verdict": "VIOLATION", "first_negative": [7, -1], "match": True}
    assert rows[2] == {"m": 3, "verdict": "polynomial-nonnegative", "first_negative": None,
                       "match": True}

    # m=2 judged as if it were m=1, and m=1 as if it were m=2: both rows fail
    monkeypatch.setattr(qpositivity.harness, "reproduce_stanton",
                        lambda m_max: reproduce_stanton(2)[::-1])
    rows, ok = stanton_table(2)
    assert not ok
    assert [r["match"] for r in rows] == [False, False]


def test_reproduce_lemma6_grid():
    rows, ok = reproduce_lemma6(3, 1)
    assert ok
    assert [(r["K"], r["M"]) for r in rows] == [(2, 0), (2, 1), (3, 0), (3, 1)]
    assert rows[0] == {"K": 2, "M": 0, "degree": 42, "order_bound": 32, "A": True, "B": None}
    assert rows[2]["A"] is True and rows[2]["B"] is True


@pytest.mark.parametrize("k_max, m_max", [(1, 3), (6, -1)])
def test_reproduce_lemma6_refuses_an_empty_grid(k_max, m_max):
    with pytest.raises(ValueError):
        reproduce_lemma6(k_max, m_max)


def test_reproduce_corollary10():
    report = reproduce_corollary10(8)
    assert report.violations == []
    assert report.counts == {"examined": 8, "polynomial": 8, "violations": 0}
    assert report.cursor == 8
    with pytest.raises(ValueError):
        reproduce_corollary10(0)


def _corollary10_wrong_companion(monkeypatch):
    """Route corollary10 through (3n+2, n+1, 1), a polynomial for every n,
    instead of the companion quotient (3n+2, n+1, 2)."""
    real = qpositivity.harness.from_quotient_spec
    monkeypatch.setattr(qpositivity.harness, "from_quotient_spec",
                        lambda spec: real(QuotientSpec(spec.n, spec.k, 1)))


def test_reproduce_corollary10_catches_a_route_mismatch(monkeypatch):
    _corollary10_wrong_companion(monkeypatch)
    report = reproduce_corollary10(8)
    assert report.counts == {"examined": 8, "polynomial": 8, "violations": 8}
    assert [v.note for v in report.violations] == [
        f"row n={n}: route comparison mismatch" for n in range(1, 9)
    ]


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("verify", [
    lambda: verify_quotient(QuotientSpec(40, 13, 7), properties=True, keep_expansion=True),
    lambda: verify_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE)),
], ids=["quotient", "stanton"])
def test_a_verdict_is_a_value(verify):
    # a result records what was decided, not how long it took
    first, second = verify(), verify()
    assert first == second
    assert not {"elapsed", "elapsed_ms"} & first.to_dict().keys()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.note = "edited"


def test_canonical_forms_exclude_timing():
    r = verify_quotient(QuotientSpec(11, 3, 2))
    assert "elapsed" not in r.to_dict()
    report = sweep_conjecture1(8)
    assert "wall_time" in report.to_dict()
    assert "wall_time" not in report.to_dict(canonical=True)
    assert report.to_dict()["schema"] == "qpositivity-report/1"


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}'
