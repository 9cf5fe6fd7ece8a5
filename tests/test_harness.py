"""Verification entry points, sweeps, checkpoints, and reproductions."""

import doctest
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpositivity.harness
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
from qpositivity.qpoly import (
    IntPolynomial,
    NotDivisible,
    PackedSeries,
    _div_one_minus_qk_series,
    _mul_one_minus_qm_series,
)


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
    assert raw_expr == norm_expr or raw_expr == norm_expr.inverse()


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
                lower = PackedSeries.from_coeffs(coeffs, lower.width)
            yield k, l, lower

    [(_, _, untouched)] = real(34, [(15, [3])])
    untouched = untouched.coeffs
    monkeypatch.setattr(qpositivity.harness, "quotient_lower_halves", tampered)
    _, _, violations = _conjecture1_unit(34)
    [lower] = forced
    assert sum(lower) == sum(untouched) and lower[1] == -5
    p = mirror_lower_half(lower, degree)
    expected = _polynomial_verdict(spec, spec, p, properties=False, keep_expansion=False)
    assert [v.to_dict(canonical=True) for v in violations] == [expected.to_dict(canonical=True)]
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
            _mul_one_minus_qm_series(row, n - j + 1)
            _div_one_minus_qk_series(row, j)
        k_row, series, l_series = k, row[:], 0
        for l in ls:
            del series[quotient_degree(n, k, l) // 2 + 1 :]
            for j in range(l_series, l):
                _mul_one_minus_qm_series(series, j + 1)
                _div_one_minus_qk_series(series, n - j)
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


@pytest.mark.parametrize(
    "n_max, stop_after, field, change",
    [(5, 2, "examined", 1), (40, 19, "examined", 1), (40, 19, "polynomial", -1),
     (40, 19, "polynomial", 1)],
    ids=["n5-examined-0-to-1", "n40-examined-up", "n40-polynomial-down", "n40-polynomial-up"],
)
def test_conjecture1_checkpoint_counts_are_rederived(tmp_path, n_max, stop_after, field, change):
    path = tmp_path / "c1.ckpt"
    sweep_conjecture1(n_max, checkpoint=str(path), stop_after=stop_after)
    payload = json.loads(path.read_text())
    assert payload["cursor"] == stop_after + 1
    assert payload["counts"]["examined"] == expected_examined(stop_after + 1)
    assert sweep_conjecture1(n_max, checkpoint=str(path), resume=True, stop_after=0).counts == (
        payload["counts"]
    )
    payload["counts"][field] += change
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch, match="does not derive"):
        sweep_conjecture1(n_max, checkpoint=str(path), resume=True)


@pytest.mark.parametrize(
    "edit",
    [{"examined": -3, "polynomial": 7}, {"examined": 1}, {"polynomial": -1}],
    ids=["examined-down-polynomial-up", "examined-up", "polynomial-down"],
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
    for field, change in edit.items():
        payload["counts"][field] += change
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch, match="does not derive"):
        sweep_fake_gaussian("aba", 0, 1000, checkpoint=str(path), resume=True)


def test_sweep_checkpoint_mismatch_refused(tmp_path):
    path = str(tmp_path / "c1.ckpt")
    sweep_conjecture1(20, checkpoint=path, stop_after=3)
    with pytest.raises(CheckpointMismatch):
        sweep_conjecture1(25, checkpoint=path, resume=True)


def test_sweep_checkpoint_corrupt_refused(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not json at all{")
    with pytest.raises(CheckpointMismatch):
        sweep_conjecture1(20, checkpoint=str(path), resume=True)


def test_sweep_checkpoint_wrong_format_refused(tmp_path):
    path = tmp_path / "old.ckpt"
    path.write_text(json.dumps({"format": "qpositivity-checkpoint/0"}))
    with pytest.raises(CheckpointMismatch):
        sweep_conjecture1(20, checkpoint=str(path), resume=True)
    # format /1 stored violations without their units; it is refused even
    # when nothing else in the checkpoint differs
    sweep_conjecture1(20, checkpoint=str(path), stop_after=3)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "format": "qpositivity-checkpoint/1"}))
    with pytest.raises(CheckpointMismatch):
        sweep_conjecture1(20, checkpoint=str(path), resume=True)


@pytest.mark.parametrize("missing", ["cursor", "counts", "violations"])
def test_sweep_checkpoint_incomplete_refused(tmp_path, missing):
    path = str(tmp_path / "c1.ckpt")
    sweep_conjecture1(20, checkpoint=path, stop_after=3)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload[missing]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointMismatch):
        sweep_conjecture1(20, checkpoint=path, resume=True)


_FG_PARAMS = {"template": "aa", "samples": 10, "value_max": 10, "m_span": 200, "seed": 1}

_VIOLATION = CheckResult(
    QuotientSpec(6, 3, 1), QuotientSpec(6, 3, 1), True, "VIOLATION"
).to_dict(canonical=True)

_PROPERTIES = {"nonnegative": False, "first_negative": [1, -1], "reciprocal": True,
               "unimodal": False, "parity_unimodal": False, "order": 0, "degree": 2}

_STANTON_VIOLATION = verify_fake_gaussian(
    FakeGaussianSpec(1, STANTON_SEQUENCE)
).to_dict(canonical=True)

#: (id, field, value): a restored violation's field that a checkpoint of
#: the conjecture1 sweep cannot have written.
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
        {"cursor": "6", "counts": {"examined": 0, "polynomial": 0, "violations": 0},
         "violations": []},
        {"counts": {"examined": 0}, "violations": []},
        {"counts": [1], "violations": []},
        {"counts": {"examined": 0, "polynomial": 0, "violations": 0}, "violations": [[6, {}]]},
        {"counts": {"examined": "x", "polynomial": 0, "violations": 0}, "violations": []},
        {"counts": {"examined": 9, "polynomial": -1, "violations": 0}, "violations": []},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 0},
         "violations": [[6, _VIOLATION]]},
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
         "violations": [[6, _VIOLATION]]},
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
    ids=["not-an-object", "bad-cursor", "short-counts", "bad-counts", "bad-violation",
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


def _write_one_violation_checkpoint(path, sweep, params, cursor, unit, violation, counts):
    # counts: a real run's up to the cursor, so that the violation alone is refused
    path.write_text(json.dumps({
        "format": CHECKPOINT_FORMAT, "sweep": sweep, "params": params, "cursor": cursor,
        "counts": {**counts, "violations": 1},
        "violations": [[unit, violation]],
    }))


#: the counts of the whole of _FG_PARAMS's sweep, one unit to cursor 10
_FG_COUNTS = sweep_fake_gaussian("aa", seed=1, samples=10).counts


def test_checkpoint_refuses_well_formed_but_fabricated_violations(tmp_path):
    # well-formed records that no run of these sweeps reports: (6, 3, 1) is
    # not a polynomial, and the aa template never draws the Stanton spec
    path = tmp_path / "c1.ckpt"
    violation = {**_VIOLATION, "properties": _PROPERTIES, "note": "restored"}
    counts = sweep_conjecture1(8, stop_after=5).counts
    _write_one_violation_checkpoint(path, "conjecture1", {"n_max": 8}, 6, 6, violation, counts)
    with pytest.raises(CheckpointMismatch, match="does not report"):
        sweep_conjecture1(8, checkpoint=str(path), resume=True)

    _write_one_violation_checkpoint(
        path, "fake-gaussian", _FG_PARAMS, 10, 10, _STANTON_VIOLATION, _FG_COUNTS
    )
    with pytest.raises(CheckpointMismatch, match="does not report"):
        sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=str(path), resume=True)


@pytest.mark.parametrize("cursor", [0, 10])
@pytest.mark.parametrize("note", [None, "sample 3"], ids=["note-null", "note-sample-3"])
def test_fake_gaussian_checkpoint_violation_not_drawn_before_the_cursor_refused(
    tmp_path, cursor, note
):
    # the Stanton m=1 violation is no sample of aa, seed 1: at cursor 0 its
    # unit (samples 0..9) has not run, and at cursor 10 it ran and was clean
    path = tmp_path / "fg.ckpt"
    violation = {**_STANTON_VIOLATION, "note": note}
    counts = _FG_COUNTS if cursor else {"examined": 0, "polynomial": 0}
    _write_one_violation_checkpoint(
        path, "fake-gaussian", _FG_PARAMS, cursor, 10, violation, counts
    )
    with pytest.raises(CheckpointMismatch, match="does not report"):
        sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=str(path), resume=True)


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


#: sweep -> (setup, stop_after, units): a sweep whose checkpoint after
#: stop_after units holds genuine violations, and the cursors of the units
#: that recorded them
_GENUINE = {
    "conjecture1": (_conjecture1_wrong_at_34, 34, {34}),
    "fake-gaussian": (_fake_gaussian_flaky_expand, 2, {5, 10}),
}


@pytest.mark.parametrize("sweep", sorted(_GENUINE))
def test_checkpoint_with_genuine_violations_resumes(tmp_path, monkeypatch, sweep):
    setup, stop_after, units = _GENUINE[sweep]
    run = setup(monkeypatch)
    path = str(tmp_path / "ckpt")
    partial = run(checkpoint=path, stop_after=stop_after)
    assert partial.violations
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)["violations"]
    # each violation is stored with the cursor of the unit that recorded it
    assert [v for _, v in stored] == [v.to_dict(canonical=True) for v in partial.violations]
    assert {unit for unit, _ in stored} == units
    resumed = run(checkpoint=path, resume=True)
    plain = run()
    assert canonical_json(resumed.to_dict(canonical=True)) == canonical_json(
        plain.to_dict(canonical=True)
    )


def _edit_violation(**fields):
    return lambda payload: payload["violations"][0][1].update(fields)


def _edit_property(**fields):
    return lambda payload: payload["violations"][0][1]["properties"].update(fields)


def _move_unit(payload):
    payload["violations"][0][0] += 1


#: one field of a genuine checkpoint changed; several new values compare
#: equal to the old ones (True == 1, -1 == -1.0), at cursor 0 the
#: violations come from units the cursor has not passed, and a moved
#: violation names a unit that did not record it
_TAMPERS = {
    "note-null": _edit_violation(note=None),
    "is-polynomial-1": _edit_violation(is_polynomial=1),
    "verdict-ok": _edit_violation(verdict="OK"),
    "expansion-entry": _edit_violation(expansion=[1, -1, 1]),
    "property-flag-1": _edit_property(reciprocal=1),
    "first-negative-float": _edit_property(first_negative=[1, -1.0]),
    "cursor-0": lambda payload: payload.update(cursor=0),
    "unit-moved": _move_unit,
}

#: conjecture1's violations here come from refused expansions, with no
#: property record to edit
_PROPERTY_TAMPERS = ("property-flag-1", "first-negative-float")


@pytest.mark.parametrize(
    "sweep, tamper",
    [(sweep, tamper) for sweep in sorted(_GENUINE) for tamper in _TAMPERS
     if sweep == "fake-gaussian" or tamper not in _PROPERTY_TAMPERS],
)
def test_checkpoint_with_a_tampered_genuine_violation_refused(
    tmp_path, monkeypatch, sweep, tamper
):
    setup, stop_after, _ = _GENUINE[sweep]
    run = setup(monkeypatch)
    path = tmp_path / "ckpt"
    run(checkpoint=str(path), stop_after=stop_after)
    payload = json.loads(path.read_text())
    _TAMPERS[tamper](payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch):
        run(checkpoint=str(path), resume=True)


@pytest.mark.parametrize("field", ["spec", "normalized_spec"])
def test_fake_gaussian_checkpoint_quotient_spec_refused(tmp_path, field):
    path = tmp_path / "fg.ckpt"
    violation = {**_STANTON_VIOLATION, field: _VIOLATION["spec"]}
    _write_one_violation_checkpoint(
        path, "fake-gaussian", _FG_PARAMS, 10, 10, violation, _FG_COUNTS
    )
    with pytest.raises(CheckpointMismatch, match="does not report"):
        sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=str(path), resume=True)


def test_fake_gaussian_checkpoint_cursor_past_the_samples_refused(tmp_path):
    path = str(tmp_path / "fg.ckpt")
    sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["cursor"] == 10
    assert sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=path, resume=True).cursor == 10
    payload["cursor"] = 11
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointMismatch):
        sweep_fake_gaussian("aa", seed=1, samples=10, checkpoint=path, resume=True)


def test_sweep_checkpoint_io_error_propagates(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(OSError):
        sweep_conjecture1(8, checkpoint=str(blocker / "ckpt"))


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

    monkeypatch.setattr(qpositivity.harness.multiprocessing, "Pool", RecordingPool)
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
    "bad", [{"samples": -1}, {"value_max": -1}, {"m_span": -500}, {"m_span": 0}]
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
    assert single.seed == 7


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


def test_sweep_fake_gaussian_seed_mismatch(tmp_path):
    path = str(tmp_path / "fg.ckpt")
    sweep_fake_gaussian("aa", seed=1, samples=100, stop_after=1, checkpoint=path)
    with pytest.raises(CheckpointMismatch):
        sweep_fake_gaussian("aa", seed=2, samples=100, resume=True, checkpoint=path)


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


# ---------------------------------------------------------------------------
# serialization


def test_canonical_forms_exclude_timing():
    r = verify_quotient(QuotientSpec(11, 3, 2))
    assert "elapsed" in r.to_dict()
    assert "elapsed" not in r.to_dict(canonical=True)
    report = sweep_conjecture1(8)
    assert "wall_time" in report.to_dict()
    assert "wall_time" not in report.to_dict(canonical=True)
    assert report.to_dict()["schema"] == "qpositivity-report/1"


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}'
