"""Verification entry points, sweeps, checkpoints, and reproductions."""

import doctest
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpositivity.harness
from qpositivity.analysis import nonnegativity
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
    expand,
    expand_quotient_row,
    from_factorials,
    from_quotient_spec,
    is_polynomial,
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
    assert r.expansion == IntPolynomial.one()


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


def test_row_chain_refuses_when_the_mirrored_sum_misses_f1():
    # [11]/[2]: f(1) = 11/2, but the mirrored half-length series sums to 6
    expr = from_quotient_spec(QuotientSpec(12, 2, 1))
    assert str(expr) == "[11]/[2]"
    assert list(expand_quotient_row(12, 2, {1: expr})) == [(1, NotDivisible)]


def test_is_polynomial_guard_catches_what_f1_passes(monkeypatch):
    # [20][21]/([14][15]) is no polynomial, yet its mirrored half-length
    # series sums to f(1) = 2, so the row chain alone does not refuse it
    spec = QuotientSpec(34, 15, 13)
    expr = from_quotient_spec(spec)
    assert not is_polynomial(expr)
    [(l, p)] = expand_quotient_row(34, 15, {13: expr})
    assert l == 13 and p is not NotDivisible

    # a divisor table that wrongly calls (34, 15, 13) a polynomial
    table = _polynomial_ls(34)
    table[13] = table[13] | table[15]
    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", lambda n: table)
    _, _, _, violations = _conjecture1_unit(34)
    assert spec in [v.spec for v in violations]
    for v in violations:
        assert v.note == "divisor profile says polynomial, expansion refused"
        assert not is_polynomial(from_quotient_spec(v.spec))


def test_violations_stay_in_ascending_l_within_each_k(monkeypatch):
    # A divisor table that wrongly calls (34, 15, 2) and (34, 15, 13)
    # polynomials: 2 sits below the row's real polynomial l = 3, 4 and 13
    # above them.  The row chain walks l downward, yet violations must come
    # back in the order of the per-triple loop, ascending l within each k.
    table = _polynomial_ls(34)
    table[2] = table[2] | table[15]
    table[13] = table[13] | table[15]
    monkeypatch.setattr(qpositivity.harness, "_polynomial_ls", lambda n: table)

    expected = []
    for k in range(2, 18):
        for l in range(1, k):
            if table[k] <= table[l]:
                spec = QuotientSpec(34, k, l)
                p = expand(from_quotient_spec(spec))
                r = _polynomial_verdict(spec, spec, p, properties=False, keep_expansion=False)
                if r.verdict == "VIOLATION":
                    expected.append(spec)
    _, _, _, violations = _conjecture1_unit(34)
    got = [v.spec for v in violations]
    assert got == expected
    assert got == sorted(got, key=lambda s: (s.k, s.l))
    assert [s.l for s in got if s.k == 15] == [2, 13]


@pytest.mark.parametrize("ns", [range(2, 61), [150]], ids=["n<=60", "n=150"])
def test_row_chain_matches_expand(ns):
    # every polynomial triple of the sweep, as _conjecture1_unit expands it
    expansions = {}
    for n in ns:
        table = _polynomial_ls(n)
        for k in range(2, n // 2 + 1):
            ls = [l for l in range(1, k) if table[k] <= table[l]]
            if not ls:
                continue
            exprs = {l: from_quotient_spec(QuotientSpec(n, k, l)) for l in ls}
            row = list(expand_quotient_row(n, k, exprs))
            # one yield per polynomial l, walking l downward
            assert [l for l, _ in row] == ls[::-1]
            for l, p in row:
                assert p == expand(exprs[l]), (n, k, l)
                expansions[QuotientSpec(n, k, l)] = p
    if 150 in ns:
        # the widest case of the n <= 150 sweep
        widest = expansions[QuotientSpec(150, 73, 1)]
        assert widest.degree == 5472
        assert max(c.bit_length() for c in widest.coeffs) == 130


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


_VIOLATION = CheckResult(
    QuotientSpec(6, 3, 1), QuotientSpec(6, 3, 1), True, "VIOLATION"
).to_dict(canonical=True)


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"cursor": "6", "counts": {"examined": 0, "polynomial": 0, "violations": 0},
         "violations": []},
        {"counts": {"examined": 0}, "violations": []},
        {"counts": [1], "violations": []},
        {"counts": {"examined": 0, "polynomial": 0, "violations": 0}, "violations": [{}]},
        {"counts": {"examined": "x", "polynomial": 0, "violations": 0}, "violations": []},
        {"counts": {"examined": 9, "polynomial": -1, "violations": 0}, "violations": []},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 0},
         "violations": [_VIOLATION]},
        {"cursor": -40, "counts": {"examined": 10**6, "polynomial": 0, "violations": 0},
         "violations": []},
        {"cursor": 21, "counts": {"examined": 9, "polynomial": 3, "violations": 0},
         "violations": []},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 1},
         "violations": [{**_VIOLATION, "spec": {"type": "quotient", "n": "a", "k": 1, "l": 1}}]},
        {"counts": {"examined": 9, "polynomial": 3, "violations": 1},
         "violations": [{**_VIOLATION, "expansion": [1, "x"]}]},
    ],
    ids=["not-an-object", "bad-cursor", "short-counts", "bad-counts", "bad-violation",
         "count-not-an-int", "negative-count", "uncounted-violation", "negative-cursor",
         "cursor-past-the-end", "spec-field-not-an-int", "expansion-not-ints"],
)
def test_sweep_checkpoint_malformed_refused(tmp_path, payload):
    path = tmp_path / "c1.ckpt"
    if isinstance(payload, dict):
        payload = {"format": CHECKPOINT_FORMAT, "sweep": "conjecture1",
                   "params": {"n_max": 20}, "cursor": 6, **payload}
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatch):
        sweep_conjecture1(20, checkpoint=str(path), resume=True)


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


def test_check_result_round_trip():
    r = verify_quotient(QuotientSpec(11, 2, 3), properties=True, keep_expansion=True)
    back = CheckResult.from_dict(r.to_dict())
    assert back.spec == r.spec
    assert back.normalized_spec == r.normalized_spec
    assert back.verdict == r.verdict
    assert back.properties == r.properties
    assert back.expansion == r.expansion

    stanton = verify_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE))
    again = CheckResult.from_dict(stanton.to_dict())
    assert again.spec == stanton.spec
    assert again.properties.first_negative == (7, -1)


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
