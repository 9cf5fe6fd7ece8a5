"""End-to-end acceptance checks with pinned runtime budgets.

Each test covers one acceptance criterion, asserts exact results, and
prints a single pass line with its measured time against the budget.
Run with -s to see the lines as they complete.
"""

import random
import time

from _reference import cyclotomic_exponent
from qpositivity.analysis import is_reciprocal, nonnegativity
from qpositivity.criteria import (
    Lemma6Variant,
    corollary10_expression,
    lemma6_degree,
    lemma6_expression,
    lemma6_order_bound,
    thm8_exponent,
    thm9_exponent,
)
from qpositivity.harness import (
    REMARK25_EXPECTED,
    STANTON_SEQUENCE,
    canonical_json,
    crosscheck_theorems,
    reproduce_corollary10,
    reproduce_remark25,
    reproduce_stanton,
    sweep_conjecture1,
    sweep_fake_gaussian,
)
from qpositivity.qexpr import (
    FakeGaussianSpec,
    QuotientSpec,
    expand,
    from_fake_gaussian,
    from_quotient_spec,
)
from qpositivity.qpoly import (
    IntPolynomial,
    NotDivisible,
    cyclotomic,
    poly_add,
    poly_mul,
    q_binomial,
)


def finish(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s < {budget:.0f}s budget)")


def test_acceptance_1_remark25_goldens():
    started = time.perf_counter()
    pairs = reproduce_remark25()
    assert len(pairs) == 4
    for (expr, p), expected in zip(pairs, REMARK25_EXPECTED):
        assert p.coeffs == expected, f"{expr} expanded to {p}"
        assert not nonnegativity(p)[0]
    finish(1, "factorial quotient goldens", started, 1.0)


def test_acceptance_2_stanton_product():
    started = time.perf_counter()
    p = expand(from_fake_gaussian(FakeGaussianSpec(1, STANTON_SEQUENCE)))
    assert p is not NotDivisible
    assert p.coeffs[7] == -1
    assert p.degree == 20
    results = reproduce_stanton(50)
    assert results[0].verdict == "VIOLATION"
    assert results[0].properties.first_negative == (7, -1)
    for m, result in enumerate(results[1:], start=2):
        assert result.verdict == "polynomial-nonnegative", f"m={m}"
    finish(2, "one negative coefficient at m=1 only", started, 30.0)


def test_acceptance_3_conjecture1_sweep():
    started = time.perf_counter()
    report = sweep_conjecture1(150, workers=1)
    assert report.violations == []
    assert report.counts["violations"] == 0
    expected = sum(
        1
        for n in range(2, 151)
        for k in range(2, n // 2 + 1)
        for _ in range(1, k)
    )
    assert report.counts["examined"] == expected
    # the polynomial triples with n <= 150, counted once by expanding each
    assert report.counts["polynomial"] == 8261
    assert report.cursor == 150
    finish(3, "exhaustive sweep to n=150", started, 600.0)


def test_acceptance_4_theorem_crosscheck():
    started = time.perf_counter()
    report = crosscheck_theorems(100)
    assert report.violations == []
    assert report.counts["violations"] == 0
    assert report.counts["examined"] == sum(n - 1 for n in range(2, 101)) + sum(
        max(0, n - 3) for n in range(2, 101)
    )
    finish(4, "criteria match brute force to n=100", started, 120.0)


def test_acceptance_5_exponent_formulas():
    started = time.perf_counter()
    rng = random.Random(20250817)
    for _ in range(1000):
        n = rng.randint(4, 300)
        l = rng.choice((1, 2))
        k = rng.randint(l, n - l)
        expr = from_quotient_spec(QuotientSpec(n, k, l))
        formula = thm8_exponent if l == 1 else thm9_exponent
        for d in range(2, n + 1):
            assert formula(n, k, d) == cyclotomic_exponent(expr, d), (n, k, l, d)
    finish(5, "closed-form cyclotomic exponents", started, 10.0)


def test_acceptance_6_lemma6_family():
    started = time.perf_counter()
    for K in range(2, 13):
        for M in range(0, 7):
            degree = lemma6_degree(K, M)
            bound = lemma6_order_bound(K, M)
            assert 2 * bound > degree, (K, M)
            p = expand(lemma6_expression(K, M, Lemma6Variant.VariantA))
            assert p is not NotDivisible
            assert p.degree == degree
            assert min(p.coeffs) >= 0
            assert is_reciprocal(p)
            if K >= 3:
                expr = lemma6_expression(K, M, Lemma6Variant.VariantB)
                p = expand(expr)
                assert p is not NotDivisible
                assert p.degree == expr.net_degree
                assert min(p.coeffs) >= 0
                assert is_reciprocal(p)
    finish(6, "three-term family through K=12, M=6", started, 120.0)


def test_acceptance_7_corollary10_table():
    started = time.perf_counter()
    assert expand(corollary10_expression(1)) == IntPolynomial([1, 0, 0, 1])
    report = reproduce_corollary10(30)
    assert report.violations == []
    assert report.counts == {"examined": 30, "polynomial": 30, "violations": 0}
    finish(7, "even/odd table with route crosscheck", started, 60.0)


def test_acceptance_8_property_suite(tmp_path):
    started = time.perf_counter()

    # q-integers factor into cyclotomics over the divisors
    for m in range(1, 301):
        product = IntPolynomial([1])
        for d in range(2, m + 1):
            if m % d == 0:
                product = poly_mul(product, cyclotomic(d))
        assert product == IntPolynomial([1] * m), m

    # Gaussian triangle to n=60: recurrence, symmetry, nonnegativity
    row = [IntPolynomial([1])]
    for n in range(1, 61):
        new = [IntPolynomial([1])]
        for k in range(1, n):
            shifted = poly_mul(IntPolynomial([0] * k + [1]), row[k])
            new.append(poly_add(row[k - 1], shifted))
        new.append(IntPolynomial([1]))
        row = new
        for k, p in enumerate(row):
            assert p == row[n - k]
            assert min(p.coeffs) >= 0
    assert row[30] == q_binomial(60, 30)
    assert row[17] == q_binomial(60, 17)

    # expansions seen by the sweep stay reciprocal with constant term 1;
    # the sweep itself flags any breach as a violation
    report = sweep_conjecture1(80)
    assert report.violations == []
    for n, k, l in ((150, 5, 4), (98, 14, 12), (60, 8, 5)):
        p = expand(from_quotient_spec(QuotientSpec(n, k, l)))
        if p is not NotDivisible:
            assert p.coeffs[0] == 1
            assert is_reciprocal(p)

    # worker count never changes a report
    a = sweep_conjecture1(50, workers=1)
    b = sweep_conjecture1(50, workers=2)
    assert canonical_json(a.to_dict(canonical=True)) == canonical_json(
        b.to_dict(canonical=True)
    )
    fa = sweep_fake_gaussian("aba", seed=11, samples=300, m_span=60, workers=1)
    fb = sweep_fake_gaussian("aba", seed=11, samples=300, m_span=60, workers=2)
    assert canonical_json(fa.to_dict(canonical=True)) == canonical_json(
        fb.to_dict(canonical=True)
    )

    # forced interruption plus resume reproduces the uninterrupted report
    ckpt = str(tmp_path / "resume.ckpt")
    sweep_conjecture1(40, checkpoint=ckpt, stop_after=7)
    resumed = sweep_conjecture1(40, checkpoint=ckpt, resume=True)
    plain = sweep_conjecture1(40)
    assert canonical_json(resumed.to_dict(canonical=True)) == canonical_json(
        plain.to_dict(canonical=True)
    )

    finish(8, "structure, determinism, resume", started, 180.0)
