"""The benchmark's workloads: inputs built from a seed, one repetition of
fixed work, and the output checks that run after it, outside its timing.

sweep-c1   the exhaustive Conjecture 1 sweep on a process pool, with a
           checkpoint file; exhaustive, so the seed is not used.
reproduce  the named reproductions in one serial process; seed not used.
check-cli  a closed loop of one client calling the ``check`` subcommand
           in-process, one spec per call, on a seeded mix of specs.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction
from math import factorial

from qpositivity import cli, criteria, harness, qexpr, qpoly

#: Problem sizes.  "full" is what the benchmark measures; "tiny" keeps the
#: smoke tests fast and exercises the same code paths.  The reproduce sizes
#: keep each of its operations under about 0.1 s, short enough to fall
#: within a fast stretch of a shared host (see run.repetition_times).
SIZES = {
    "full": {
        "sweep_n_max": 100,
        "stanton_m_max": 40,
        "lemma6_k_max": 8,
        "lemma6_m_max": 3,
        "corollary10_n_max": 12,
        "crosscheck_n_max": 28,
        "check_calls": 1000,
    },
    "tiny": {
        "sweep_n_max": 20,
        "stanton_m_max": 5,
        "lemma6_k_max": 3,
        "lemma6_m_max": 1,
        "corollary10_n_max": 4,
        "crosscheck_n_max": 8,
        "check_calls": 60,
    },
}

#: The seed whose check-cli outputs are pinned by digest.
DEFAULT_SEED = 0

#: sha256 of canonical_json(report.to_dict(canonical=True)) per sweep bound.
SWEEP_DIGESTS = {
    100: "120f38096a7689e99c1389c95e49fc9664858458b80aecb8cae009561ae6b1f0",
    20: "f7a0d3006cca24738fb5250e2e7f0d838dd999bd45381fc7fcff1235537ed5a3",
}

#: sha256 of the check-cli outputs (exit code and JSON document of every
#: call, elapsed_ms removed) for DEFAULT_SEED, per size.
CHECK_DIGESTS = {
    "full": "780ba7c0bc32815116df7977e93e98db4058d366c3358e935a241f70b6564c02",
    "tiny": "3f46a18ae138c50bbf03cd507426ee926a592b6fb4073a5ad29998a02c2060df",
}

#: Expansions up to this degree are compared with expand_via_cyclotomics.
CYCLOTOMIC_RECHECK_DEGREE = 400

#: The largest n of a check-cli quotient spec.
CHECK_N_MAX = 150


@dataclasses.dataclass
class Rep:
    """One repetition of a workload's fixed work.

    A repetition runs the same operations in the same order every time;
    op_wall_s and op_cpu_s hold the wall and CPU time of each, in that order.
    """

    wall_s: float
    op_wall_s: list
    op_cpu_s: list
    specs: int
    ops: int
    errors: dict  # op index -> message, for operations that raised
    outputs: object
    # filled in by run.py after the repetition's timing ends
    cpu_s: float = 0.0
    failed: int = 0
    messages: list = dataclasses.field(default_factory=list)
    layers: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _staged(tracer, name, fn, *args):
    return tracer.span(name, fn, *args) if tracer is not None else fn(*args)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep-c1


def conjecture1_examined(n_max: int) -> int:
    """Closed form of the triple count 1 <= l < k <= n/2, 2 <= n <= n_max."""
    return sum((n // 2) * (n // 2 - 1) // 2 for n in range(2, n_max + 1))


class SweepConjecture1:
    name = "sweep-c1"
    #: One operation of several seconds on a process pool: run.py reports
    #: the mean over repetitions, with the workers' CPU time.
    BEST_OF_OPS = False
    #: A check is one repetition.
    CHECK_IS_OP = False

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.n_max = SIZES[size]["sweep_n_max"]
        self.workers = available_cpus()
        self.checkpoint = os.path.join(workdir, "sweep-c1.checkpoint")
        self.expected_examined = conjecture1_examined(self.n_max)

    def warm_up(self) -> None:
        pass

    def _sweep(self):
        return harness.sweep_conjecture1(
            self.n_max, workers=self.workers, checkpoint=self.checkpoint
        )

    def run_once(self, tracer=None) -> Rep:
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)
        errors = {}
        report = None
        start = time.perf_counter()
        try:
            report = _staged(tracer, "bench.sweep", self._sweep)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[0] = f"sweep raised {exc!r}"
        wall = time.perf_counter() - start
        examined = report.counts["examined"] if report else 0
        return Rep(wall, [wall], [], examined, 1, errors, report)

    def check(self, rep: Rep) -> dict:
        report = rep.outputs
        if report is None:
            return {}
        problems = []
        digest = _sha256(harness.canonical_json(report.to_dict(canonical=True)))
        if digest != SWEEP_DIGESTS.get(self.n_max):
            problems.append(f"report digest {digest} differs from the pinned one")
        if report.counts["examined"] != self.expected_examined:
            problems.append(f"examined {report.counts['examined']}, "
                            f"expected {self.expected_examined}")
        if report.violations or report.counts["violations"]:
            problems.append(f"{report.counts['violations']} violations reported")
        try:
            with open(self.checkpoint, encoding="utf-8") as fh:
                saved = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"checkpoint unreadable: {exc}")
        else:
            if saved.get("cursor") != self.n_max or saved.get("counts") != report.counts:
                problems.append("checkpoint disagrees with the report")
        return {0: "; ".join(problems)} if problems else {}

    def layer_extras(self, rep: Rep) -> dict:
        counts = rep.outputs.counts if rep.outputs else {}
        examined = counts.get("examined", 0)
        return {"harness.profile_hit_ratio":
                counts.get("polynomial", 0) / examined if examined else 0.0}


# ---------------------------------------------------------------------------
# reproduce


def lemma6_grid(k_max: int, m_max: int) -> list:
    """Expand every lemma6 family member with K <= k_max and M <= m_max."""
    rows = []
    for K in range(2, k_max + 1):
        for M in range(0, m_max + 1):
            for variant in criteria.Lemma6Variant:
                if variant is criteria.Lemma6Variant.VariantB and K < 3:
                    continue
                expr = criteria.lemma6_expression(K, M, variant)
                rows.append((K, M, variant, expr, qexpr.expand(expr)))
    return rows


def _crosscheck_examined(n_max: int) -> int:
    return sum(n - 1 for n in range(2, n_max + 1)) + sum(
        max(0, n - 3) for n in range(2, n_max + 1)
    )


class Reproduce:
    name = "reproduce"
    #: Five in-process operations: run.py takes each one's best time.
    BEST_OF_OPS = True
    #: A check is one repetition.
    CHECK_IS_OP = False
    STAGES = ("remark25", "stanton", "lemma6", "corollary10", "crosscheck")

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        s = SIZES[size]
        self.calls = (
            (harness.reproduce_remark25, ()),
            (harness.reproduce_stanton, (s["stanton_m_max"],)),
            (lemma6_grid, (s["lemma6_k_max"], s["lemma6_m_max"])),
            (harness.reproduce_corollary10, (s["corollary10_n_max"],)),
            (harness.crosscheck_theorems, (s["crosscheck_n_max"],)),
        )
        self.sizes = s

    def warm_up(self) -> None:
        pass

    def run_once(self, tracer=None) -> Rep:
        outputs = [None] * len(self.STAGES)
        op_wall, op_cpu = [], []
        errors = {}
        clock, cpu_clock = time.perf_counter, time.process_time
        start = clock()
        for i, (stage, (fn, args)) in enumerate(zip(self.STAGES, self.calls)):
            began, cpu = clock(), cpu_clock()
            try:
                outputs[i] = _staged(tracer, f"bench.{stage}", fn, *args)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors[i] = f"{stage} raised {exc!r}"
            op_wall.append(clock() - began)
            op_cpu.append(cpu_clock() - cpu)
        wall = clock() - start
        specs = sum(self._specs(stage, out) for stage, out in zip(self.STAGES, outputs))
        return Rep(wall, op_wall, op_cpu, specs, len(self.STAGES), errors, outputs)

    @staticmethod
    def _specs(stage: str, out) -> int:
        if out is None:
            return 0
        if stage in ("corollary10", "crosscheck"):
            return out.counts["examined"]
        return len(out)

    def check(self, rep: Rep) -> dict:
        failed = {}
        s = self.sizes
        for i, (stage, out) in enumerate(zip(self.STAGES, rep.outputs)):
            if out is None:
                continue
            problem = getattr(self, f"_check_{stage}")(out, s)
            if problem:
                failed[i] = f"{stage}: {problem}"
        return failed

    @staticmethod
    def _check_remark25(out, s):
        got = tuple(p.coeffs for _expr, p in out)
        if got != harness.REMARK25_EXPECTED:
            return "coefficients differ from REMARK25_EXPECTED"
        return None

    @staticmethod
    def _check_stanton(out, s):
        if len(out) != s["stanton_m_max"]:
            return f"{len(out)} rows"
        first = out[0]
        if first.verdict != "VIOLATION" or first.properties.first_negative != (7, -1):
            return "m=1 is not the violation at q^7"
        for m, result in enumerate(out[1:], start=2):
            if result.verdict != "polynomial-nonnegative":
                return f"m={m} is {result.verdict}"
        return None

    @staticmethod
    def _check_lemma6(out, s):
        for K, M, variant, expr, p in out:
            coeffs = getattr(p, "coeffs", None)
            if coeffs is None or min(coeffs) < 0 or coeffs != coeffs[::-1]:
                return f"K={K} M={M} {variant.name} is not a nonnegative palindrome"
            degree = criteria.lemma6_degree(K, M)
            if variant is criteria.Lemma6Variant.VariantA and len(coeffs) - 1 != degree:
                return f"K={K} M={M} degree {len(coeffs) - 1}, expected {degree}"
            if len(coeffs) - 1 != expr.net_degree:
                return f"K={K} M={M} {variant.name} degree differs from the net degree"
            if 2 * criteria.lemma6_order_bound(K, M) <= degree:
                return f"K={K} M={M} order bound too small"
        return None

    @staticmethod
    def _check_corollary10(out, s):
        n = s["corollary10_n_max"]
        if out.violations or out.counts != {"examined": n, "polynomial": n, "violations": 0}:
            return f"counts {out.counts}"
        return None

    @staticmethod
    def _check_crosscheck(out, s):
        expected = _crosscheck_examined(s["crosscheck_n_max"])
        if out.violations or out.counts["violations"]:
            return f"{out.counts['violations']} disagreements"
        if out.counts["examined"] != expected:
            return f"examined {out.counts['examined']}, expected {expected}"
        return None

    def layer_extras(self, rep: Rep) -> dict:
        return {}


# ---------------------------------------------------------------------------
# check-cli


def _quotient_degree(n: int, k: int, l: int) -> int:
    # [l]![n-l]!/([k]![n-k]!) has degree T(l)+T(n-l)-T(k)-T(n-k), T(m)=m(m-1)/2
    return (k - l) * (n - k - l)


def normalize(n: int, k: int, l: int) -> "tuple[int, int, int]":
    k, l = min(k, n - k), min(l, n - l)
    return (n, k, l) if l <= k else (n, l, k)


def quotient_exponents(n: int, k: int, l: int) -> dict:
    """Cyclotomic exponents of [l]![n-l]!/([k]![n-k]!): [m]! holds C_d m//d times."""
    return {d: l // d + (n - l) // d - k // d - (n - k) // d for d in range(2, n + 1)}


def fake_gaussian_exponents(m: int, a) -> dict:
    """Cyclotomic exponents of prod_i ([m+i]/[i])^(a_i)."""
    top = m + len(a)
    return {
        d: sum(ai * (((m + i) % d == 0) - (i % d == 0)) for i, ai in enumerate(a, start=1))
        for d in range(2, top + 1)
    }


STANTON = (1, 3, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1)


#: Uniform draws behind each quotient spec of check-cli; see check_specs.
POOL = 50


def expansion_work(n: int, k: int, l: int) -> int:
    """Rough work of expanding a quotient spec: (k - l) times the degree for a
    polynomial, roughly what the linear kernels do; 0 for a quotient that
    is not a polynomial, which is never expanded."""
    n, k, l = normalize(n, k, l)
    if any(l // d + (n - l) // d < k // d + (n - k) // d for d in range(2, n + 1)):
        return 0
    return (k - l) * _quotient_degree(n, k, l)


def check_specs(seed: int, calls: int) -> list:
    """The seeded spec mix, as ("quotient", n, k, l) or ("fake", m, a) tuples.

    Nine calls in ten are quotient specs typed as a user may type them: n
    uniform in 1..150, k and l each uniform in 0..n, unnormalized.  Close
    to a quarter of these are polynomials (23% over seeds 0..29): Gaussian
    binomials of positive degree (k or l is 0 or n) 9%, constants (k = l)
    6%, other triples 8%.  The rest take the not-polynomial path.

    The few largest expansions set p99, so plain draws let it swing with the
    seed.  The quotient specs are therefore a stratified sample of the same
    distribution: POOL times as many triples are drawn, sorted by
    expansion_work, cut into blocks of POOL, and one triple is taken at
    random from each block.  Every spec keeps the uniform distribution
    above; the spread of expansion sizes is that of the larger draw.

    The tenth call is a symmetric fake-Gaussian product: one call in a
    hundred is Stanton's m = 1 product, so every seed takes the violation
    path, one in a hundred is Stanton's vector with m in 2..8, and the rest
    are random symmetric vectors.  The seed draws every spec and the call
    order.
    """
    rng = random.Random(seed)
    per_mille = max(1, calls // 100)
    specs = [("fake", 1, STANTON)] * per_mille
    specs += [("fake", rng.randint(2, 8), STANTON) for _ in range(per_mille)]
    for _ in range(calls // 10 - 2 * per_mille):
        s = rng.randint(0, 3)
        a, b, c = (rng.randint(0, 4) for _ in range(3))
        core = rng.choice(((a,), (a, a), (a, b, a), (a, b, c, b, a)))
        specs.append(("fake", rng.randint(max(1, s), s + 30), (0,) * s + core + (0,) * s))
    quotients = calls - len(specs)
    pool = []
    for _ in range(POOL * quotients):
        n = rng.randint(1, CHECK_N_MAX)
        pool.append((n, rng.randint(0, n), rng.randint(0, n)))
    pool.sort(key=lambda t: expansion_work(*t))  # stable: ties stay in draw order
    for block in range(quotients):
        specs.append(("quotient",) + pool[block * POOL + rng.randrange(POOL)])
    rng.shuffle(specs)
    return specs


def check_argv(spec) -> list:
    if spec[0] == "quotient":
        head = [str(x) for x in spec[1:]]
    else:
        head = ["--fake-gaussian", str(spec[1]), ",".join(map(str, spec[2]))]
    return ["check", *head, "--properties", "--expand", "--format", "json"]


def _unimodal(cs) -> bool:
    peak = 0
    while peak + 1 < len(cs) and cs[peak] <= cs[peak + 1]:
        peak += 1
    falls = all(cs[i] >= cs[i + 1] for i in range(peak, len(cs) - 1))
    return falls and (not cs or (cs[0] >= 0 and cs[-1] >= 0))


def recheck(spec, code, text: str, cyclotomics) -> "str | None":
    """Re-derive one check call's verdict by routes the CLI does not take."""
    doc = json.loads(text)
    (result,) = doc["results"]
    if spec[0] == "quotient":
        n, k, l = normalize(*spec[1:])
        want_spec = {"type": "quotient", "n": n, "k": k, "l": l}
        exponents = quotient_exponents(n, k, l)
        degree = _quotient_degree(n, k, l)
        value = Fraction(factorial(l) * factorial(n - l), factorial(k) * factorial(n - k))
        expr = qexpr.from_quotient_spec(qexpr.QuotientSpec(n, k, l))
    else:
        m, a = spec[1], spec[2]
        want_spec = {"type": "fake-gaussian", "m": m, "a": list(a),
                     "symmetric": tuple(a) == tuple(a)[::-1]}
        exponents = fake_gaussian_exponents(m, a)
        degree = sum(a) * m
        value = Fraction(1)
        for i, ai in enumerate(a, start=1):
            value *= Fraction(m + i, i) ** ai
        expr = qexpr.from_fake_gaussian(qexpr.FakeGaussianSpec(m, a))
    if result["normalized_spec"] != want_spec:
        return f"normalized spec {result['normalized_spec']}, expected {want_spec}"
    polynomial = min(exponents.values(), default=0) >= 0
    if result["is_polynomial"] != polynomial:
        return f"is_polynomial {result['is_polynomial']}, the profile says {polynomial}"
    if not polynomial:
        if result["verdict"] != "not-polynomial" or result["expansion"] is not None:
            return f"not a polynomial but the verdict is {result['verdict']}"
        expected_code = 0
    else:
        coeffs = result["expansion"]
        if not coeffs or len(coeffs) - 1 != degree or sum(coeffs) != value:
            return "expansion has the wrong degree or the wrong value at q=1"
        negative = next(((i, c) for i, c in enumerate(coeffs) if c < 0), None)
        verdict = "VIOLATION" if negative else "polynomial-nonnegative"
        if result["verdict"] != verdict:
            return f"verdict {result['verdict']}, the coefficients say {verdict}"
        props = result["properties"]
        want = {
            "nonnegative": negative is None,
            "first_negative": list(negative) if negative else None,
            "reciprocal": coeffs == coeffs[::-1],
            "unimodal": _unimodal(coeffs),
            "parity_unimodal": _unimodal(coeffs[0::2]) and _unimodal(coeffs[1::2]),
            "order": next(i for i, c in enumerate(coeffs) if c),
            "degree": degree,
        }
        if props != want:
            return f"properties {props}, recomputed {want}"
        if degree <= CYCLOTOMIC_RECHECK_DEGREE:
            via = qexpr.expand_via_cyclotomics(expr, cyclotomics)
            if list(via.coeffs) != coeffs:
                return "expansion differs from the cyclotomic product"
        expected_code = 3 if negative else 0
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    return None


def _canonical_call(code, text: str) -> str:
    doc = json.loads(text)
    for result in doc.get("results", ()):
        result.pop("elapsed_ms", None)
    return f"{code}\n{json.dumps(doc, sort_keys=True, separators=(',', ':'))}\n"


class CheckCli:
    name = "check-cli"
    #: One in-process operation per call: run.py takes each one's best time.
    BEST_OF_OPS = True
    #: A check is one call.
    CHECK_IS_OP = True

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.size = size
        self.seed = seed
        self.specs = check_specs(seed, SIZES[size]["check_calls"])
        self.argvs = [check_argv(spec) for spec in self.specs]
        self.first_digest = None

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        for argv in self.argvs[:20]:
            self._call(argv)

    def run_once(self, tracer=None) -> Rep:
        op_wall, op_cpu = [], []
        outputs = []
        errors = {}
        clock, cpu_clock = time.perf_counter, time.process_time
        start = clock()
        for i, argv in enumerate(self.argvs):
            began, cpu = clock(), cpu_clock()
            try:
                outputs.append(self._call(argv))
            except (Exception, SystemExit) as exc:  # argparse exits via SystemExit
                errors[i] = f"{' '.join(argv)} raised {exc!r}"
                outputs.append(None)
            op_wall.append(clock() - began)
            op_cpu.append(cpu_clock() - cpu)
        wall = clock() - start
        return Rep(wall, op_wall, op_cpu, len(self.argvs), len(self.argvs), errors, outputs)

    def check(self, rep: Rep) -> dict:
        failed = {}
        digest = hashlib.sha256()
        for i, out in enumerate(rep.outputs):
            if out is not None:
                digest.update(_canonical_call(*out).encode())
        digest = digest.hexdigest()
        if self.first_digest is None:
            # the first repetition is re-derived call by call
            self.first_digest = digest
            cyclotomics = qpoly.CyclotomicCache()
            for i, (spec, out) in enumerate(zip(self.specs, rep.outputs)):
                if out is None:
                    continue
                try:
                    problem = recheck(spec, out[0], out[1], cyclotomics)
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable output: {exc!r}"
                if problem:
                    failed[i] = f"{' '.join(self.argvs[i])}: {problem}"
            if self.seed == DEFAULT_SEED and digest != CHECK_DIGESTS.get(self.size):
                failed.setdefault(-1, f"outputs digest {digest} differs from the pinned one")
        elif digest != self.first_digest:
            failed[-1] = "outputs differ from the first repetition"
        return failed

    def layer_extras(self, rep: Rep) -> dict:
        codes = [out[0] for out in rep.outputs if out is not None]
        return {
            "cli.out_bytes": sum(len(out[1].encode()) for out in rep.outputs if out),
            "cli.exit_codes.0": codes.count(0),
            "cli.exit_codes.2": codes.count(2),
            "cli.exit_codes.3": codes.count(3),
        }


WORKLOADS = {cls.name: cls for cls in (SweepConjecture1, Reproduce, CheckCli)}
