"""Per-layer tracing of qpositivity, done entirely from outside the package.

Tracing rebinds names in the module that calls them: ``qexpr`` calls the
linear kernels through its own imports, ``harness`` calls ``expand`` and
the analysis functions through its imports, and so on.  Each wrapper
records a span (id, name, start, end, parent) in memory; self time is a
span's duration minus the part of it that its child spans cover.  Nothing
in ``src/`` is modified, and a name that a later version of the package no
longer has is skipped, so its metrics read zero instead of failing.

Sweep units run in pool workers.  The unit function is wrapped so that
each unit returns its own spans and counters beside its result, and the
wrapper around the ordered merge strips them off again; the sweep itself
sees its usual results.  Worker processes inherit the installed wrappers
when the pool forks; a worker that starts fresh installs its own.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

#: (module, attribute, span name) for every plain span wrapper.
SPAN_TARGETS = (
    ("qexpr", "_mul_one_minus_qm_list", "qpoly.mul_linear"),
    ("qexpr", "_div_one_minus_qk_list", "qpoly.div_linear"),
    ("qexpr", "poly_mul", "qpoly.poly_mul"),
    ("harness", "poly_mul", "qpoly.poly_mul"),
    ("qexpr", "expand", "qexpr.expand"),
    ("harness", "expand", "qexpr.expand"),
    ("cli", "expand", "qexpr.expand"),
    ("criteria", "expand", "qexpr.expand"),
    ("harness", "is_polynomial", "qexpr.is_polynomial"),
    ("harness", "from_quotient_spec", "qexpr.build"),
    ("harness", "from_fake_gaussian", "qexpr.build"),
    ("harness", "from_factorials", "qexpr.build"),
    ("criteria", "from_factorials", "qexpr.build"),
    ("harness", "_polynomial_ls", "harness.profile_ls"),
    ("harness", "_write_checkpoint", "harness.checkpoint"),
    ("harness", "verify_quotient", "harness.verify"),
    ("harness", "verify_fake_gaussian", "harness.verify"),
    ("cli", "verify_quotient", "harness.verify"),
    ("cli", "verify_fake_gaussian", "harness.verify"),
    ("harness", "nonnegativity", "analysis.nonnegativity"),
    ("harness", "property_record", "analysis.property_record"),
    ("harness", "thm8_is_polynomial", "criteria.thm8_is_polynomial"),
    ("harness", "thm9_is_polynomial", "criteria.thm9_is_polynomial"),
    ("harness", "corollary10_expression", "criteria.corollary10_expression"),
    ("cli", "lemma6_expression", "criteria.lemma6_expression"),
    ("cli", "lemma6_degree", "criteria.lemma6_degree"),
    ("cli", "lemma6_order_bound", "criteria.lemma6_order_bound"),
    ("criteria", "lemma6_expression", "criteria.lemma6_expression"),
    ("criteria", "lemma6_degree", "criteria.lemma6_degree"),
    ("criteria", "lemma6_order_bound", "criteria.lemma6_order_bound"),
    ("cli", "main", "cli.main"),
)

#: (module, attribute, counter) for wrappers that only count calls; these
#: run a million times per sweep, so a span each would swamp the trace.
COUNT_TARGETS = (("qexpr", "_divisors", "qexpr.divisors.calls"),)

#: Spans holding the tracer's own bookkeeping after a call returns.  Self
#: time subtracts them from the enclosing layer like any other child.
BOOKKEEPING = "trace.bookkeeping"

_OBSERVED = frozenset(
    ("qpoly.mul_linear", "qpoly.div_linear", "qpoly.poly_mul", "qexpr.expand",
     "qexpr.is_polynomial", "harness.checkpoint")
)

# The tracer of this process.  Pool workers reach it through this global:
# the unit wrapper has to be a picklable module-level function, and a forked
# worker inherits the parent's wrappers, which record into this tracer.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Spans and counters of one process, plus the originals to restore."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.pool_phases: list = []
        self.pid = os.getpid()
        self._next = 0
        self._saved: list = []

    def new_id(self) -> "tuple[int, int]":
        self._next += 1
        return (self.pid, self._next)

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span; used for the benchmark's own stages."""
        return _span_wrapper(self, name, fn)(*args)


def _coeff_bits(coeffs) -> int:
    if not coeffs:
        return 0
    return max(max(coeffs), -min(coeffs)).bit_length()


def _observe(counts: Counter, name: str, args, result) -> None:
    """Counters worked out from a call's operands and result."""
    if name == "qpoly.mul_linear":
        counts["qpoly.mul_linear.coeffs"] += len(args[0])
    elif name == "qpoly.div_linear":
        counts["qpoly.div_linear.coeffs"] += len(args[0])
        counts["qpoly.div_linear.refused"] += result is None
    elif name == "qpoly.poly_mul":
        ca, cb = args[0].coeffs, args[1].coeffs
        # the schoolbook loop skips the zero entries of its first operand
        counts["qpoly.poly_mul.macs"] += (len(ca) - ca.count(0)) * len(cb)
        bits = _coeff_bits(result.coeffs)
        counts["qpoly.max_coeff_bits"] = max(counts["qpoly.max_coeff_bits"], bits)
    elif name == "qexpr.expand":
        coeffs = getattr(result, "coeffs", None)
        if coeffs is None:
            counts["qexpr.expand.not_divisible"] += 1
        else:
            bits = _coeff_bits(coeffs)
            counts["qpoly.max_coeff_bits"] = max(counts["qpoly.max_coeff_bits"], bits)
    elif name == "qexpr.is_polynomial":
        counts["qexpr.is_polynomial.true"] += bool(result)
    elif name == "harness.checkpoint":
        try:
            counts["harness.checkpoint.bytes"] += os.path.getsize(args[0])
        except OSError:
            pass


def _span_wrapper(tracer: Tracer, name: str, fn):
    observed = name in _OBSERVED
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        stack = tracer.stack
        parent = stack[-1] if stack else None
        sid = tracer.new_id()
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            tracer.spans.append((sid, name, start, end, parent))
        if observed:
            _observe(tracer.counts, name, args, result)
            tracer.spans.append((tracer.new_id(), BOOKKEEPING, end, clock(), parent))
        return result

    return wrapped


def _count_wrapper(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapped


def _traced_unit(fn, unit):
    """Run one sweep unit; return (result, spans, counters) of that unit."""
    tracer = _ACTIVE
    if tracer is None:  # a worker that did not inherit the parent's wrappers
        tracer = install(Tracer())
    tracer.pid = os.getpid()
    saved = tracer.spans, tracer.stack, tracer.counts
    tracer.spans, tracer.stack, tracer.counts = [], [], Counter()
    sid = tracer.new_id()
    tracer.stack.append(sid)
    start = time.perf_counter()
    try:
        result = fn(unit)
    finally:
        end = time.perf_counter()
        spans, counts = tracer.spans, tracer.counts
        tracer.spans, tracer.stack, tracer.counts = saved
    spans.append((sid, "harness.unit", start, end, None))
    return result, spans, counts


def _merge_counts(into: Counter, counts: Counter) -> None:
    """Add a unit's counters; a maximum is merged as a maximum."""
    for key, value in counts.items():
        if key == "qpoly.max_coeff_bits":
            into[key] = max(into[key], value)
        else:
            into[key] += value


def _execute_units_wrapper(tracer: Tracer, _name, original):
    """Wrap the ordered merge: each unit's spans come back with its result."""

    @functools.wraps(original)
    def wrapped(units, fn, workers):
        results = original(units, functools.partial(_traced_unit, fn), workers)
        phase_start = time.perf_counter()
        wait = 0.0
        while True:
            asked = time.perf_counter()
            try:
                result, spans, counts = next(results)
            except StopIteration:
                break
            wait += time.perf_counter() - asked
            tracer.spans.extend(spans)
            _merge_counts(tracer.counts, counts)
            yield result
        tracer.pool_phases.append(
            {"start": phase_start, "end": time.perf_counter(),
             "workers": max(int(workers), 1), "wait_s": wait}
        )

    return wrapped


def install(tracer: Tracer) -> Tracer:
    """Rebind every traced name that exists; uninstall() restores them."""
    global _ACTIVE
    targets = [(t, _span_wrapper) for t in SPAN_TARGETS]
    targets += [(t, _count_wrapper) for t in COUNT_TARGETS]
    targets.append((("harness", "_execute_units", None), _execute_units_wrapper))
    for (module_name, attr, name), wrap in targets:
        module = importlib.import_module(f"qpositivity.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            continue
        tracer._saved.append((module, attr, original))
        setattr(module, attr, wrap(tracer, name, original))
    _ACTIVE = tracer
    return tracer


def uninstall(tracer: Tracer) -> None:
    global _ACTIVE
    for module, attr, original in reversed(tracer._saved):
        setattr(module, attr, original)
    tracer._saved.clear()
    _ACTIVE = None


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _name, start, end, _parent in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        result[sid] = (end - start) - covered
    return result


def _within(spans, selfs: dict, stage: str, layer: str) -> float:
    """Self time of layer spans that descend from a stage span."""
    name_of = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    total = 0.0
    for sid, name, _start, _end, parent in spans:
        if name != layer:
            continue
        while parent is not None and name_of.get(parent) != stage:
            parent = parent_of.get(parent)
        if parent is not None:
            total += selfs[sid]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, extra: "dict | None" = None) -> dict:
    """Per-layer metrics of one traced repetition that took wall_s."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for sid, name, start, end, _parent in spans:
        group = "criteria" if name.startswith("criteria.") else name
        calls[group] += 1
        total[group] += end - start
        own[group] += selfs[sid]
    counts = tracer.counts
    m: dict = {}
    for layer in ("qpoly.mul_linear", "qpoly.div_linear", "qpoly.poly_mul", "qexpr.expand",
                  "qexpr.is_polynomial", "qexpr.build", "harness.profile_ls",
                  "harness.checkpoint", "harness.verify", "analysis.nonnegativity",
                  "analysis.property_record", "criteria", "cli.main"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = own[layer]
    m["harness.checkpoint.writes"] = m.pop("harness.checkpoint.calls")
    for counter in ("qpoly.mul_linear.coeffs", "qpoly.div_linear.coeffs",
                    "qpoly.div_linear.refused", "qpoly.poly_mul.macs",
                    "qpoly.max_coeff_bits", "qexpr.expand.not_divisible",
                    "qexpr.divisors.calls", "harness.checkpoint.bytes"):
        m[counter] = counts[counter]
    m["qpoly.poly_mul.macs_per_s"] = _ratio(counts["qpoly.poly_mul.macs"],
                                            own["qpoly.poly_mul"])
    m["qexpr.expand.total_s"] = total["qexpr.expand"]
    m["qexpr.is_polynomial.true_ratio"] = _ratio(counts["qexpr.is_polynomial.true"],
                                                 calls["qexpr.is_polynomial"])

    units = [s for s in spans if s[1] == "harness.unit"]
    busy = sum(end - start for _sid, _n, start, end, _p in units)
    m["harness.unit.count"] = len(units)
    m["harness.unit.busy_s"] = busy
    m["harness.unit.max_s"] = max((end - start for _s, _n, start, end, _p in units),
                                  default=0.0)
    capacity = 0.0
    tail_idle = 0.0
    wait = 0.0
    for phase in tracer.pool_phases:
        capacity += (phase["end"] - phase["start"]) * phase["workers"]
        wait += phase["wait_s"]
        last_end: dict = {}
        for (pid, _n), _name, start, end, _p in units:
            if phase["start"] <= start <= phase["end"]:
                last_end[pid] = max(last_end.get(pid, start), end)
        tail_idle += sum(phase["end"] - end for end in last_end.values())
    m["harness.merge.wait_s"] = wait
    m["harness.pool.util"] = _ratio(busy, capacity)
    m["harness.tail_idle_s"] = tail_idle

    # shares of the work: the units' busy time where a sweep ran, else the wall
    work = busy or wall_s
    m["qexpr.expand.share"] = _ratio(total["qexpr.expand"], work)
    m["qpoly.linear.share"] = _ratio(own["qpoly.mul_linear"] + own["qpoly.div_linear"], work)
    m["qpoly.poly_mul.share"] = _ratio(own["qpoly.poly_mul"], work)
    m["bench.corollary10_s"] = total["bench.corollary10"]
    m["qpoly.poly_mul.corollary10_share"] = _ratio(
        _within(spans, selfs, "bench.corollary10", "qpoly.poly_mul"),
        total["bench.corollary10"],
    )
    m["trace.spans"] = len(spans)
    m["trace.bookkeeping_s"] = total[BOOKKEEPING]
    m.update(extra or {})
    return m
