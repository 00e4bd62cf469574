"""Per-layer tracing of qshear from outside the package.

The tracer wraps public functions and methods of the qshear layers, records
a span (name, start, end, parent, pass id) at every wrapped boundary and
keeps the spans in memory.  Calls to the hottest leaves (``Coefficient``
arithmetic) are aggregated per parent span instead of recorded one by one.
Per-layer self time is computed afterwards from the span tree: a span's
duration minus the time its child spans and aggregated leaves cover.

Everything runs on one thread, so no layer ever waits for another and no
wait time is recorded.

Which end-to-end metric each layer should move, and on which workload:

    coeffs.mul, coeffs.add             pass_s on exact-catalog
    coeffs.evaluate                    pass_s on classical-sampling
    torus.mul (incl. terms_out)        pass_s on exact-catalog
    ore.zero_test, ore.mul             pass_s and failed verdicts on exact-catalog
    matrices.mul                       pass_s on exact-catalog
    fatgraph.compile_path              pass_s on every workload, a little
    monodromy.*                        pass_s and failed verdicts on exact-catalog
    flips.apply_substitution           pass_s on exact-catalog
    flips.classical_exact              pass_s on classical-sampling
    oracle.rep_build .. mutation_check pass_s and peak_rss_mb on oracle-catalog
    oracle.classical                   pass_s on classical-sampling
    suites, cli, reports               glue and JSON output on every workload
"""

from __future__ import annotations

import functools
import re
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

# (layer metric prefix, module, class or None, attribute names, leaf)
# A name list of None means "every *_defect(s) builder the module defines".
LAYERS = (
    ("coeffs.mul", "qshear.coeffs", "Coefficient", ("mul",), True),
    ("coeffs.add", "qshear.coeffs", "Coefficient", ("__add__",), True),
    ("coeffs.evaluate", "qshear.coeffs", "Coefficient", ("evaluate",), True),
    ("torus.mul", "qshear.torus", "TorusElement", ("mul",), False),
    ("ore.zero_test", "qshear.ore", None, ("ore_zero_test",), False),
    ("ore.mul", "qshear.ore", "OreElement", ("mul",), False),
    ("matrices.mul", "qshear.matrices", "AlgMatrix", ("mul",), False),
    ("fatgraph.compile_path", "qshear.fatgraph", None, ("compile_path",), False),
    (
        "monodromy.realization",
        "qshear.monodromy",
        None,
        ("an_realization", "pvi_realization", "build_monodromy"),
        False,
    ),
    ("monodromy.defects", "qshear.monodromy", None, None, False),
    ("monodromy.defects", "qshear.flips", None, None, False),
    ("monodromy.element_is_zero", "qshear.monodromy", None, ("element_is_zero",), False),
    ("flips.apply_substitution", "qshear.flips", None, ("apply_substitution",), False),
    (
        "flips.classical_exact",
        "qshear.flips",
        None,
        ("verify_flip_matrix_identity_classical", "classical_identity_sides"),
        False,
    ),
    ("oracle.rep_build", "qshear.oracle", "ClockShiftRep", ("__init__",), False),
    ("oracle.image", "qshear.oracle", "ClockShiftRep", ("image",), False),
    ("oracle.numeric_realization", "qshear.oracle", None, ("numeric_realization",), False),
    ("oracle.word_value", "qshear.oracle", None, ("rep_word_value",), False),
    (
        "oracle.pairs",
        "qshear.oracle",
        None,
        ("numeric_relation_pairs", "numeric_reflection_pairs", "numeric_pvi_pairs"),
        False,
    ),
    ("oracle.norms", "qshear.oracle", None, ("numeric_pair_norms",), False),
    ("oracle.mutation_check", "qshear.oracle", None, ("mutation_check",), False),
    (
        "oracle.classical",
        "qshear.oracle",
        None,
        (
            "numeric_identity_deviation",
            "flip_involution_deviation",
            "pending_flip_involution_deviation",
            "pentagon_deviation",
            "boundary_trace_deviation",
            "closed_trace_minimum",
            "sign_structure_violation",
        ),
        False,
    ),
    ("reports.witness_digest", "qshear.reports", None, ("witness_digest",), False),
    ("suites.run_suite", "qshear.suites", None, ("run_suite",), False),
    ("cli.main", "qshear.cli", None, ("main",), False),
)

_DEFECT_BUILDER = re.compile(r"[a-z0-9_]+_defects?")


def patch_everywhere(module_name, attr, replacement):
    """Replace a qshear function in its module and in every qshear module
    that imported it by name.  Returns a list of (module, name, original)
    for :func:`restore`."""
    original = getattr(sys.modules[module_name], attr)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qshear" or name.startswith("qshear.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def restore(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Tracer:
    """Span recorder for one benchmark process; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (pass, parent, name) -> [calls, s]
        self.counters = defaultdict(float)  # (pass, counter) -> value
        self.maxima = defaultdict(float)  # (pass, name) -> value
        self.pass_id = 0
        self.missing = []
        self._stack = []
        self._in_leaf = False
        self._rep_serial = {}
        self._reps_built = 0
        self._images_seen = set()
        self._undo = []

    # -- installing wrappers --------------------------------------------

    def install(self):
        for layer, module_name, cls_name, attrs, leaf in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(module_name)
                continue
            if attrs is None:
                attrs = sorted(
                    key
                    for key, value in vars(module).items()
                    if _DEFECT_BUILDER.fullmatch(key)
                    and getattr(value, "__module__", None) == module_name
                )
            for attr in attrs:
                owner = getattr(module, cls_name) if cls_name else module
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{cls_name or ''}.{attr}")
                    continue
                wrapper = self._wrap(layer, fn, leaf, _OBSERVERS.get(layer))
                if cls_name:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, fn))
                else:
                    self._undo.extend(patch_everywhere(module_name, attr, wrapper))

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def _wrap(self, layer, fn, leaf, observe):
        tracer = self

        if leaf:

            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                if tracer._in_leaf:
                    return fn(*args, **kwargs)
                tracer._in_leaf = True
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    tracer._in_leaf = False
                    parent = tracer._stack[-1] if tracer._stack else -1
                    acc = tracer.leaves[(tracer.pass_id, parent, layer)]
                    acc[0] += 1
                    acc[1] += elapsed

            return leaf_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return span_wrapper

    # -- counters -------------------------------------------------------

    def count(self, name, value=1):
        self.counters[(self.pass_id, name)] += value

    def peak(self, name, value):
        key = (self.pass_id, name)
        self.maxima[key] = max(self.maxima[key], value)

    # -- analysis ---------------------------------------------------------

    def pass_layers(self, pass_id, wall):
        """Calls, self seconds, counters and maxima of one traced pass,
        plus the accounting of its wall time against the layers."""
        covered = defaultdict(float)  # span index -> child time
        calls = defaultdict(int)
        self_s = defaultdict(float)
        roots = 0.0
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                roots += end - start
        for (pid, parent, name), (n, seconds) in self.leaves.items():
            if pid != pass_id:
                continue
            calls[name] += n
            self_s[name] += seconds
            if parent >= 0:
                covered[parent] += seconds
            else:
                roots += seconds
        for i, (name, start, end, _, _) in spans:
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        remainder = wall - roots
        total_self = sum(self_s.values())
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": {k: v for (pid, k), v in self.counters.items() if pid == pass_id},
            "maxima": {k: v for (pid, k), v in self.maxima.items() if pid == pass_id},
            "spans": len(spans),
            "wall": wall,
            "unattributed": remainder,
            "accounting_error": abs(total_self + remainder - wall),
            "min_self": min(self_s.values(), default=0.0),
        }


def _observe_torus_mul(tracer, args, result):
    tracer.count("torus.mul.terms_out", len(result.terms))


def _observe_is_zero(tracer, args, result):
    if not result:
        tracer.count("monodromy.element_is_zero.nonzero")


def _observe_rep_build(tracer, args, result):
    rep = args[0]
    # ids are reused only after a representation is freed, so a fresh
    # serial keeps image statistics per representation
    tracer._reps_built += 1
    tracer._rep_serial[id(rep)] = tracer._reps_built
    tracer.peak("oracle.rep_dim.max", rep.dim)
    tracer.peak("oracle.dense_bytes.max", 16 * rep.dim * rep.dim)


def _observe_image(tracer, args, result):
    rep, du = args[0], tuple(args[1])
    key = (tracer._rep_serial.get(id(rep)), du)
    if key not in tracer._images_seen:
        tracer._images_seen.add(key)
        tracer.count("oracle.image.distinct")


_OBSERVERS = {
    "torus.mul": _observe_torus_mul,
    "monodromy.element_is_zero": _observe_is_zero,
    "oracle.rep_build": _observe_rep_build,
    "oracle.image": _observe_image,
}


def layer_metrics(passes):
    """Per-layer metrics as {name: (value, unit)}: the median over the
    traced passes of each pass's figures (see BENCHMARK.json)."""
    rows = defaultdict(list)
    for p in passes:
        calls, self_s, counters, maxima = p["calls"], p["self_s"], p["counters"], p["maxima"]
        for layer in sorted({row[0] for row in LAYERS}):
            rows[f"{layer}.calls"].append((calls.get(layer, 0), "count"))
            rows[f"{layer}.self_s"].append((self_s.get(layer, 0.0), "s"))
        rows["torus.mul.terms_out"].append((counters.get("torus.mul.terms_out", 0), "count"))
        rows["monodromy.element_is_zero.nonzero"].append(
            (counters.get("monodromy.element_is_zero.nonzero", 0), "count")
        )
        rows["cli.report_bytes"].append((counters.get("cli.report_bytes", 0), "bytes"))
        image_calls = calls.get("oracle.image", 0)
        hit = 1.0 - counters.get("oracle.image.distinct", 0) / image_calls if image_calls else 0.0
        rows["oracle.image.hit_ratio"].append((hit, "ratio"))
        rows["oracle.rep_dim.max"].append((maxima.get("oracle.rep_dim.max", 0), "count"))
        rows["oracle.dense_bytes.max"].append(
            (maxima.get("oracle.dense_bytes.max", 0), "bytes-computed")
        )
        rows["trace.spans"].append((p["spans"], "count"))
        rows["trace.unattributed_share"].append((p["unattributed"] / p["wall"], "ratio"))
    return {name: (median(v for v, _ in vals), vals[0][1]) for name, vals in rows.items()}
