"""Named verification suites: every identity in the catalog is checked
exactly, and when oracle moduli are configured a suite also re-verifies
its content numerically in clock-and-shift representations.

Six suites are rows of one table, :data:`CATALOG`, read by one runner,
:func:`run_catalog`.  A row names a built-in realization and relation
families of ``monodromy.family_records``: each record of the families
gives one exact record, '<realization>-<record>', and the row's oracle
entry, if any, one oracle record per modulus over the same families.  Two
records come from no family: ``ybe-8x8``, a zero test of its own
(:data:`LONE_RECORDS`), and ``an4-nelson-regge-0123``, a row's part: the
defects of its full Nelson-Regge record over the indices 0..3.  The other
three suites have runners of their own.

A run computes each shared input once: its :class:`RunStore`, made with
its :class:`RunConfig`, builds each built-in realization on first use and
keeps each realization's numeric source and each relation family's numeric
pairs per realization and modulus, so a suite reads what an earlier suite
of the same run has computed.
Nothing is cached at module level: two runs in one process share nothing.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import compress

from .fatgraph import load_graph, spine_graph_an
from .flips import CLASSICAL_FLIP_IDENTITIES, classical_identity_witness
from .monodromy import (
    an_realization,
    catalog_defects,
    element_is_zero,
    nelson_regge_supports,
    pvi_realization,
    yang_baxter_defect,
)
from .reports import IdentityReport, witness_digest


MAX_SAMPLES = 100_000  # flips-classical peaks near 68 MB resident at this bound

# the parameter values of every oracle record
_ORACLE_PARAMS = {"omega0": 0.47, "omega1": 0.83, "omega2": 1.21}


class RunStore:
    """What one run computes once and then reads: the built-in realizations
    by name ('an<n>' or 'pvi'), the numeric source of each realization at
    each modulus (``oracle.numeric_realization``), keyed by (realization,
    modulus), and the numeric pairs of each relation family, keyed by
    (realization, modulus, family).  A pair keeps only the 2x2 forms of its
    sides.  A source holds its compiled word passes, a gather index and a
    phase column of twice the representation's dimension per edge (about
    2.7 MB for an4 at modulus 13), for the rest of the run."""

    def __init__(self):
        self.realizations = {}
        self.sources = {}
        self.pairs = {}

    def realization(self, name):
        real = self.realizations.get(name)
        if real is None:
            real = pvi_realization() if name == "pvi" else an_realization(int(name[2:]))
            self.realizations[name] = real
        return real


class RunConfig:
    """Suite selection plus oracle and sampling knobs, and the run's
    :class:`RunStore`: one config is one run."""

    def __init__(
        self,
        suites=(),
        graphs=(),
        oracle_moduli=(5, 7),
        samples=1000,
        seed=20240229,
    ):
        self.suites = tuple(suites)
        self.graphs = tuple(graphs)
        self.oracle_moduli = tuple(int(m) for m in oracle_moduli)
        self.samples = int(samples)
        self.seed = int(seed)
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}; known: {sorted(SUITES)}")
        if self.graphs and "graph-validate" not in self.suites:
            raise ValueError(f"graphs {list(self.graphs)} are read only by the graph-validate suite")
        for what, values in (
            ("suites", self.suites), ("graphs", self.graphs), ("oracle moduli", self.oracle_moduli)
        ):
            # each would give its records twice, under the same ids
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {what}: {list(values)}")
        for m in self.oracle_moduli:
            # the an4 oracle holds a few probe blocks of dimension m**3,
            # which bounds its memory and time only while m does
            if m < 3 or m % 2 == 0 or m > 13:
                raise ValueError(f"oracle modulus {m} must be an odd integer from 3 to 13")
        if not self.oracle_moduli:
            raise ValueError("need at least one oracle modulus")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples {self.samples} must be an integer from 1 to {MAX_SAMPLES}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be a non-negative integer")
        self.store = RunStore()


def _defect_report(ident, anchor, defects):
    witness = None
    for label, el in defects:
        if not element_is_zero(el):
            witness = f"{label}: {witness_digest(el)}"
            break
    return IdentityReport(ident, anchor, witness is None, witness, {"checks": len(defects)})


def _bool_report(ident, anchor, ok, witness=None):
    return IdentityReport(ident, anchor, bool(ok), None if ok else (witness or "failed"))


def _value_report(ident, anchor, key, value, ok, what):
    """A float check's record: ``{key: value}`` as its extras and, when it
    fails, ``what value`` as its witness."""
    return IdentityReport(ident, anchor, ok, None if ok else f"{what} {value}", {key: value})


def _numeric_pairs(real, config, families):
    """For each oracle modulus, in order, (modulus, pairs): the numeric
    pairs of the named relation families of ``real`` in the clock-and-shift
    representation at that modulus.  A family this run has read before
    comes from the run's store; the others come off the run's one numeric
    source of ``real`` at that modulus, made by the first suite that needs
    it, one family at a time, in one split of its forms
    (``oracle.relation_forms``).  A pair keeps the 2x2 forms of its sides."""
    from . import oracle

    store = config.store
    for modulus in config.oracle_moduli:
        missing = [f for f in families if (real, modulus, f) not in store.pairs]
        if missing:
            src = store.sources.get((real, modulus))
            if src is None:
                rep = oracle.ClockShiftRep(real.form, modulus, seed=config.seed)
                src = store.sources[real, modulus] = oracle.numeric_realization(rep, real, _ORACLE_PARAMS)
            for family in missing:
                store.pairs[real, modulus, family] = oracle.numeric_relation_pairs(src, (family,))
        yield modulus, [pair for family in families for pair in store.pairs[real, modulus, family]]


def _numeric_reports(prefix, anchor, real, config, families):
    """One oracle record per modulus, re-checking the relation families
    that the suite's exact records use."""
    from . import oracle

    out = []
    for modulus, pairs in _numeric_pairs(real, config, families):
        norms = oracle.numeric_pair_norms(pairs)
        bad = [lbl for lbl, n in norms if not n <= 1e-9]  # a NaN norm fails too
        witness = f"norms above 1e-9: {bad[:5]}" if bad else None
        extras = {"pairs": len(norms), "max_norm": oracle.worst_norm([n for _, n in norms])}
        out.append(IdentityReport(f"{prefix}-oracle-N{modulus}", anchor, not bad, witness, extras))
    return out


# -- suite runners ----------------------------------------------------------


def run_flips_classical(config):
    from . import oracle

    reports = []
    for ident in CLASSICAL_FLIP_IDENTITIES:
        witness = classical_identity_witness(ident)
        anchor = "flip matrix identities over the commutative torus"
        reports.append(IdentityReport(f"classical-{ident}", anchor, witness is None, witness))
        dev = oracle.numeric_identity_deviation(ident, config.samples, config.seed)
        anchor = "same identity at random real shears"
        ok = dev < 1e-10
        reports.append(
            _value_report(f"classical-{ident}-numeric", anchor, "max_deviation", dev, ok, "max deviation")
        )
    g3 = spine_graph_an(3)
    g4 = spine_graph_an(4)
    moves, traces, seed = min(config.samples, 1000), min(config.samples, 200), config.seed
    anchor = "numeric classical consistency"
    for name, dev, tol in (
        ("flip-involution", oracle.flip_involution_deviation(g3, "X1", moves, seed), 1e-12),
        ("pending-involution", oracle.pending_flip_involution_deviation(g3, "S", moves, seed), 1e-12),
        ("pentagon", oracle.pentagon_deviation(g4, "X1", "X2", traces, seed), 1e-10),
        ("hole-boundary-trace", oracle.boundary_trace_deviation(g3, traces, seed), 1e-10),
    ):
        ok = dev < tol
        reports.append(_value_report(f"classical-{name}", anchor, "max_deviation", dev, ok, "deviation"))
    traced, signed = oracle.random_closed_words(g4, (25, 15), seed)
    low = oracle.closed_trace_minimum(g4, traced, traces, seed)
    anchor = "closed geodesic traces stay at or above two"
    ok = low >= 2.0 - 1e-9
    reports.append(_value_report("classical-closed-traces", anchor, "min_trace", low, ok, "minimum trace"))
    viol = oracle.sign_structure_violation(g4, signed, min(config.samples, 50), seed)
    anchor = "block products keep the alternating sign pattern"
    ok = viol < 1e-12
    reports.append(_value_report("classical-sign-structure", anchor, "max_violation", viol, ok, "violation"))
    return reports


def run_graph_validate(config):
    if config.graphs:
        anchor = "graph file validation incl. 6g-6+3s+2r edge count"
        cases = [(f"graph-{path}", anchor, partial(load_graph, path)) for path in config.graphs]
    else:
        anchor = "structural validation incl. 6g-6+3s+2r edge count"
        cases = [(f"builtin-an{n}-valid", anchor, partial(spine_graph_an, n)) for n in (2, 3, 4)]
    reports = []
    for ident, anchor, build in cases:
        try:
            problems = build().validate()
        except (ValueError, OSError) as exc:
            reports.append(_bool_report(ident, "graph file validation", False, witness=str(exc)))
        else:
            reports.append(_bool_report(ident, anchor, not problems, witness="; ".join(problems)))
    return reports


def run_oracle_soundness(config):
    from . import oracle

    reports = []
    real = config.store.realization("an3")
    for modulus, pairs in _numeric_pairs(real, config, ("entry", "cross", "reflection")):
        caught = oracle.mutation_check(pairs, oracle.root_of_unity(modulus), config.seed)
        witness = None if all(caught) else f"missed {caught.count(False)}"
        extras = {"caught": sum(caught), "total": len(caught)}
        anchor = "50 deliberately broken identities are all caught"
        reports.append(IdentityReport(f"mutations-N{modulus}", anchor, all(caught), witness, extras))
    return reports


# -- the catalog suites -----------------------------------------------------

# A row of a catalog suite: ``oracle`` is a (record prefix, anchor),
# ``anchor`` stands for the anchors of the families, and ``part`` is a
# (record, anchor, indices) read off the row's one record.
Row = namedtuple("Row", "realization families oracle anchor part", defaults=(None, None, None))

CATALOG = {
    "an-core": tuple(
        Row(f"an{n}", ("entry", "cross"), (f"an{n}-core", "numeric re-check of the entry algebra"))
        for n in (3, 4)
    ),
    "an-nelson-regge": (
        Row("an4", ("nelson-regge",), ("an4-nr", "numeric re-check of the geodesic function algebra"),
            part=("nelson-regge-0123", "geodesic function algebra over indices 0..3", range(4))),
        Row("an4", ("hermitian",)),
    ),
    "an-rmatrix": (
        Row("an3", ("reflection",), ("an3-rmatrix", "numeric reflection equations")),
        Row("an4", ("reflection",)),
        Row("pvi", ("reflection",), anchor="four-point monodromies satisfy the same reflection equation"),
    ),
    "an-braid": (Row("an3", ("braid",)), Row("an4", ("braid",))),
    "pvi": (Row("pvi", ("pvi", "hermitian"), ("pvi", "numeric re-check of the four-point algebra")),),
    "flips-quantum": tuple(Row(f"an{n}", ("flip",)) for n in (2, 3, 4)),
}

# the catalog records that no family yields, per suite: (id, anchor, defect)
LONE_RECORDS = {
    "an-rmatrix": (("ybe-8x8", "quantum Yang-Baxter equation on three tensor legs", yang_baxter_defect),),
}


def run_catalog(suite, config):
    """The records of one suite of :data:`CATALOG`."""
    lone = LONE_RECORDS.get(suite, ())
    reports = [_bool_report(ident, anchor, defect().is_zero()) for ident, anchor, defect in lone]
    for row in CATALOG[suite]:
        real = config.store.realization(row.realization)
        records = catalog_defects(real, row.families)
        if row.part:
            record, anchor, indices = row.part
            [(_, _, full)] = records
            inside = [set(ix) <= set(indices) for ix in nelson_regge_supports(range(real.n + 1))]
            records.append((record, anchor, list(compress(full, inside))))
        for record, anchor, defects in records:
            reports.append(_defect_report(f"{row.realization}-{record}", row.anchor or anchor, defects))
        if row.oracle:
            reports += _numeric_reports(*row.oracle, real, config, row.families)
    return reports


SUITES = {
    "an-core": ("entry algebra and M^2 = -E on the order-2 chains", partial(run_catalog, "an-core")),
    "an-nelson-regge": (
        "geodesic function algebra (disjoint/nested/crossing/adjacent)",
        partial(run_catalog, "an-nelson-regge"),
    ),
    "an-rmatrix": ("R-matrix form: Yang-Baxter and reflection equations", partial(run_catalog, "an-rmatrix")),
    "an-braid": ("braid group action, determinants and invariants", partial(run_catalog, "an-braid")),
    "pvi": ("four-point sphere: deformed algebra, K elements, AW(3)", partial(run_catalog, "pvi")),
    "flips-classical": ("classical flip identities, pentagon, trace positivity", run_flips_classical),
    "flips-quantum": ("quantum substitutions and mutation invariance", partial(run_catalog, "flips-quantum")),
    "graph-validate": ("structural validation of graph files", run_graph_validate),
    "oracle-soundness": ("mutation testing of the numeric oracle", run_oracle_soundness),
}


def list_suites():
    return "\n".join(f"{name:18s} {SUITES[name][0]}" for name in sorted(SUITES))


def run_suite(name, config):
    """The suite's reports sorted by id.  An exception in its runner becomes
    one error record, so that the suites after it still run."""
    anchor, runner = SUITES[name]
    try:
        reports = runner(config)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        return [IdentityReport(f"{name}-error", anchor, None, f"{type(exc).__name__}: {exc}")]
    return sorted(reports, key=lambda r: r.ident)
