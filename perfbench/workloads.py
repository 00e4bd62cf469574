"""The benchmark's workloads and one pass of each, with known-answer checks.

A pass is the user path ``qshear.cli.main([--suite ..., --seed, --report])``
run in-process, followed on exact-catalog by the exact zero test and the
witness digest of every seeded mutant.  Each workload is a closed loop: one
client starts the next pass only after the previous one has finished.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    identities: int  # catalog identities the report must hold, all "pass"
    mutants: int = 0  # seeded nonzero elements the exact layer must flag
    reference: str = "exact"  # reference chunk that times like the workload


# The three workloads split the nine suites between them, so one pass of
# each is one pass over the whole catalog.  Each loads a different layer:
# exact-catalog the Coefficient/torus/Ore core, oracle-catalog the dense
# clock-and-shift oracle, classical-sampling Coefficient.evaluate and the
# 2x2 float evaluators.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-catalog", ("an-braid", "flips-quantum", "pvi", "graph-validate"), 52, 600),
        Workload("oracle-catalog", ("an-core", "an-nelson-regge", "an-rmatrix", "oracle-soundness"), 47,
                 reference="dense"),
        Workload("classical-sampling", ("flips-classical",), 22),
    )
}


class SourceMissing(RuntimeError):
    """The checkout holds no qshear sources to benchmark."""


def load_qshear(root):
    """Import qshear from ``root/src`` and nowhere else."""
    src = Path(root, "src").resolve()
    if not (src / "qshear" / "cli.py").is_file():
        raise SourceMissing(f"no qshear sources under {src}")
    sys.path.insert(0, str(src))
    modules = {
        name: importlib.import_module(f"qshear.{name}")
        for name in ("cli", "coeffs", "fatgraph", "flips", "monodromy", "reports", "suites", "torus")
    }
    origin = Path(modules["cli"].__file__).resolve()
    if src not in origin.parents:
        raise SourceMissing(f"qshear was imported from {origin}, not from {src}")
    return modules


def build_mutants(qs, count, seed):
    """``count`` seeded mutants: a defect of the catalog, which is exactly
    zero, plus a nonzero monomial W(u) t^k.  The exact layer must report
    every one of them nonzero."""
    mono, flips = qs["monodromy"], qs["flips"]
    pool = []
    for n in (3, 4):
        real = mono.an_realization(n)
        for i in range(1, n + 1):
            pool += mono.uqsl2_defects(real, i)
            for j in range(i + 1, n + 1):
                pool += mono.cross_relation_defects(real, i, j)
    for n in (2, 3, 4):
        graph = qs["fatgraph"].spine_graph_an(n)
        subs = [flips.quantum_flip_substitution(graph, e) for e in graph.edges if graph.is_internal(e)]
        subs.append(flips.quantum_pending_substitution(graph, "S"))
        for sub in subs:
            pool += flips.homomorphism_defects(sub)
            pool += flips.star_defects(sub)
            if sub.kind == "inner":
                pool += flips.tilde_expansion_defects(sub)
    rng = random.Random(seed)
    mutants = []
    for label, defect in rng.sample(pool, count):
        form = defect.form
        du = [rng.randint(-2, 2) for _ in range(form.dim)]
        coeff = qs["coeffs"].Coefficient.t_power(rng.randint(-8, 8), rng.choice((-2, -1, 1, 2)))
        mutants.append((str(label), defect + qs["torus"].TorusElement.monomial(form, du, coeff)))
    return mutants


@dataclass
class PassResult:
    wall: float
    attempted: int
    failed: int
    notes: list = field(default_factory=list)  # what failed, for the log
    report: bytes = b""

    @property
    def digest(self):
        return hashlib.sha256(self.report).hexdigest()


def run_pass(qs, workload, seed, report_path, mutants):
    """One timed pass; the known-answer checks run after the clock stops."""
    argv = []
    for suite in workload.suites:
        argv += ["--suite", suite]
    argv += ["--seed", str(seed), "--report", str(report_path)]
    report_path.unlink(missing_ok=True)
    notes = []
    verdicts = []
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            qs["cli"].main(argv)
    except Exception as exc:  # counted below through the missing identities
        notes.append(f"qshear {' '.join(argv)} raised {exc!r}")
    for _, element in mutants:
        try:
            verdicts.append(qs["monodromy"].element_is_zero(element))
            qs["reports"].witness_digest(element)
        except Exception as exc:
            verdicts.append(exc)
    wall = perf_counter() - start

    report = report_path.read_bytes() if report_path.exists() else b""
    identities = json.loads(report)["identities"] if report else []
    failed = 0
    for item in identities:
        if item["status"] != "pass" or item["suite"] not in workload.suites:
            failed += 1
            notes.append(f"identity {item['suite']}: {item['id']} is {item['status']!r}")
    missing = max(workload.identities - len(identities), 0)
    if missing:
        failed += missing
        notes.append(f"{missing} of {workload.identities} identities missing from the report")
    for (label, _), verdict in zip(mutants, verdicts):
        if verdict is not False:
            failed += 1
            what = f"raised {verdict!r}" if isinstance(verdict, Exception) else "was reported zero"
            notes.append(f"mutant {label} + W(u) t^k {what}")
    attempted = max(len(identities), workload.identities) + len(mutants)
    return PassResult(wall, attempted, failed, notes, report)
