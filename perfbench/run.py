"""qshear benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-catalog --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics: ``pass_refs`` (wall time of one
pass of the workload, in units of a fixed reference computation timed beside
it), ``setup_s`` (median time for a fresh interpreter to import
``qshear.cli``) and ``peak_rss_mb`` (peak resident memory of this process).
Beside them it prints the median and the fastest pass time in seconds, every
pass time and every import time.  ``--trace 1`` runs untraced passes, then
traced ones, and prints the per-layer metrics of the traced passes with the
tracing overhead.  The last line of standard output is the JSON result; the
lines before it name every metric with its unit, the environment, the sha256
of the report bytes and anything that failed.

Why the pass time is normalised: the CPU of a shared host alternates between
speeds about 1.5x apart, for seconds to minutes at a time, so seconds per
pass of the exact core move by a quarter between runs of the same code.
After every pass a reference of fixed work that does not depend on qshear
runs for a tenth of that pass's time, and ``pass_refs`` is the mean pass time
over the mean time of one reference chunk in the same run, which cancels the
host's speed of the moment.  The chunk does the same kind of work as the
workload's dominant layer: exact rational arithmetic in dicts for the exact
and classical workloads, whose interpreted code slows most, and a dense
complex product of the oracle's size for oracle-catalog, whose BLAS calls
slow least.  A faster or slower qshear moves ``pass_refs`` in proportion.

OpenBLAS is pinned to one thread before numpy loads, so that the oracle's
dense products take the same path on every machine and every commit.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 2  # an untraced run never reports a single pass
SETUP_SAMPLES = 7  # at least; one more is taken after every pass
BLAS_THREADS = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class SetupClock:
    """Times ``import qshear.cli`` in a fresh interpreter, measured inside
    the child so that process start and exit add nothing.  As in an
    installed package, byte-code is cached next to the sources: one untimed
    import writes it first.  Samples are taken between passes, so that they
    spread over the run as the passes do."""

    CODE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import qshear.cli; print(time.perf_counter() - start)")

    def __init__(self):
        self.cmd = [sys.executable, "-c", self.CODE, str(ROOT / "src")]
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.samples = []
        self._run()

    def _run(self):
        out = subprocess.run(self.cmd, check=True, timeout=120, capture_output=True,
                             text=True, env=self.env)
        return float(out.stdout)

    def sample(self):
        """Take one sample; returns the wall seconds it cost this process."""
        start = perf_counter()
        self.samples.append(self._run())
        return perf_counter() - start


REF_SHARE = 0.1  # reference time after a pass, as a share of that pass
REF_MATRIX_DIM = 343  # an4 at modulus 7, the oracle's largest representation


def exact_chunk():
    acc = {}
    for i in range(1, 20001):
        k = i * 7 % 97
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i, k + 1) * Fraction(3, i)


def dense_chunk(matrix):
    x = matrix
    for _ in range(24):
        x = (x @ matrix) * 0.01


def reference(kind):
    """The fixed reference chunk of a workload (see the module docstring)."""
    if kind == "exact":
        return exact_chunk
    import numpy

    rng = numpy.random.default_rng(0)
    return functools.partial(
        dense_chunk, rng.standard_normal((REF_MATRIX_DIM, 2 * REF_MATRIX_DIM)).view(complex)
    )


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, read from the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads(),
    }


def run_passes(qs, workload, seed, seconds, mutants, report_path, least, tracer=None,
               between=None):
    """Closed loop: start passes until the next one would overrun
    ``seconds``, but run at least ``least`` of them.  ``between`` runs after
    each pass, with its wall time, and returns the seconds it took itself."""
    results = []
    spent = 0.0
    while len(results) < least or spent + median(r.wall for r in results) <= seconds:
        if tracer:
            tracer.pass_id += 1
        result = workloads.run_pass(qs, workload, seed, report_path, mutants)
        if tracer:
            tracer.count("cli.report_bytes", len(result.report))
        results.append(result)
        spent += result.wall
        if between:
            spent += between(result.wall)
    return results


def emit(lines, correct, results, metrics):
    for line in lines:
        print(line)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    # before qshear loads numpy; the setup subprocesses inherit it too
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    try:
        qs = workloads.load_qshear(ROOT)
    except workloads.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mutants = workloads.build_mutants(qs, workload.mutants, args.seed) if workload.mutants else []

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        report_path = Path(tmp, "report.json")
        if not args.trace:
            setup = SetupClock()
            chunk = reference(workload.reference)
            refs = []

            def between(last_wall):
                start = perf_counter()
                setup.sample()
                ref_s = 0.0
                while True:  # at least one chunk
                    chunk_start = perf_counter()
                    chunk()
                    refs.append(perf_counter() - chunk_start)
                    ref_s += refs[-1]
                    if ref_s >= REF_SHARE * last_wall:
                        return perf_counter() - start

            spent = between(0.0)
            results = run_passes(qs, workload, args.seed, args.seconds - spent, mutants,
                                 report_path, MIN_PASSES, between=between)
            while len(setup.samples) < SETUP_SAMPLES:
                setup.sample()
            traced = []
        else:
            results = run_passes(qs, workload, args.seed, args.seconds / 2, mutants,
                                 report_path, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(qs, workload, args.seed, args.seconds / 2, mutants,
                                    report_path, 1, tracer)
            finally:
                tracer.uninstall()

    everything = results + traced
    digests = sorted({r.digest for r in everything})
    lines = [
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"suites={','.join(workload.suites)} mutants={len(mutants)}",
        "environment " + json.dumps(environment(), sort_keys=True),
        f"report sha256={digests[0]} bytes={len(everything[0].report)}",
    ]
    correct = all(r.failed == 0 for r in everything)
    notes = list(dict.fromkeys(note for r in everything for note in r.notes))
    lines += [f"FAILED {note}" for note in notes[:20]]
    if len(notes) > 20:
        lines.append(f"FAILED ... and {len(notes) - 20} more")
    if len(digests) != 1:
        correct = False
        lines.append(f"FAILED report bytes differ between passes: {digests}")

    walls = [r.wall for r in results]
    pass_s = median(walls)
    if not args.trace:
        lines.append(f"setup_s over {len(setup.samples)} imports: "
                     + " ".join(f"{t:.3f}" for t in setup.samples) + " s")
        lines.append(f"pass_s median {pass_s:.6g} s, fastest {min(walls):.6g} s, over "
                     f"{len(walls)} passes (closed loop, one client): "
                     + " ".join(f"{w:.3f}" for w in walls) + " s")
        lines.append(f"{workload.reference} reference chunk median {median(refs):.6g} s over "
                     f"{len(refs)} chunks: "
                     + " ".join(f"{t:.3f}" for t in refs) + " s")
        metrics = {
            "pass_refs": (mean(walls) / mean(refs), "ref"),
            "setup_s": (median(setup.samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        emit(lines, correct, everything, metrics)
        return 0

    per_pass = [tracer.pass_layers(i + 1, r.wall) for i, r in enumerate(traced)]
    for p in per_pass:
        if (p["accounting_error"] > 1e-6 * p["wall"] or p["min_self"] < -1e-6
                or p["unattributed"] < -1e-6):
            correct = False
            lines.append(f"FAILED trace accounting: {p['accounting_error']:.3g} s unexplained, "
                         f"smallest self time {p['min_self']:.3g} s")
    if tracer.missing:
        lines.append("not traced (absent): " + ", ".join(tracer.missing))
    lines.append(f"passes untraced={len(results)} traced={len(traced)}")
    metrics = tracing.layer_metrics(per_pass)
    traced_s = median(r.wall for r in traced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (pass_s, "s")
    metrics["trace.overhead"] = (traced_s / pass_s, "ratio")
    emit(lines, correct, everything, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
