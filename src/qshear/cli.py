"""Batch entry point: run verification suites and emit a JSON report."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .suites import RunConfig, list_suites, run_suite


def check_report_target(path):
    """Raise ValueError when ``path`` cannot take the report: a directory,
    or a file in a directory that does not exist.  Run before any work."""
    if not path:
        return
    if os.path.isdir(path):
        raise ValueError(f"--report {path} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--report {path}: no directory {folder}")


def write_report(document, path):
    """The document as JSON text, also written to ``path`` when one is
    given; None, after an ``error:`` line, when the write fails."""
    text = json.dumps(document, indent=1, sort_keys=True)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return None
    return text


def run_flip_script_file(args):
    import numpy as np

    from .fatgraph import graph_to_dict, load_graph
    from .oracle import ShearState, run_flip_script

    if len(args.graph) != 1 or args.suite:
        print("error: --flip-script needs exactly one --graph and no --suite", file=sys.stderr)
        return 2
    try:
        check_report_target(args.report)
        graph = load_graph(args.graph[0])
        rng = np.random.default_rng(RunConfig(seed=args.seed).seed)  # bounded as for suites
        values = {e: float(rng.uniform(-2, 2)) for e in graph.edges}
        params = {"omega0": 0.5, "omega1": 0.5, "omega2": 0.5}
        state = ShearState(graph, values, params)
        with open(args.flip_script, "r", encoding="utf-8") as fh:
            state = run_flip_script(state, fh.readlines())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = {
        "graph": graph_to_dict(state.graph),
        "initial": values,
        "values": state.values,
    }
    text = write_report(document, args.report)
    if text is None:
        return 1
    print(text)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="qshear",
        description="verify the quantum shear-coordinate identity catalog",
    )
    p.add_argument("--suite", action="append", default=[], metavar="NAME",
                   help="suite to run (repeatable); see --list-suites")
    p.add_argument("--graph", action="append", default=[], metavar="FILE",
                   help="graph file for graph-validate or --flip-script")
    p.add_argument("--flip-script", metavar="FILE",
                   help="apply 'flip/pflip/decor' lines to the --graph and "
                        "print the resulting shears")
    p.add_argument("--report", metavar="FILE", help="write the JSON report here")
    p.add_argument("--oracle-mod", default="5,7", metavar="LIST",
                   help="comma-separated root-of-unity moduli (default 5,7)")
    p.add_argument("--samples", type=int, default=1000,
                   help="random shear samples for flips-classical (default 1000); "
                        "the involution checks use at most 1000, the pentagon, "
                        "hole-boundary and closed-trace checks at most 200, the "
                        "sign-pattern check at most 50")
    p.add_argument("--seed", type=int, default=20240229)
    p.add_argument("--list-suites", action="store_true")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list_suites:
        print(list_suites())
        return 0
    if args.flip_script:
        return run_flip_script_file(args)
    if not args.suite:
        print("error: no suites requested (use --suite NAME or --list-suites)", file=sys.stderr)
        return 2
    try:
        check_report_target(args.report)
        moduli = tuple(int(x) for x in args.oracle_mod.split(",") if x)
        config = RunConfig(
            suites=args.suite,
            graphs=args.graph,
            oracle_moduli=moduli,
            samples=args.samples,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = []
    for name in config.suites:
        for rep in run_suite(name, config):
            item = rep.to_json()
            item["suite"] = name
            reports.append(item)

    ok = all(r["status"] == "pass" for r in reports)
    document = {
        "schema": "qshear-report-1",
        "environment": {
            "version": __version__,
            "seed": config.seed,
            "moduli": list(config.oracle_moduli),
            "samples": config.samples,
        },
        "identities": reports,
    }
    if write_report(document, args.report) is None:
        return 1
    for r in reports:
        mark = "pass" if r["status"] == "pass" else r["status"].upper()
        print(f"[{mark}] {r['suite']}: {r['id']}")
    print(f"{sum(1 for r in reports if r['status'] == 'pass')}/{len(reports)} identities pass")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
