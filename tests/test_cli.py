import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qshear
from qshear import suites
from qshear.cli import main
from qshear.fatgraph import (
    MAX_GRAPH_EDGES,
    graph_to_dict,
    load_graph,
    pending_flip_roles,
    save_graph,
    spine_graph_an,
)
from qshear.flips import CLASSICAL_FLIP_IDENTITIES, CLASSICAL_FLIP_WORDS
from qshear.monodromy import an_realization, nelson_regge_relations, relation_defects
from qshear.suites import MAX_SAMPLES, RunConfig, list_suites

from conftest import theta_graph


def test_list_suites_contains_names_and_anchors(capsys):
    assert main(["--list-suites"]) == 0
    out = capsys.readouterr().out
    assert "an-nelson-regge" in out
    assert "R-matrix" in out
    # stable ordering
    assert main(["--list-suites"]) == 0
    assert capsys.readouterr().out == out


def test_empty_suite_list_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_suite_rejected_before_work(capsys):
    assert main(["--suite", "no-such-suite"]) == 2
    with pytest.raises(ValueError):
        RunConfig(suites=("bogus",))


def test_pvi_suite_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["--suite", "pvi", "--report", str(report), "--oracle-mod", "5"])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == "qshear-report-1"
    assert doc["environment"]["moduli"] == [5]
    ids = {r["id"]: r for r in doc["identities"]}
    assert ids["pvi-K1K2"]["status"] == "pass"
    assert ids["pvi-aw3"]["status"] == "pass"


def test_graph_validate_flags_bad_count(tmp_path, capsys):
    d = graph_to_dict(spine_graph_an(4))
    d["meta"]["r"] = 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    code = main(["--suite", "graph-validate", "--graph", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    report = tmp_path / "r.json"
    code = main(["--suite", "graph-validate", "--graph", str(bad), "--report", str(report)])
    doc = json.loads(report.read_text())
    (item,) = doc["identities"]
    assert item["status"] == "fail"
    assert "6g-6+3s+2r" in item["witness"]


def test_good_graph_file_passes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(graph_to_dict(spine_graph_an(4))))
    assert main(["--suite", "graph-validate", "--graph", str(good)]) == 0


def test_deterministic_reports(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    for r in (r1, r2):
        assert main(["--suite", "pvi", "--report", str(r), "--oracle-mod", "5", "--seed", "7"]) == 0
    assert r1.read_text() == r2.read_text()


def test_report_order_follows_requested_suites(tmp_path):
    report = tmp_path / "order.json"
    code = main(
        ["--suite", "pvi", "--suite", "graph-validate", "--report", str(report),
         "--oracle-mod", "5"]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    suites = [r["suite"] for r in doc["identities"]]
    # report assembly is ordered by requested suite, then id
    assert suites == sorted(suites, key=lambda s: ["pvi", "graph-validate"].index(s))


def test_bad_oracle_modulus_is_usage_error(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a bad configuration must stop before any suite runs")

    monkeypatch.setattr("qshear.cli.run_suite", refuse)
    assert main(["--suite", "pvi", "--oracle-mod", "4"]) == 2
    assert main(["--suite", "pvi", "--oracle-mod", ""]) == 2
    assert main(["--suite", "an-core", "--oracle-mod", "5,15"]) == 2
    assert "from 3 to 13" in capsys.readouterr().err
    assert RunConfig(oracle_moduli=(13,)).oracle_moduli == (13,)
    assert main(["--suite", "pvi", "--samples", "0"]) == 2
    assert main(["--suite", "pvi", "--samples", str(MAX_SAMPLES + 1)]) == 2
    assert RunConfig(samples=MAX_SAMPLES).samples == 100_000


def test_negative_seed_is_usage_error(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a bad seed must stop before any suite runs")

    monkeypatch.setattr("qshear.cli.run_suite", refuse)
    assert main(["--suite", "an-core", "--suite", "flips-classical", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed -1 ") and "Traceback" not in err, err
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).seed == 0


@pytest.mark.parametrize(
    "document",
    [
        {"edges": 5, "vertices": []},
        {"edges": ["A", "B", "C"], "vertices": [["A", "B", "C"]], "pending": {"A": 3}},
        {"edges": [["A"]], "vertices": []},
        {"edges": [f"E{k}" for k in range(MAX_GRAPH_EDGES + 1)], "vertices": []},
        *({"edges": ["A", "B", "C"], "vertices": [["A", "B", "C"]], "pending": bad}
          for bad in ([], 0, False, "", None)),
    ],
    ids=["edges-int", "pending-int", "edge-list", "too-many-edges",
         "pending-list", "pending-zero", "pending-false", "pending-empty-string", "pending-null"],
)
def test_malformed_graph_file_is_a_failing_record(tmp_path, document):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    report = tmp_path / "r.json"
    assert main(["--suite", "graph-validate", "--graph", str(bad), "--report", str(report)]) == 1
    (item,) = json.loads(report.read_text())["identities"]
    assert item["status"] == "fail" and "must" in item["witness"]


def test_runner_exception_becomes_one_error_record(monkeypatch, tmp_path, capsys):
    def broken(config):
        raise ArithmeticError("ore clearing budget exhausted")

    anchor, _ = suites.SUITES["pvi"]
    monkeypatch.setitem(suites.SUITES, "pvi", (anchor, broken))
    report = tmp_path / "r.json"
    code = main(["--suite", "pvi", "--suite", "graph-validate", "--report", str(report)])
    assert code == 1
    items = json.loads(report.read_text())["identities"]
    assert items[0] == {
        "id": "pvi-error",
        "anchor": anchor,
        "status": "error",
        "witness": "ArithmeticError: ore clearing budget exhausted",
        "suite": "pvi",
    }
    # the suite after the failing one still runs
    assert [r["status"] for r in items[1:]] == ["pass"] * 3
    assert "[ERROR] pvi: pvi-error" in capsys.readouterr().out


def test_nelson_regge_0123_record_reads_the_full_family(monkeypatch):
    built = {}
    report = suites._defect_report

    def record(ident, anchor, defects):
        built[ident] = defects
        return report(ident, anchor, defects)

    monkeypatch.setattr(suites, "_defect_report", record)
    monkeypatch.setattr(suites, "_numeric_reports", lambda *args: [])
    suites.run_suite("an-nelson-regge", RunConfig())
    want = relation_defects(nelson_regge_relations(an_realization(4), [0, 1, 2, 3]))
    assert [label for label, _ in built["an4-nelson-regge-0123"]] == [label for label, _ in want]
    assert len(built["an4-nelson-regge-full"]) == 25
    # the subset holds the full record's own defects: no relation is formed twice
    full = {id(d) for _, d in built["an4-nelson-regge-full"]}
    assert all(id(d) in full for _, d in built["an4-nelson-regge-0123"])


def _fresh_python(code):
    src = str(Path(qshear.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)


def test_cli_import_leaves_numpy_and_the_oracle_unloaded():
    out = _fresh_python("import sys, qshear.cli; "
                        "print([m for m in ('numpy', 'qshear.oracle') if m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_exact_suites_run_without_numpy():
    # a None entry makes every import of numpy fail
    out = _fresh_python(
        "import sys; sys.modules['numpy'] = None; import qshear.cli; sys.exit(qshear.cli.main("
        "['--suite', 'an-braid', '--suite', 'flips-quantum', '--suite', 'graph-validate']))"
    )
    assert out.returncode == 0, out.stderr
    passed, total = out.stdout.splitlines()[-1].split()[0].split("/")
    assert passed == total and int(total) > 0, out.stdout


def test_exact_report_bytes_are_pinned(tmp_path, capsys):
    """These three suites use exact arithmetic only, so under the default
    seed their report bytes are the same on every platform; any change to
    them is a change of behaviour."""
    report = tmp_path / "r.json"
    names = ("an-braid", "flips-quantum", "graph-validate")
    assert main([arg for name in names for arg in ("--suite", name)] + ["--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == "8d4a9a77288883a677d76eb1f16f5f2e41ea13d6fd489e109028ec07db2484da"


def test_exact_records_of_the_oracle_suites_are_pinned(tmp_path, capsys):
    """The exact records of the suites that also carry oracle records: their
    id, anchor, status and check count do not depend on the modulus, so a
    run at N=3 pins them.  The digest is the sha256 of one
    id|anchor|status|checks line per record, in report order."""
    report = tmp_path / "r.json"
    names = ("an-core", "an-rmatrix", "an-nelson-regge", "pvi")
    argv = [arg for name in names for arg in ("--suite", name)]
    assert main(argv + ["--oracle-mod", "3", "--report", str(report)]) == 0
    items = json.loads(report.read_text())["identities"]
    lines = [
        f"{r['id']}|{r['anchor']}|{r['status']}|{r.get('extras', {}).get('checks')}"
        for r in items
        if "-oracle-" not in r["id"]
    ]
    assert len(lines) == 41
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f5d453fe8582aea4ab04de2ecf956740840f87f4ed861edbde7a56567a66ccea"


def test_oracle_records_are_pinned(tmp_path, capsys):
    """The oracle records of the five suites that carry them, at N=3: one
    id|anchor|status|count line per record, in report order, where the
    count is the pair count or caught/total.  No float enters a line, so
    the digest holds on every platform."""
    report = tmp_path / "r.json"
    names = ("an-core", "an-rmatrix", "an-nelson-regge", "pvi", "oracle-soundness")
    argv = [arg for name in names for arg in ("--suite", name)]
    assert main(argv + ["--oracle-mod", "3", "--report", str(report)]) == 0
    lines = []
    for r in json.loads(report.read_text())["identities"]:
        extras = r.get("extras", {})
        if "pairs" in extras:
            lines.append(f"{r['id']}|{r['anchor']}|{r['status']}|{extras['pairs']}")
        elif "caught" in extras:
            lines.append(f"{r['id']}|{r['anchor']}|{r['status']}|{extras['caught']}/{extras['total']}")
    assert len(lines) == 6
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "665a46646030386583ff39d8c82173613a56eca4c5fd00a7323ef13eeec34c69"


def test_all_suites_report_content_is_pinned(tmp_path, capsys):
    """All nine suites at the default config: the report without its four
    float extras, which depend on the BLAS and the CPU, is pinned as the
    sha256 of its sorted-key JSON.  A change of any record's id, anchor,
    status, count or witness is a change of behaviour and moves the pin."""
    report = tmp_path / "r.json"
    argv = [arg for name in suites.SUITES for arg in ("--suite", name)]
    assert main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    for record in doc["identities"]:
        for key in ("max_norm", "max_deviation", "min_trace", "max_violation"):
            record.get("extras", {}).pop(key, None)
    assert len(doc["identities"]) == 121
    # a table row that repeats a realization and family would give its ids twice
    assert len({record["id"] for record in doc["identities"]}) == 121
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "ec3ba65fd6b0c74b54356a33da0470b9ff786bf7622aa19d1c0f8846b53785b2"


def test_repeated_suite_or_modulus_is_usage_error(monkeypatch, capsys):
    """A repeated suite, graph or modulus would write its records twice
    under the same ids; it stops with one error line before any suite
    runs."""

    def refuse(*args):
        raise AssertionError("a repeated argument must stop before any suite runs")

    monkeypatch.setattr("qshear.cli.run_suite", refuse)
    assert main(["--suite", "oracle-soundness", "--oracle-mod", "5,5"]) == 2
    assert capsys.readouterr().err == "error: repeated oracle moduli: [5, 5]\n"
    assert main(["--suite", "graph-validate", "--suite", "graph-validate"]) == 2
    assert capsys.readouterr().err == "error: repeated suites: ['graph-validate', 'graph-validate']\n"
    assert main(["--suite", "graph-validate", "--graph", "a.json", "--graph", "a.json"]) == 2
    assert capsys.readouterr().err == "error: repeated graphs: ['a.json', 'a.json']\n"
    with pytest.raises(ValueError, match="repeated oracle moduli"):
        RunConfig(oracle_moduli=(7, 5, 7))
    assert RunConfig(suites=("pvi", "an-core"), oracle_moduli=(7, 5)).oracle_moduli == (7, 5)


def test_flips_classical_at_one_sample(tmp_path):
    report = tmp_path / "r.json"
    assert main(["--suite", "flips-classical", "--samples", "1", "--report", str(report)]) == 0
    items = json.loads(report.read_text())["identities"]
    assert len(items) == 22
    assert all(r["status"] == "pass" for r in items)


def test_flip_script_round_trip(tmp_path, capsys):
    graph = tmp_path / "a3.json"
    save_graph(spine_graph_an(3), graph)
    script = tmp_path / "moves.txt"
    script.write_text("# there and back\nflip X1\nflip X1\npflip S\npflip S\n")
    assert main(["--graph", str(graph), "--flip-script", str(script)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"].keys() == doc["initial"].keys()
    for e, v in doc["initial"].items():
        assert abs(doc["values"][e] - v) < 1e-12, e
    two = ["--graph", str(graph), "--graph", str(graph), "--flip-script", str(script)]
    assert main(two) == 2
    capsys.readouterr()
    for text in ("wobble X1\n", "flip X2\n", "flip X1\ndecor S Q\n"):
        script.write_text(text)
        assert main(["--graph", str(graph), "--flip-script", str(script)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: flip script line ") and "Traceback" not in err, err


def test_flip_script_refuses_a_loop_as_its_own_neck(tmp_path, capsys):
    """After one flip of A the theta graph has the loops B and C; a
    decoration change needs a neck distinct from its loop."""
    graph = tmp_path / "theta.json"
    save_graph(theta_graph(), graph)
    script = tmp_path / "moves.txt"
    script.write_text("flip A\ndecor B B\n")
    assert main(["--graph", str(graph), "--flip-script", str(script)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flip script line 2: ") and "own neck" in err, err
    script.write_text("flip A\ndecor A B\n")
    assert main(["--graph", str(graph), "--flip-script", str(script)]) == 0


def test_flip_script_weighs_every_pending_edge(tmp_path, capsys):
    """pflip at an order p >= 4 uses the weight 2 cos(pi/p); at a weight
    parameter with no value it is an error line naming the edge and the
    parameter, not a traceback."""
    doc = graph_to_dict(spine_graph_an(3))
    doc["pending"].update({"Z1": {"p": 5}, "Z2": {"param": "mu"}})
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    script = tmp_path / "moves.txt"
    script.write_text("pflip Z1\n")
    assert main(["--graph", str(graph), "--flip-script", str(script)]) == 0
    out = json.loads(capsys.readouterr().out)
    a, _ = pending_flip_roles(load_graph(graph), "Z1")
    z, w = out["initial"]["Z1"], 2 * math.cos(math.pi / 5)
    assert out["values"]["Z1"] == -z
    shifted = out["initial"][a] + math.log(1 + w * math.exp(z) + math.exp(2 * z))
    assert out["values"][a] == pytest.approx(shifted, rel=1e-12)
    script.write_text("pflip Z2\n")
    assert main(["--graph", str(graph), "--flip-script", str(script)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flip script line 1: ") and "Traceback" not in err, err
    assert "'Z2'" in err and "'mu'" in err, err


def test_flip_script_rejects_negative_seed(tmp_path, capsys):
    graph = tmp_path / "a3.json"
    save_graph(spine_graph_an(3), graph)
    script = tmp_path / "moves.txt"
    script.write_text("flip X1\n")
    assert main(["--graph", str(graph), "--flip-script", str(script), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed -1 ") and "Traceback" not in err, err


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_report_is_refused_before_any_work(monkeypatch, tmp_path, capsys, target):
    def refuse(*args):
        raise AssertionError("a bad --report must stop before any suite runs or move is applied")

    monkeypatch.setattr("qshear.cli.run_suite", refuse)
    monkeypatch.setattr("qshear.oracle.run_flip_script", refuse)
    report = tmp_path / "no-such-dir" / "r.json" if target == "missing-dir" else tmp_path
    assert main(["--suite", "graph-validate", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --report ") and "Traceback" not in err, err
    graph = tmp_path / "a3.json"
    save_graph(spine_graph_an(3), graph)
    script = tmp_path / "moves.txt"
    script.write_text("flip X1\n")
    assert main(["--graph", str(graph), "--flip-script", str(script), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --report ") and "Traceback" not in err, err


def test_report_write_that_fails_at_the_end_is_an_error_line(monkeypatch, tmp_path, capsys):
    """The target is checked before the work, but it can still vanish
    during it: the write is then one error line with exit status 1."""
    folder = tmp_path / "out"
    report = str(folder / "r.json")

    def remove_folder(result):
        def run(*args):
            folder.rmdir()
            return result(*args)

        return run

    folder.mkdir()
    monkeypatch.setattr("qshear.cli.run_suite", remove_folder(lambda *args: []))
    assert main(["--suite", "graph-validate", "--report", report]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report: ") and "Traceback" not in err, err
    folder.mkdir()
    monkeypatch.setattr("qshear.oracle.run_flip_script", remove_folder(lambda state, lines: state))
    graph = tmp_path / "a3.json"
    save_graph(spine_graph_an(3), graph)
    script = tmp_path / "moves.txt"
    script.write_text("flip X1\n")
    assert main(["--graph", str(graph), "--flip-script", str(script), "--report", report]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report: ") and "Traceback" not in err, err


def _classical_records():
    return {r.ident: r.to_json() for r in suites.run_suite("flips-classical", RunConfig(samples=1))}


def test_flips_classical_record_shapes_are_pinned():
    """Id, anchor, status, extras keys and whether a witness is present, for
    each of the 22 flips-classical records in report order."""
    lines = [
        "|".join(
            (r["id"], r["anchor"], r["status"], ",".join(sorted(r.get("extras", {}))), str("witness" in r))
        )
        for r in _classical_records().values()
    ]
    assert len(lines) == 22
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "122af7246d14f6152c2a9cac30c4483ec13e651e75501937e2f04b3e352a32bd"


_CLASSICAL_FLOATS = {
    20240229: {
        "classical-inner-1-numeric": ("max_deviation", "5.329070518200751e-15"),
        "classical-inner-2-numeric": ("max_deviation", "5.329070518200751e-15"),
        "classical-inner-3-numeric": ("max_deviation", "1.7763568394002505e-15"),
        "classical-pending-1-numeric": ("max_deviation", "8.526512829121202e-14"),
        "classical-pending-2-numeric": ("max_deviation", "4.263256414560601e-14"),
        "classical-pending-3-numeric": ("max_deviation", "5.684341886080802e-14"),
        "classical-decoration-1-numeric": ("max_deviation", "7.105427357601002e-15"),
        "classical-decoration-2-numeric": ("max_deviation", "7.105427357601002e-15"),
        "classical-flip-involution": ("max_deviation", "4.440892098500626e-16"),
        "classical-pending-involution": ("max_deviation", "4.440892098500626e-16"),
        "classical-pentagon": ("max_deviation", "6.661338147750939e-16"),
        "classical-hole-boundary-trace": ("max_deviation", "5.684341886080801e-13"),
        "classical-closed-traces": ("min_trace", "2.1453539932235186"),
        "classical-sign-structure": ("max_violation", "0.0"),
    },
    7: {
        "classical-inner-1-numeric": ("max_deviation", "5.329070518200751e-15"),
        "classical-inner-2-numeric": ("max_deviation", "7.105427357601002e-15"),
        "classical-inner-3-numeric": ("max_deviation", "3.552713678800501e-15"),
        "classical-pending-1-numeric": ("max_deviation", "5.684341886080802e-14"),
        "classical-pending-2-numeric": ("max_deviation", "7.105427357601002e-14"),
        "classical-pending-3-numeric": ("max_deviation", "5.684341886080802e-14"),
        "classical-decoration-1-numeric": ("max_deviation", "5.329070518200751e-15"),
        "classical-decoration-2-numeric": ("max_deviation", "5.329070518200751e-15"),
        "classical-flip-involution": ("max_deviation", "4.440892098500626e-16"),
        "classical-pending-involution": ("max_deviation", "4.440892098500626e-16"),
        "classical-pentagon": ("max_deviation", "8.881784197001252e-16"),
        "classical-hole-boundary-trace": ("max_deviation", "2.8421709430404007e-13"),
        "classical-closed-traces": ("min_trace", "2.000195036776481"),
        "classical-sign-structure": ("max_violation", "0.0"),
    },
}


@pytest.mark.parametrize("seed", sorted(_CLASSICAL_FLOATS))
def test_flips_classical_floats_are_pinned_bit_for_bit(seed):
    """Every float extra of flips-classical at 1000 samples, by repr: the
    pinned shapes above drop these values, and a change to a float check's
    words, shears or evaluation order moves their last bits."""
    records = suites.run_suite("flips-classical", RunConfig(seed=seed))
    got = {r.ident: (key, repr(v)) for r in records for key, v in r.extras.items()}
    assert got == _CLASSICAL_FLOATS[seed]


def test_failing_classical_float_checks_name_their_value(monkeypatch):
    from qshear import oracle

    deviations = (
        "numeric_identity_deviation",
        "flip_involution_deviation",
        "pending_flip_involution_deviation",
        "pentagon_deviation",
        "boundary_trace_deviation",
    )
    for name in deviations:
        monkeypatch.setattr(oracle, name, lambda *args: 0.25)
    monkeypatch.setattr(oracle, "closed_trace_minimum", lambda *args: 1.5)
    monkeypatch.setattr(oracle, "sign_structure_violation", lambda *args: 0.125)
    witnesses = {ident: r.get("witness") for ident, r in _classical_records().items()}
    want = {}
    for ident in CLASSICAL_FLIP_IDENTITIES:
        want[f"classical-{ident}"] = None
        want[f"classical-{ident}-numeric"] = "max deviation 0.25"
    for name in ("flip-involution", "pending-involution", "pentagon", "hole-boundary-trace"):
        want[f"classical-{name}"] = "deviation 0.25"
    want["classical-closed-traces"] = "minimum trace 1.5"
    want["classical-sign-structure"] = "violation 0.125"
    assert witnesses == want


@pytest.mark.parametrize(
    "rhs, witness",
    [
        ("D~ L A~", "[00]: (-1)*e^{-1/2*A+1/2*D+1/2*Z}"),
        ("D R A~", "T-power parity: lhs T^(-0/2), rhs T^(-1/2)"),
    ],
    ids=["turn-swapped", "tilde-dropped"],
)
def test_word_mutant_gives_a_classical_record_with_a_witness(monkeypatch, rhs, witness):
    lhs, _ = CLASSICAL_FLIP_WORDS["inner-1"]
    monkeypatch.setitem(CLASSICAL_FLIP_WORDS, "inner-1", (lhs, rhs))
    record = _classical_records()["classical-inner-1"]
    assert record["status"] == "fail"
    assert record["witness"] == witness


def test_edge_mutant_without_its_folded_sign_fails_exact_and_numeric_records(monkeypatch):
    """An edge map x -> +exp(Z/2) x in place of -exp(Z/2) x, in every
    evaluator of ``word_action`` (exact words and the oracle's float words),
    must fail an exact record and a numeric one."""
    from qshear import matrices, oracle

    folded = matrices.word_action

    def unsigned(steps, edges, scalar):
        def mutant(name):
            up, dn = edges[name]
            return (lambda x: -up(x)), dn

        return folded(steps, matrices.EdgeMaps(mutant), scalar)

    monkeypatch.setattr(matrices, "word_action", unsigned)
    monkeypatch.setattr(oracle, "word_action", unsigned)
    status = {r.ident: r.status for r in suites.run_suite("flips-classical", RunConfig(samples=20))}
    assert status["classical-inner-1"] is False
    assert status["classical-inner-1-numeric"] is False
    flips = suites.run_suite("flips-quantum", RunConfig())
    assert any(r.status is False for r in flips)


# -- the run store: each realization and oracle pair list once per run --------


def _run(tmp_path, *names, extra=()):
    report = tmp_path / "run.json"
    argv = [arg for name in names for arg in ("--suite", name)]
    assert main([*argv, *extra, "--report", str(report)]) == 0
    return json.loads(report.read_text())["identities"]


def test_each_run_builds_its_own_realizations(monkeypatch, tmp_path):
    built = []
    build = suites.an_realization
    monkeypatch.setattr(suites, "an_realization", lambda n: built.append(n) or build(n))
    for _ in range(2):
        _run(tmp_path, "an-braid", "flips-quantum")
    assert built == [3, 4, 2] * 2


def test_oracle_soundness_reads_the_pairs_of_earlier_suites(monkeypatch, tmp_path):
    """After an-core and an-rmatrix, oracle-soundness makes no numeric
    realization of its own, and its mutation records are those of a run of
    oracle-soundness alone."""
    from qshear import oracle

    made = []
    numeric_realization = oracle.numeric_realization
    monkeypatch.setattr(oracle, "numeric_realization", lambda *args: made.append(1) or numeric_realization(*args))
    _run(tmp_path, "an-core", "an-rmatrix")
    before = len(made)
    together = _run(tmp_path, "an-core", "an-rmatrix", "oracle-soundness")
    assert len(made) == 2 * before
    alone = _run(tmp_path, "oracle-soundness")
    assert len(made) == 2 * before + 2  # one per modulus
    mutations = [r for r in together if r["suite"] == "oracle-soundness"]
    assert [r["id"] for r in mutations] == ["mutations-N5", "mutations-N7"]
    assert mutations == alone


def test_one_numeric_source_per_realization_and_modulus(monkeypatch, tmp_path):
    """The oracle suites of one run make each numeric source once: an-core
    makes an3 and an4 at each default modulus, pvi makes its own, and
    an-nelson-regge, an-rmatrix and oracle-soundness read the kept ones."""
    from qshear import oracle

    sizes = []
    numeric_realization = oracle.numeric_realization
    monkeypatch.setattr(
        oracle, "numeric_realization", lambda rep, real, params: sizes.append(real.n) or numeric_realization(rep, real, params)
    )
    _run(tmp_path, "an-core", "an-nelson-regge", "an-rmatrix", "oracle-soundness", "pvi")
    assert sizes == [3, 3, 4, 4, 2, 2]


def test_stored_realizations_are_unchanged_by_all_suites(monkeypatch, tmp_path):
    """Every suite reads the run's stored realizations; none changes one."""
    configs = []
    run_suite = suites.run_suite
    monkeypatch.setattr("qshear.cli.run_suite", lambda name, config: configs.append(config) or run_suite(name, config))
    _run(tmp_path, *suites.SUITES, extra=("--samples", "20"))
    assert len(configs) == len(suites.SUITES) and all(c is configs[0] for c in configs)
    stored = configs[0].store.realizations
    assert sorted(stored) == ["an2", "an3", "an4", "pvi"]

    def keys(real):
        entries = [real.entry(kind, i).key() for kind in "abc" for i in range(1, real.n + 1)]
        return entries, [[x.key() for row in m.rows for x in row] for m in real.mats]

    for name, real in stored.items():
        assert keys(real) == keys(suites.RunStore().realization(name)), name
