from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from normlab.catalog import parse_spec
from normlab.cli import main
from normlab.group import Group
from normlab.scan import scan_group


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_s4(capsys):
    code, out, _ = run_cli(["analyze", "--group", "S:4", "--subgroup", "syl:2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "analyze S:4:",
        "  order: 24",
        "  degree: 4",
        "  solvable: True",
        "  nilpotent: False",
        "  fitting_order: 4",
        "  fitting_length: 3",
        "  center_order: 1",
        "  minimal_normal_orders: [4]",
        "  simple: False",
        "  frobenius: None",
        "  subgroup: 8:(3 4),(1 2),(1 3)(2 4)",
        "  subgroup_order: 8",
    ]


def test_analyze_psl217_json(capsys):
    code, out, _ = run_cli(["analyze", "--group", "PSL2:17", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    analysis = doc["analysis"]
    assert analysis["order"] == 2448
    assert analysis["solvable"] is False
    assert analysis["simple"] is True


def test_analyze_psl2_13_builds_no_lattice(capsys, monkeypatch):
    # Fit(PSL2:13) = 1, so frobenius_decomposition answers None before it
    # would enumerate the lattice; the document is the one the lattice-first
    # order gave
    import normlab.subgroups

    lattice = normlab.subgroups._lattice
    orders = []

    def recording(G):
        orders.append(G.order())
        return lattice(G)

    monkeypatch.setattr(normlab.subgroups, "_lattice", recording)
    code, out, _ = run_cli(["analyze", "--group", "PSL2:13", "--format", "json"], capsys)
    doc = json.loads(out)
    del doc["elapsed_s"]
    assert code == 0
    assert doc == {
        "tool": "normlab",
        "version": "0.1.0",
        "invocation": ["analyze", "--group", "PSL2:13", "--format", "json"],
        "reports": [],
        "summary": {"status_counts": {}},
        "analysis": {
            "group": "PSL2:13",
            "order": 1092,
            "degree": 14,
            "solvable": False,
            "nilpotent": False,
            "fitting_order": 1,
            "fitting_length": None,
            "center_order": 1,
            "minimal_normal_orders": [1092],
            "simple": True,
            "frobenius": None,
        },
    }
    assert 1092 not in orders


def test_analyze_trivial(capsys):
    code, out, _ = run_cli(["analyze", "--group", "C:1", "--format", "json"], capsys)
    assert code == 0
    analysis = json.loads(out)["analysis"]
    assert analysis["order"] == 1
    assert analysis["fitting_order"] == 1
    assert analysis["center_order"] == 1


def test_verify_comp22_confirmed(capsys):
    code, out, _ = run_cli(
        ["verify", "comp22", "--group", "S:4", "--subgroup", "stab:4"], capsys
    )
    assert code == 0
    assert "confirmed" in out


def test_verify_comp22_with_a_non_abelian_fitting_subgroup(capsys):
    # 7^{1+2}:3: the complement K = Fit(G/C) is the extraspecial group 7^{1+2}
    path = Path(__file__).parent / "data" / "frobenius_7_1_2_3.grp"
    code, out, _ = run_cli(
        ["verify", "comp22", "--group", f"FILE:{path}", "--subgroup", "syl:3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "confirmed"
    assert report["metadata"]["frobenius_product_order"] == 1029


def test_verify_comp22_psl217_hypotheses_not_met(capsys):
    code, out, _ = run_cli(
        ["verify", "comp22", "--group", "PSL2:17", "--subgroup", "syl:2"], capsys
    )
    assert code == 0
    assert "hypotheses-not-met" in out


def test_verify_rem23_psl217_confirmed(capsys):
    code, out, _ = run_cli(
        ["verify", "rem23", "--group", "PSL2:17", "--subgroup", "syl:2"], capsys
    )
    assert code == 0
    assert "confirmed" in out


def test_verify_simp_psl217(capsys):
    code, out, _ = run_cli(
        ["verify", "simp", "--group", "PSL2:17", "--subgroup", "syl:2"], capsys
    )
    assert code == 0
    assert "confirmed" in out


def test_verify_mode_flag(capsys):
    code, out, _ = run_cli(
        [
            "verify", "comp22", "--group", "S:4", "--subgroup", "syl:2",
            "--mode", "def21=h-normal",
        ],
        capsys,
    )
    assert code == 0
    assert "h-normal" in out


def test_an_unknown_mode_is_a_usage_error(tmp_path, capsys):
    # refused before the pair is built: selecting syl:2 in S:10 meets the
    # enumeration bound, which would give a skip report with exit 4
    out_path = tmp_path / "report.json"
    for argv in (
        ["verify", "comp22", "--group", "S:4", "--subgroup", "stab:4", "--mode", "bogus"],
        ["verify", "hall", "--group", "S:10", "--subgroup", "syl:2", "--mode", "def21=bogus"],
        ["scan", "--group", "S:4", "--mode", "def21=bogus"],
    ):
        code, out, err = run_cli([*argv, "--out", str(out_path)], capsys)
        assert code == 2 and "unknown mode 'bogus'" in err
        assert out == "" and not out_path.exists()


def test_verify_thompson_confirmed(capsys):
    code, out, _ = run_cli(
        ["verify", "thompson", "--group", "AGL1:7", "--subgroup", "syl:3", "--format", "json"],
        capsys,
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "confirmed" and report["mode"] is None


def test_verify_burnside_confirmed(capsys):
    code, out, _ = run_cli(
        ["verify", "burnside", "--group", "AGL1:7", "--subgroup", "syl:3", "--format", "json"],
        capsys,
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "confirmed" and report["mode"] is None


def test_verify_burnside_subject_has_the_scan_subject_keys(capsys):
    code, out, _ = run_cli(
        ["verify", "burnside", "--group", "AGL1:7", "--subgroup", "syl:3", "--format", "json"],
        capsys,
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    scanned = [r for r in scan_group(parse_spec("AGL1:7"), intro=False)[0] if r.theorem == "burnside"]
    assert scanned and set(report["subject"]) == set(scanned[0].subject)
    assert report["subject"]["group_order"] == 42


def test_verify_burnside_on_a_non_complement_is_not_a_counterexample(capsys):
    # a Sylow 2-subgroup of S:4 contains Fit(S:4), so it is no Frobenius
    # complement; its failed check was once reported only as the witness of
    # a passing hypothesis, and the pair counted as a counterexample
    code, out, _ = run_cli(
        ["verify", "burnside", "--group", "S:4", "--subgroup", "syl:2", "--format", "json"],
        capsys,
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "hypotheses-not-met"
    assert report["hypothesis_checks"] == [{
        "name": "complement-attested",
        "passed": False,
        "witness": "frobenius check: kernel meets complement",
    }]
    assert report["conclusion_checks"] == []


def test_thompson_and_burnside_take_no_mode(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    for theorem in ("thompson", "burnside"):
        argv = ["verify", theorem, "--group", "AGL1:7", "--subgroup", "syl:3"]
        code, out, err = run_cli([*argv, "--mode", "fit-normal", "--out", str(out_path)], capsys)
        assert code == 2 and "--mode" in err
        assert out == "" and not out_path.exists()
        # a skip report carries no mode either, like a completed report
        code, out, _ = run_cli([*argv, "--enum-bound", "3", "--format", "json"], capsys)
        assert code == 4
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "skipped-too-large" and report["mode"] is None


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(
        ["verify", "nosuch", "--group", "S:4", "--subgroup", "syl:2"], capsys
    )
    assert code == 2
    assert "unknown theorem" in err


def test_verify_bad_group_spec(capsys):
    code, _, err = run_cli(
        ["verify", "comp22", "--group", "X:4", "--subgroup", "syl:2"], capsys
    )
    assert code == 2


def test_an_unreadable_group_file_is_a_usage_error(tmp_path, capsys):
    # a FILE: spec that cannot be read once ended in a traceback (exit 1)
    undecodable = tmp_path / "latin1.grp"
    undecodable.write_bytes(b"degree 3\n# \xe9\n")
    for path in (tmp_path / "missing.grp", tmp_path, undecodable):
        group = ["--group", f"FILE:{path}"]
        for args in (
            ["analyze", *group],
            ["verify", "comp22", *group, "--subgroup", "stab:1"],
            ["scan", *group, "--out", str(tmp_path / "scan.json")],
        ):
            code, _, err = run_cli(args, capsys)
            assert code == 2, args
            assert err.startswith("error:") and str(path) in err, err
    assert not (tmp_path / "scan.json").exists()


def test_a_spec_with_no_family_names_the_spec(capsys):
    # PROD takes its factors in parentheses; PROD:3 once failed on an empty
    # product ("group degree must be >= 1")
    for spec in ("PROD:3", "X:4"):
        code, _, err = run_cli(["analyze", "--group", spec], capsys)
        assert code == 2 and f"'{spec}'" in err, err


def test_human_and_json_verdicts_agree(capsys):
    code1, human, _ = run_cli(
        ["verify", "hall", "--group", "AGL1:7", "--subgroup", "stab:1"], capsys
    )
    code2, raw, _ = run_cli(
        ["verify", "hall", "--group", "AGL1:7", "--subgroup", "stab:1",
         "--format", "json"],
        capsys,
    )
    assert code1 == code2 == 0
    doc = json.loads(raw)
    status = doc["reports"][0]["status"]
    assert status in human


def test_json_document_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "comp22", "--group", "S:4", "--subgroup", "stab:4",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["tool"] == "normlab"
    assert doc["reports"][0]["status"] == "confirmed"
    # summary counts match the report tally
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_scan_cli_writes_document(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, out, _ = run_cli(
        ["scan", "--group", "S:4", "--theorems", "comp22,hall", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    statuses = {r["status"] for r in doc["reports"]}
    assert "counterexample" not in statuses
    assert doc["summary"]["maximal_normalizer_hits"] == 7
    # one log line per report plus the summary line
    assert len(out.strip().splitlines()) == len(doc["reports"]) + 1


def test_scan_cli_json_format_prints_document(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, out, _ = run_cli(
        ["scan", "--group", "S:3", "--format", "json", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert json.loads(out) == json.loads(out_path.read_text())


def test_scan_cli_empty(tmp_path, capsys):
    # a named group above --max-order (default 2500) is a skip record, not
    # silently left out, so everything relevant was skipped: exit 4
    for group, extra, order, limit in (("S:4", ["--max-order", "1"], 24, 1), ("S:7", [], 5040, 2500)):
        out_path = tmp_path / "scan.json"
        code, out, _ = run_cli(["scan", "--group", group, *extra, "--out", str(out_path)], capsys)
        assert code == 4
        doc = json.loads(out_path.read_text())
        (report,) = doc["reports"]
        assert report["theorem"] == "scan" and report["status"] == "skipped-too-large"
        assert report["subject"] == {"group": group, "group_order": order}
        assert report["metadata"]["reason"] == f"group order {order} exceeds max order {limit}"
        assert doc["summary"]["groups_scanned"] == doc["summary"]["groups_skipped"] == 1
        assert "scan complete: 1 group(s), 0 pair(s)" in out


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "S:3"],
    ["verify", "comp22", "--group", "S:4", "--subgroup", "stab:4"],
    ["scan", "--group", "S:3", "--no-intro"],
])
def test_unwritable_out_is_a_usage_error_after_the_output(argv, tmp_path, capsys):
    # a directory cannot be opened for writing; the work already done still
    # reaches stdout, and the failure names the path instead of a traceback
    code, out, err = run_cli([*argv, "--format", "json", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert json.loads(out)["tool"] == "normlab"
    assert err.strip() == f"error: cannot write report to {str(tmp_path)!r}: IsADirectoryError"
    # the human output is printed before the write too, and claims no report
    code, out, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == 2 and "IsADirectoryError" in err
    assert "written" not in out


def test_scan_cli_unknown_theorem_is_a_usage_error(tmp_path, capsys):
    # refused before any group is built, also when no group is selected
    out_path = tmp_path / "scan.json"
    for group in ([], ["--group", "S:4"]):
        code, _, err = run_cli(
            ["scan", *group, "--max-order", "1", "--theorems", "bogus", "--out", str(out_path)],
            capsys,
        )
        assert code == 2 and "unknown theorem 'bogus'" in err
    assert not out_path.exists()


def test_scan_cli_all_skipped_exit_code(tmp_path, capsys):
    # PSL2:17 is over the subgroup-enumeration bound: everything is skipped
    out_path = tmp_path / "scan.json"
    code, _, _ = run_cli(
        ["scan", "--group", "PSL2:17", "--no-intro", "--out", str(out_path)], capsys
    )
    assert code == 4


def test_scan_jobs_do_not_change_report(tmp_path, capsys):
    docs = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"scan{jobs}.json"
        code, _, _ = run_cli(
            ["scan", "--group", "S:4", "--group", "D:6", "--jobs", jobs,
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        doc.pop("elapsed_s")
        doc.pop("invocation")
        for r in doc["reports"]:
            r.pop("elapsed_s")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_scan_jobs_below_one_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, out, err = run_cli(
        ["scan", "--group", "S:3", "--jobs", "0", "--out", str(out_path)], capsys
    )
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_enum_bound_flag(capsys):
    code, _, err = run_cli(
        ["verify", "comp22", "--group", "S:5", "--subgroup", "stab:5",
         "--enum-bound", "50"],
        capsys,
    )
    # order 120 exceeds the bound of 50: the verifier is skipped, exit 4
    assert code == 4


def test_enum_bound_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NORMLAB_ENUM_BOUND", "50")
    code, _, _ = run_cli(
        ["verify", "comp22", "--group", "S:5", "--subgroup", "stab:5"], capsys
    )
    assert code == 4


def test_enum_bound_flag_rejects_bad_values(capsys):
    for raw in ("0", "abc"):
        code, out, err = run_cli(
            ["verify", "comp22", "--group", "S:5", "--subgroup", "stab:5",
             "--enum-bound", raw],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--enum-bound" in err and repr(raw) in err


def test_enum_bound_env_rejects_bad_values(capsys, monkeypatch):
    for raw in ("abc", "0"):
        monkeypatch.setenv("NORMLAB_ENUM_BOUND", raw)
        code, out, err = run_cli(
            ["verify", "comp22", "--group", "S:5", "--subgroup", "stab:5"], capsys
        )
        assert code == 2
        assert out == ""
        assert "NORMLAB_ENUM_BOUND" in err and repr(raw) in err


def test_verify_selector_over_bound_is_skipped(capsys):
    # the Sylow selector has to enumerate S:10, which is above the default
    # enumeration bound: a skip report and exit 4, not a usage error
    code, out, _ = run_cli(
        ["verify", "rem23", "--group", "S:10", "--subgroup", "syl:2", "--format", "json"],
        capsys,
    )
    assert code == 4
    doc = json.loads(out)
    (report,) = doc["reports"]
    assert report["status"] == "skipped-too-large"
    assert report["subject"] == {"group": "S:10", "group_order": 3628800}
    assert doc["summary"]["status_counts"] == {"skipped-too-large": 1}


def test_analyze_over_bound_is_skipped(capsys):
    # S:10 is above the default enumeration bound, with or without a
    # selector that has to enumerate it: a skip report and exit 4
    for extra in ([], ["--subgroup", "syl:2"]):
        code, out, _ = run_cli(
            ["analyze", "--group", "S:10", "--format", "json", *extra], capsys
        )
        assert code == 4
        doc = json.loads(out)
        (report,) = doc["reports"]
        assert report["theorem"] == "analyze"
        assert report["status"] == "skipped-too-large"
        assert report["subject"] == {"group": "S:10", "group_order": 3628800}
        assert "exceeds bound" in report["metadata"]["reason"]
        assert doc["summary"]["status_counts"] == {"skipped-too-large": 1}


def test_large_groups_are_not_enumerated(capsys, monkeypatch):
    # the Sylow seed and the centre come from the chain and the sorted
    # element stream, and the minimal normal subgroups from the streams of
    # the Sylow centres: no group above order 10 000 has its element set or
    # its sorted list built from the chain (sets that ``from_element_tuples``
    # receives, such as backtrack results, are not enumerations)
    built = []
    for name, key in (("element_tuples", "elements"), ("sorted_element_tuples", "sorted_elements")):

        def recording(self, method=getattr(Group, name), key=key):
            if key not in self._cache:
                built.append(self.order())
            return method(self)

        monkeypatch.setattr(Group, name, recording)
    for argv in (
        ["analyze", "--group", "S:9"],
        ["verify", "comp22", "--group", "PSL2:31", "--subgroup", "syl:2"],
    ):
        code, _, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert [n for n in built if n > 10_000] == [], argv


def test_minimal_normals_take_no_conjugacy_classes(capsys, monkeypatch):
    # minimal normal subgroups are closures of elements of the Sylow centres:
    # neither analyze nor the simp verifier walks the conjugacy classes
    calls = []

    def spy(self, method=Group.conjugacy_class_reps):
        calls.append(self.order())
        return method(self)

    monkeypatch.setattr(Group, "conjugacy_class_reps", spy)
    for argv in (
        ["analyze", "--group", "S:9"],
        ["verify", "simp", "--group", "PSL2:31", "--subgroup", "syl:2"],
    ):
        code, _, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert calls == [], argv


def test_simp_grows_the_sylow_2_subgroup_once(capsys, monkeypatch):
    # the minimal normal subgroup of the simple PSL2:31 is the group object
    # itself, so the factor checks read its Sylow subgroup instead of growing
    # one on a copy
    grown = []

    def spy(self, key, thunk, method=Group.cached):
        if key == ("sylow", 2) and key not in self._cache:
            grown.append(self.order())
        return method(self, key, thunk)

    monkeypatch.setattr(Group, "cached", spy)
    code, _, _ = run_cli(
        ["verify", "simp", "--group", "PSL2:31", "--subgroup", "syl:2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert grown.count(14880) == 1  # the order-32 H is asked for its own once too


def test_coset_action_bound_is_skipped(capsys):
    # the core is the C:2 factor, so the quotient's coset action has degree
    # 9! = 362880, above the index bound: a skip report and exit 4
    code, out, _ = run_cli(
        ["verify", "comp22", "--group", "PROD(S:9,C:2)", "--subgroup", "gens:(10 11)|(1 2)",
         "--format", "json"],
        capsys,
    )
    assert code == 4
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "skipped-too-large"
    assert report["metadata"]["reason"] == "coset action degree 362880 exceeds bound"


def test_document_invocation_is_the_parsed_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-process", "--some-flag"])
    out_path = str(tmp_path / "doc.json")
    for argv in (
        ["analyze", "--group", "S:3", "--out", out_path],
        ["verify", "comp22", "--group", "S:4", "--subgroup", "stab:4", "--out", out_path],
        ["scan", "--group", "S:3", "--out", out_path],
    ):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            assert json.load(fh)["invocation"] == argv


def test_scan_has_no_sweep_option(tmp_path, capsys):
    # the default sweep runs when no --group is given; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--sweep", "default", "--group", "S:3", "--max-order", "6",
              "--out", str(tmp_path / "scan.json")])
    assert exc.value.code == 2
    assert "--sweep" in capsys.readouterr().err


def test_entrypoint_runs(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "normlab.cli", "analyze", "--group", "S:3"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert "order: 6" in proc.stdout


def test_invariant_violation_is_not_a_usage_error(capsys, monkeypatch):
    # a failed result guard is a fault in normlab: it escapes main with its
    # traceback, while any other NormlabError stays a one-line exit 2
    import normlab.cli as cli_module
    from normlab.errors import InvariantViolated, NotNormal

    def fault(G):
        raise InvariantViolated("Fitting subgroup is not normal")

    def bad_input(G):
        raise NotNormal("not normal")

    monkeypatch.setattr(cli_module, "fitting_subgroup", fault)
    with pytest.raises(InvariantViolated):
        main(["analyze", "--group", "S:4"])
    monkeypatch.setattr(cli_module, "fitting_subgroup", bad_input)
    code, _, err = run_cli(["analyze", "--group", "S:4"], capsys)
    assert code == 2
    assert err == "error: not normal\n"
