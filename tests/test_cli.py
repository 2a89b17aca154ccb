from __future__ import annotations

import json
import subprocess
import sys

import pytest

from normlab.cli import main
from normlab.group import Group


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
    out_path = tmp_path / "scan.json"
    code, out, _ = run_cli(
        ["scan", "--group", "S:4", "--max-order", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["reports"] == []
    assert doc["summary"]["status_counts"]["counterexample"] == 0


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
    # the Sylow seed, class representatives, centre and the order of the
    # minimal normal subgroups come from the chain and the sorted element
    # stream: no group above order 10 000 has its element set built
    built = []
    element_tuples = Group.element_tuples

    def recording(self):
        if "elements" not in self._cache:
            built.append(self.order())
        return element_tuples(self)

    monkeypatch.setattr(Group, "element_tuples", recording)
    for argv in (
        ["analyze", "--group", "S:9"],
        ["verify", "comp22", "--group", "PSL2:31", "--subgroup", "syl:2"],
    ):
        code, _, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert [n for n in built if n > 10_000] == [], argv


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
