import json
from importlib import resources

import jsonschema
import pytest

from grassquot import acceptance
from grassquot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema():
    ref = resources.files("grassquot") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text())


SCHEMA = load_schema()


def check_json(out):
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


def test_minimal_schubert(capsys):
    code, out = run(capsys, "minimal-schubert", "--r", "3", "--n", "7", "--json")
    assert code == 0
    report = check_json(out)
    assert report["payload"]["w"]["entries"] == [3, 5, 7]
    assert report["payload"]["v"]["entries"] == [1, 3, 5]


def test_gamma(capsys):
    code, out = run(capsys, "gamma", "--r", "3", "--n", "8", "--json")
    assert code == 0
    report = check_json(out)
    assert report["payload"]["entries"][0] == [1, 1, 1, 2, 2, 2, 3, 3]


def test_invariants_count_only(capsys):
    code, out = run(capsys, "invariants", "--r", "3", "--n", "7", "--m", "1",
                    "--w", "3,5,7", "--v", "1,2,3", "--count-only", "--json")
    assert code == 0
    assert check_json(out)["payload"]["count"] == 7


def test_invariants_default_bounds(capsys):
    code, out = run(capsys, "invariants", "--r", "2", "--n", "5", "--m", "1",
                    "--count-only", "--json")
    assert code == 0
    assert check_json(out)["payload"]["count"] == 6


@pytest.mark.parametrize("argv,count", [
    (("--r", "3", "--n", "7", "--m", "12", "--w", "3,5,7", "--v", "1,2,3"), 1547),
    (("--r", "2", "--n", "9", "--m", "3"), 33922),
    (("--r", "2", "--n", "11", "--m", "2"), 86725),
    (("--r", "2", "--n", "13", "--m", "2"), 1709566),
])
def test_invariants_count_only_builds_no_tableaux(capsys, monkeypatch, argv, count):
    def no_enumeration(*args):
        raise AssertionError("--count-only enumerated the tableaux")

    monkeypatch.setattr("grassquot.cli.enumerate_invariants", no_enumeration)
    code, out = run(capsys, "invariants", *argv, "--count-only", "--json")
    assert code == 0
    report = check_json(out)
    assert report["payload"]["count"] == count
    assert "tableaux" not in report["payload"]


def test_verify_relations(capsys):
    code, out = run(capsys, "verify-relations", "--json")
    assert code == 0
    report = check_json(out)
    assert report["status"] == "pass"
    assert all(v["holds"] for v in report["payload"].values())


def test_confluence(capsys):
    code, out = run(capsys, "confluence", "--rules", "g37", "--max-degree", "3",
                    "--json")
    assert code == 0
    report = check_json(out)
    assert report["payload"]["ok"] is True
    assert len(report["payload"]["ambiguities"]) == 8


def test_joined_ambiguities_certify_confluence_without_search(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the exhaustive search ran although every ambiguity joins")

    monkeypatch.setattr("grassquot.rewriting._exhaustive_failures", no_search)
    code, out = run(capsys, "confluence", "--rules", "g37", "--max-degree", "8",
                    "--json")
    assert code == 0
    payload = check_json(out)["payload"]
    assert payload["exhaustive_degree"] == 8
    assert payload["exhaustive_ok"] is True and payload["ok"] is True


def test_confluence_rule_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("Y1*Y2 -> Y3^2\n")
    code, out = run(capsys, "confluence", "--rules", str(rules),
                    "--generators", "3", "--max-degree", "3", "--json")
    assert code == 0
    assert check_json(out)["payload"]["ok"] is True


def test_deodhar_pds(capsys):
    code, out = run(capsys, "deodhar", "--v", "1,3,5", "--json")
    assert code == 0
    assert check_json(out)["payload"]["kept_positions"] == [7, 8, 9]


def test_deodhar_enumerate(capsys):
    code, out = run(capsys, "deodhar", "--v", "1,2,3,4,5,6,7", "--enumerate",
                    "--json")
    assert code == 0
    payload = check_json(out)["payload"]
    assert payload["count"] >= 1
    assert any(m["pds"] for m in payload["masks"])


PROBE_NONVANISHING = {"s2s4s3": [1], "s2s3": [1, 2], "s4s3": [1, 3, 5],
                      "s3": [1, 2, 3, 4, 5, 6]}


@pytest.mark.parametrize("case", PROBE_NONVANISHING)
def test_deodhar_probe(capsys, case):
    code, out = run(capsys, "deodhar", "--probe", case, "--json")
    assert code == 0
    report = check_json(out)
    assert report["status"] == "pass"
    assert report["payload"]["nonvanishing"] == PROBE_NONVANISHING[case]


def test_projnorm(capsys):
    code, out = run(capsys, "projnorm", "--n", "5", "--m", "2", "--oracle",
                    "--json")
    assert code == 0
    report = check_json(out)
    assert report["status"] == "pass"
    assert report["payload"]["oracle"]["equal"] is True


def test_acceptance_single(capsys):
    code, out = run(capsys, "acceptance", "--only", "1", "--json")
    assert code == 0
    report = check_json(out)
    assert report["payload"]["passed"] is True


def test_acceptance_list(capsys):
    code, out = run(capsys, "acceptance", "--list", "--json")
    assert code == 0
    assert len(check_json(out)["payload"]) == 12


def test_reports_byte_stable(capsys):
    _, first = run(capsys, "projnorm", "--n", "5", "--m", "2", "--json",
                   "--seed", "5")
    _, second = run(capsys, "projnorm", "--n", "5", "--m", "2", "--json",
                    "--seed", "5")
    assert first == second


def test_text_mode_acceptance_lines(capsys):
    code, out = run(capsys, "acceptance", "--only", "4")
    assert code == 0
    assert "[PASS] criterion  4" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["invariants", "--r", "3"])
    assert err.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(capsys, "minimal-schubert", "--r", "2", "--n", "5", "--json",
                  "--output", str(target))
    assert code == 0
    jsonschema.validate(json.loads(target.read_text()), SCHEMA)


def test_timing_flag_populates_field(capsys):
    code, out = run(capsys, "minimal-schubert", "--r", "3", "--n", "7", "--json",
                    "--timing")
    assert code == 0
    report = check_json(out)
    assert isinstance(report["timing_ms"], (int, float))


def test_projnorm_sampled(capsys):
    code, out = run(capsys, "projnorm", "--n", "7", "--m", "2", "--sample", "25",
                    "--json", "--seed", "2")
    assert code == 0
    report = check_json(out)
    assert report["payload"]["checked"] == 25
    assert report["payload"]["family_size"] == 260


def test_deodhar_column_tuple_input(capsys):
    code, out = run(capsys, "deodhar", "--v", "2,4,6", "--enumerate", "--json")
    assert code == 0
    assert check_json(out)["payload"]["count"] >= 1


def test_non_confluent_rules_fail_with_exit_one(tmp_path, capsys):
    rules = tmp_path / "bad.txt"
    rules.write_text("Y1*Y2 -> Y2^2\nY1*Y3 -> Y3^2\n")
    code, out = run(capsys, "confluence", "--rules", str(rules),
                    "--generators", "3", "--max-degree", "3", "--json")
    assert code == 1
    report = check_json(out)
    assert report["status"] == "fail"
    assert any(not a["joined"] for a in report["payload"]["ambiguities"])


@pytest.mark.parametrize("argv", [
    ("minimal-schubert", "--r", "2", "--n", "4"),
    ("invariants", "--r", "3", "--n", "2", "--m", "1"),
    ("projnorm", "--n", "4", "--m", "2", "--oracle"),
    ("projnorm", "--n", "5", "--m", "2", "--sample", "0"),
    ("deodhar",),
    ("acceptance", "--only", "13"),
    ("invariants", "--r", "2", "--n", "5", "--m", "1", "--w", "9,9"),
    ("invariants", "--r", "2", "--n", "5", "--m", "1", "--w", "5,4"),
    ("confluence", "--max-degree", "1"),
    ("confluence", "--max-degree", "0"),
])
def test_invalid_input_is_a_one_line_usage_error(capsys, argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_rule_line_without_arrow_is_named(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("Y1*Y2 -> Y3^2\nY1*Y3 = Y2^2\n")
    code = main(["confluence", "--rules", str(rules), "--generators", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert "line 2" in err and "Y1*Y3 = Y2^2" in err


@pytest.mark.parametrize("line", ["Y1*Y2 -> 1/0*Y3", "Y1*Y2 -> Y3 Y4"])
def test_malformed_rule_term_is_named(tmp_path, capsys, line):
    rules = tmp_path / "rules.txt"
    rules.write_text("Y1*Y2 -> Y3^2\n" + line + "\n")
    code = main(["confluence", "--rules", str(rules), "--generators", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert "line 2" in err and line in err


def test_missing_rule_file_is_a_usage_error(tmp_path, capsys):
    code = main(["confluence", "--rules", str(tmp_path / "absent.txt")])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_projnorm_ok_includes_the_oracle(capsys, monkeypatch):
    monkeypatch.setattr("grassquot.cli.surjectivity_oracle", lambda n, m: (15, 16, False))
    code, out = run(capsys, "projnorm", "--n", "5", "--m", "2", "--oracle", "--json")
    report = check_json(out)
    assert code == 1
    assert report["status"] == "fail"
    assert report["payload"]["ok"] is False


def test_acceptance_json_is_byte_stable_without_timing(capsys):
    _, first = run(capsys, "acceptance", "--only", "4", "--json")
    _, second = run(capsys, "acceptance", "--only", "4", "--json")
    assert first == second
    assert "elapsed_s" not in first
    assert check_json(first)["payload"]["passed"] is True


def test_acceptance_timing_adds_elapsed(capsys):
    _, out = run(capsys, "acceptance", "--only", "4", "--json", "--timing")
    (crit,) = check_json(out)["payload"]["criteria"]
    assert isinstance(crit["elapsed_s"], float)
    _, text = run(capsys, "acceptance", "--only", "4", "--timing")
    assert text.splitlines()[0].endswith("s)")


def test_acceptance_text_output_file(tmp_path, capsys):
    target = tmp_path / "acceptance.txt"
    code, out = run(capsys, "acceptance", "--only", "4", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (
        "[PASS] criterion  4  " + acceptance.CRITERIA[3][1] + "\nacceptance: pass\n")


def test_projnorm_even_n_oracle_rejected_before_any_work(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("family_check ran before the usage error")

    monkeypatch.setattr("grassquot.cli.family_check", fail)
    code = main(["projnorm", "--n", "8", "--m", "2", "--oracle", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n odd" in captured.err
