"""CLI behavior: exit codes, reports, golden files, determinism."""

import json
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from moritalab import cli
from moritalab.cli import (
    Campaign,
    ConfigError,
    Instance,
    REPORT_SCHEMA,
    default_campaign,
    main,
    render_report_json,
    render_report_text,
    report_digest,
    run_campaign,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# ------------------------------------------------------------------ exit codes

def test_verify_lemma1_all_sizes(capsys):
    code = main(["verify", "--check", "lemma1", "--i", "1,2,3,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_rejects_zero_index(capsys):
    code = main(["verify", "--check", "lemma1", "--i", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "index size must be >= 1" in err


def test_verify_rejects_unknown_check(capsys):
    code = main(["verify", "--check", "nonsense", "--i", "1"])
    assert code == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code = main(["verify", "--check", "lemma1", "--i", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "PASS" not in captured.out  # refused before any check ran
    assert f"cannot write report {target}: " in captured.err
    assert not target.exists()


def _refuse_campaign(monkeypatch):
    def refuse(campaign):
        raise AssertionError("the campaign ran before --out was checked")

    monkeypatch.setattr(cli, "run_campaign", refuse)


@pytest.mark.parametrize("layout, why", [
    ("missing", "No such file or directory"),
    ("file_parent", "Not a directory"),
    ("directory", "Is a directory"),
])
def test_verify_out_fails_before_the_campaign(tmp_path, capsys, monkeypatch, layout, why):
    (tmp_path / "plain").write_text("x")
    target = {"missing": tmp_path / "missing" / "r.json",
              "file_parent": tmp_path / "plain" / "r.json",
              "directory": tmp_path}[layout]
    _refuse_campaign(monkeypatch)
    code = main(["verify", "--check", "lemma1", "--i", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write report {target}: ")
    assert why in captured.err


def test_verify_out_fails_before_the_campaign_in_unwritable_directory(
        tmp_path, capsys, monkeypatch):
    # os.access stands in for the permission bits, which do not bind root
    target = tmp_path / "r.json"
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(tmp_path))
    _refuse_campaign(monkeypatch)
    code = main(["verify", "--check", "lemma1", "--i", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write report {target}: ")
    assert "Permission denied" in captured.err
    assert not target.exists()


def test_verify_out_write_error_is_still_caught(tmp_path, capsys, monkeypatch):
    # a failure the pre-check cannot see, raised by the write itself
    target = tmp_path / "r.json"
    monkeypatch.setattr(cli, "_unwritable", lambda path: None)

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "render_report_json", fail)
    code = main(["verify", "--check", "lemma1", "--i", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "PASS" in captured.out
    assert f"cannot write report {target}: " in captured.err


def test_verify_morita_brandt_instance(capsys):
    code = main(["verify", "--check", "morita_brandt", "--i", "2", "--j", "3",
                 "--group", "C2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "morita_brandt" in out


def test_verify_strict_size_limit(capsys):
    code = main(["verify", "--check", "homology", "--i", "2", "--group", "S3",
                 "--n", "3", "--strict"])
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    (["--n", "-1"], "--n must be >= 0"),
    (["--size-limit", "0"], "--size-limit must be >= 1"),
])
def test_homology_rejects_bad_degree_and_budget(capsys, argv, message):
    code = main(["homology", "--i", "1", *argv])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--n", "-1"], "--n must be >= 0"),
    (["--size-limit", "0"], "--size-limit must be >= 1"),
])
def test_verify_rejects_bad_degree_and_budget(tmp_path, capsys, argv, message):
    out = tmp_path / "r.json"
    code = main(["verify", "--check", "homology", "--i", "1", *argv, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_bad_jobs(tmp_path, capsys, jobs):
    out = tmp_path / "r.json"
    code = main(["verify", "--check", "lemma1", "--i", "1", "--jobs", jobs, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--jobs must be >= 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_verify_rejects_bad_jobs_from_config(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"i": "1", "check": "lemma1", "jobs": 0}))
    code = main(["verify", "--config", str(cfg)])
    assert code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"n": "abc"}, {"n": True}, {"size_limit": 1e6}, {"seed": 1.5}, {"jobs": "2"},
    {"strict": "no"}, {"strict": 1},
], ids=["n-text", "n-bool", "size_limit-float", "seed-float", "jobs-text", "strict-text",
        "strict-int"])
def test_verify_rejects_mistyped_config_values(tmp_path, capsys, config):
    cfg = tmp_path / "campaign.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"i": "1", "check": "lemma1", **config}))
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    key = next(iter(config))
    assert code == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_verify_takes_typed_config_values(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"i": "1,2", "check": "lemma1", "n": 1, "size_limit": 1000,
                               "seed": 7, "jobs": 1, "strict": True}))
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    campaign = json.loads(out.read_text())["campaign"]
    assert (campaign["n_max"], campaign["size_limit"], campaign["seed"]) == (1, 1000, 7)


def test_group_builtin(capsys):
    code = main(["group", "builtin", "S3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order 6" in out and "nonabelian" in out


def test_group_load_klein(capsys):
    code = main(["group", "load", os.path.join(DATA, "k4.cayley")])
    out = capsys.readouterr().out
    assert code == 0
    assert "order 4" in out and "abelian" in out


def test_group_load_bad_file(capsys):
    code = main(["group", "load", os.path.join(DATA, "bad_assoc.cayley")])
    err = capsys.readouterr().err
    assert code == 2
    assert "NotAssociative at triple" in err


@pytest.mark.parametrize("argv", [
    ["group", "load"],
    ["verify", "--check", "split", "--i", "1", "--group"],
    ["homology", "--i", "1", "--group"],
])
def test_superscript_digit_in_group_file_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "superscript.cayley"
    path.write_text("order ²\n0\n", encoding="utf-8")
    assert main(argv + [str(path)]) == 2
    assert "line 1, column 1" in capsys.readouterr().err


def test_group_load_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.cayley"
    path.write_bytes(b"order 1\n\xff\n")
    assert main(["group", "load", str(path)]) == 2
    assert "not a UTF-8 text file" in capsys.readouterr().err


def test_verify_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"check": "lemma1\xff"}')
    assert main(["verify", "--config", str(path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_group_unknown_builtin(capsys):
    code = main(["group", "builtin", "Q8"])
    assert code == 2


def test_homology_small(capsys):
    code = main(["homology", "--i", "1", "--group", "C1", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    for n in (1, 2, 3):
        assert f"n={n}: betti H_n = 0" in out


def test_homology_size_limit_exit_three(capsys):
    code = main(["homology", "--i", "2", "--group", "S3", "--n", "3"])
    assert code == 3
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", ["", ","])
def test_homology_rejects_empty_coefficient_list(capsys, coeffs):
    code = main(["homology", "--i", "1", "--coeffs", coeffs])
    captured = capsys.readouterr()
    assert code == 2
    assert "coefficient list is empty" in captured.err
    assert captured.out == ""


def test_homology_with_dual_coefficients(capsys):
    code = main(["homology", "--i", "1", "--group", "C2", "--n", "2",
                 "--coeffs", "regular,dual-regular"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("H_0 dim") == 2


# --------------------------------------------------------------------- reports

def small_campaign():
    return Campaign(
        instances=[Instance(1, 1, "C1"), Instance(2, 2, "C1"), Instance(3, 3, "C1")],
        checks=["lemma1", "self_induced", "morita_matrix"],
    )


def test_report_schema_valid():
    payload = run_campaign(small_campaign()).to_dict()
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_report_matches_golden():
    payload = run_campaign(small_campaign()).to_dict()
    payload["timing"] = {"generated_at": "", "elapsed_s": []}
    with open(os.path.join(GOLDEN, "lemma1_report.json"), "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert render_report_json(payload) == golden


# The ROADMAP anchor. A change meant to leave results alone keeps it; a
# change of results on purpose updates it here and in ROADMAP.
ANCHOR_DIGEST = "sha256:3233cb14fe2cb2bf7f8098022a0ff473641290697caad8ce9d063b7bd5d6bbc1"


def test_default_campaign_digest_is_the_anchor():
    assert run_campaign(default_campaign()).to_dict()["digest"] == ANCHOR_DIGEST


def test_report_digest_ignores_timing():
    payload = run_campaign(small_campaign()).to_dict()
    recomputed = report_digest(payload)
    assert payload["digest"] == recomputed
    payload["timing"] = {"generated_at": "someday", "elapsed_s": [1.0]}
    assert report_digest(payload) == recomputed


def test_determinism_byte_identical_modulo_timing():
    camp = default_campaign()
    one = run_campaign(camp).to_dict()
    two = run_campaign(camp).to_dict()
    one.pop("timing")
    two.pop("timing")
    assert render_report_json(one) == render_report_json(two)


def test_report_round_trip(tmp_path, capsys):
    payload = run_campaign(small_campaign()).to_dict()
    path = tmp_path / "report.json"
    path.write_text(render_report_json(payload))
    code = main(["report", str(path), "--format", "structured"])
    rendered = capsys.readouterr().out
    assert code == 0
    # render(parse(render(r))) == render(r)
    assert rendered == render_report_json(json.loads(rendered))
    code = main(["report", str(path), "--format", "text"])
    text = capsys.readouterr().out
    assert code == 0
    assert text == render_report_text(payload)
    assert text.count("PASS") == len(payload["results"])


def test_report_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["report", str(path)]) == 2
    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"schema_version": 1}))
    assert main(["report", str(path2)]) == 2


def test_report_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"schema_version": 1\xff}')
    assert main(["report", str(path)]) == 2
    assert "cannot read report" in capsys.readouterr().err


@pytest.mark.parametrize("results", [[1], [{"check": "split"}, "pass"], 5])
def test_report_with_malformed_results_exits_two(tmp_path, capsys, results):
    path = tmp_path / "report.json"
    keys = ("schema_version", "tool_version", "campaign", "digest")
    path.write_text(json.dumps({**{k: 1 for k in keys}, "results": results}))
    assert main(["report", str(path)]) == 2
    assert "malformed report" in capsys.readouterr().err


def test_report_top_level_string_exits_two(tmp_path, capsys):
    # a string holding the five field names passes a substring test
    path = tmp_path / "report.json"
    path.write_text(json.dumps("schema_version tool_version campaign results digest"))
    assert main(["report", str(path)]) == 2
    assert "malformed report: the report must be a JSON object" in capsys.readouterr().err


_GOOD_RESULT = {"check": "split", "status": "pass", "instance": {"i": 1, "j": 2, "group": "C2"}}


@pytest.mark.parametrize("result", [
    {},
    {**_GOOD_RESULT, "instance": {"i": 1, "group": "C2"}},
    {**_GOOD_RESULT, "status": 1},
    {**_GOOD_RESULT, "check": None},
    {**_GOOD_RESULT, "instance": [1, 2, "C2"]},
], ids=["empty result", "instance without j", "non-string status",
        "non-string check", "instance not an object"])
def test_report_with_malformed_result_fields_exits_two(tmp_path, capsys, result):
    path = tmp_path / "report.json"
    keys = ("schema_version", "tool_version", "campaign", "digest")
    path.write_text(json.dumps({**{k: 1 for k in keys}, "results": [_GOOD_RESULT, result]}))
    assert main(["report", str(path)]) == 2
    assert "malformed report: result 1 needs" in capsys.readouterr().err


def test_report_with_well_formed_minimal_result_renders(tmp_path, capsys):
    path = tmp_path / "report.json"
    keys = ("schema_version", "tool_version", "campaign", "digest")
    path.write_text(json.dumps({**{k: 1 for k in keys}, "results": [_GOOD_RESULT]}))
    assert main(["report", str(path)]) == 0
    assert "PASS    split          i=1 j=2 group=C2" in capsys.readouterr().out


def test_verify_out_writes_valid_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--check", "lemma1", "--i", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_config_file_mirrors_flags_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"i": "1,2", "check": "lemma1", "group": "C1"}))
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2
    # the flag overrides the config's i list
    code = main(["verify", "--config", str(cfg), "--i", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 1


def test_jobs_flag_keeps_report_order(capsys):
    camp_a = Campaign(
        instances=[Instance(i, i, "C1") for i in (1, 2, 3, 4)],
        checks=["lemma1"], jobs=1,
    )
    camp_b = Campaign(
        instances=[Instance(i, i, "C1") for i in (1, 2, 3, 4)],
        checks=["lemma1"], jobs=4,
    )
    a = run_campaign(camp_a).to_dict()
    b = run_campaign(camp_b).to_dict()
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_cli_import_leaves_the_thread_pool_unloaded(child_env):
    # concurrent.futures (and the logging it pulls in) is for --jobs > 1 only
    probe = ("import sys, moritalab.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60, env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_campaign_validation():
    with pytest.raises(ConfigError):
        Campaign(instances=[Instance(1, 1, "C1")], checks=[])
    with pytest.raises(ConfigError):
        Campaign(instances=[Instance(0, 1, "C1")], checks=["lemma1"])
    with pytest.raises(ConfigError):
        Campaign(instances=[Instance(1, 1, "C1")], checks=["homology"], n_max=-1)
    with pytest.raises(ConfigError):
        Campaign(instances=[Instance(1, 1, "C1")], checks=["homology"], size_limit=0)
    with pytest.raises(ConfigError):
        Campaign(instances=[Instance(1, 1, "C1")], checks=["lemma1"], jobs=0)
    with pytest.raises(ConfigError, match="at least one instance"):
        Campaign(instances=[], checks=["lemma1"])


@pytest.mark.parametrize("how", ["flag", "config"])
def test_verify_rejects_an_empty_group_list(tmp_path, capsys, how):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"i": "1", "check": "lemma1", "group": ""}))
    argv = {"flag": ["--check", "lemma1", "--i", "1", "--group", ","],
            "config": ["--config", str(cfg)]}[how]
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "campaign needs at least one instance" in captured.err


def test_failed_check_exits_one(monkeypatch, capsys):
    # every honest instance passes, so pin the exit-code contract by
    # injecting a failing check result
    import moritalab.cli as cli_mod

    def failing(inst, campaign):
        return cli_mod.CheckResult("lemma1", inst, "fail", {"reason": "injected"})

    monkeypatch.setitem(cli_mod.CHECK_RUNNERS, "lemma1", failing)
    code = main(["verify", "--check", "lemma1", "--i", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_verification_failure_surfaces_as_failed_check(monkeypatch, capsys):
    import moritalab.cli as cli_mod
    from moritalab.morita import VerificationFailed

    def exploding(inst, campaign):
        raise VerificationFailed("pq_tensor_iso", "injected defect")

    monkeypatch.setitem(cli_mod.CHECK_RUNNERS, "morita_matrix", exploding)
    code = main(["verify", "--check", "morita_matrix", "--i", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_missing_group_file_is_config_error(capsys):
    code = main(["verify", "--check", "split", "--i", "1",
                 "--group", "/nonexistent/file.cayley"])
    assert code == 2
    assert "group" in capsys.readouterr().err


def test_homology_missing_group_file_is_config_error(capsys):
    code = main(["homology", "--i", "1", "--group", "/nonexistent/file.cayley"])
    assert code == 2
    assert "group '/nonexistent/file.cayley'" in capsys.readouterr().err


def test_cli_subprocess_smoke(child_env):
    result = subprocess.run(
        [sys.executable, "-m", "moritalab.cli", "verify", "--check", "lemma1",
         "--i", "1,2"],
        capture_output=True, text=True, timeout=120, env=child_env,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_cli_help_subprocess(child_env):
    result = subprocess.run(
        [sys.executable, "-m", "moritalab.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert result.returncode == 0
    assert "usage:" in result.stdout.lower()
