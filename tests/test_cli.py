import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import crum
from crum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_list(capsys):
    code, out, _ = run_cli(capsys, "families", "list")
    assert code == 0
    for name in ("hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"):
        assert name in out


def test_chain_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "chain", "--family", "q_hermite",
                             "--param", "q=0.5", "--depth", "2", "--nmax", "5",
                             "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["schema"] == "crum-report/1"
    assert report["status"] == "pass"
    assert report["config"]["family"] == "q_hermite"
    assert out == ""          # nothing but the report may reach stdout


def test_chain_at_q_near_1_writes_a_report(tmp_path, capsys):
    # the shifted ground state of q = 0.99 is about 1e-20 near the ends of the
    # interval: small, not zero, so the virtual state is checked, not refused
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "chain", "--family", "q_hermite", "--param", "q=0.99",
                           "--depth", "2", "--seed", "7", "--out", str(out_file))
    assert code == 0, err
    report = json.loads(out_file.read_text())
    assert report["virtual_state"]["pass"] and report["status"] == "pass"


def test_chain_stdout_only_json(capsys):
    code, out, err = run_cli(capsys, "chain", "--family", "hermite",
                             "--depth", "1", "--nmax", "3", "--out", "-")
    assert code == 0
    parsed = json.loads(out)   # stdout must parse as a single JSON document
    assert parsed["family"] == "hermite"


def test_parameter_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "chain", "--family", "laguerre",
                             "--param", "g=0.5", "--depth", "1")
    assert code == 2
    assert "g > 1" in err


def test_malformed_param_exit_code(capsys):
    code, _, err = run_cli(capsys, "chain", "--family", "hermite", "--param", "oops")
    assert code == 2


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_limit_csv(tmp_path, capsys):
    out_csv = tmp_path / "limits.csv"
    code, _, _ = run_cli(capsys, "limit", "--mode", "c-to-inf",
                         "--c", "10,100,1000", "--csv", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert "\r" not in text                      # LF line endings
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["mode"] == "c_to_inf"
    slopes = {float(r["fitted_slope"]) for r in rows}
    assert all(abs(s - 1.0) <= 0.25 for s in slopes)


def test_scan_gamma0_csv(capsys):
    code, out, _ = run_cli(capsys, "scan-gamma0", "--csv", "-")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["mode"] for r in rows} == {"gamma_to_0"}
    assert {"label", "parameter", "max_error", "fitted_slope"} <= set(rows[0])


def test_verify_subcommand_round_trip(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    run_cli(capsys, "chain", "--family", "hermite", "--depth", "1",
            "--nmax", "3", "--out", str(out_file))
    code, _, err = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    assert "re-verified hermite" in err
    # a report written by an older version stores its own path in the config
    stored = json.loads(out_file.read_text())
    assert "out" not in stored["config"]
    stored["config"]["out"] = str(out_file)
    old_file = tmp_path / "old-report.json"
    old_file.write_text(json.dumps(stored))
    code, _, err = run_cli(capsys, "verify", str(old_file))
    assert code == 0
    assert "re-verified hermite depth 1: pass" in err


def test_chain_with_a_skip_is_incomplete(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    # with nmax=2 the level-2 Gram block has fewer than two states: a skip
    code, _, err = run_cli(capsys, "chain", "--family", "hermite", "--depth", "2",
                           "--nmax", "2", "--seed", "1", "--out", str(out_file))
    assert code == 1
    assert json.loads(out_file.read_text())["status"] == "incomplete"
    assert "incomplete" in err


def test_chain_and_verify_with_complex_params(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    params = ["--param", "a1=0.3", "--param", "a2=-0.2", "--param", "a3=0.1+0.2j",
              "--param", "a4=0.1-0.2j", "--param", "q=0.6"]
    code, _, _ = run_cli(capsys, "chain", "--family", "askey_wilson", *params, "--depth", "1",
                         "--nmax", "3", "--samples", "4", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["config"]["params"]["a3"] == [0.1, 0.2]
    code, _, err = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    assert "re-verified askey_wilson depth 1: pass" in err


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "report.json"
    monkeypatch.setenv("CRUM_SEED", "777")
    run_cli(capsys, "chain", "--family", "hermite", "--depth", "1",
            "--nmax", "3", "--out", str(out_file))
    report = json.loads(out_file.read_text())
    assert report["seed"] == 777


def test_negative_depth_is_a_parameter_error(capsys):
    code, out, err = run_cli(capsys, "chain", "--family", "hermite", "--depth", "-1")
    assert code == 2
    assert "depth must be >= 1" in err


@pytest.mark.parametrize("family", [["hermite"], ["q_hermite", "--param", "q=0.5"]])
def test_nmax_beyond_the_family_range_exit_code(tmp_path, capsys, family):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "chain", "--family", *family, "--depth", "1",
                             "--nmax", "40", "--out", str(out_file))
    assert code == 2
    assert "nmax must be <= 32" in err
    assert not out_file.exists()


@pytest.mark.parametrize("family", [["hermite"], ["q_hermite", "--param", "q=0.5"]])
def test_depth_above_nmax_exit_code(tmp_path, capsys, family):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "chain", "--family", *family, "--depth", "2",
                             "--nmax", "1", "--out", str(out_file))
    assert code == 2
    assert "depth must be <= nmax" in err
    assert not out_file.exists()


def test_depth_zero_is_a_parameter_error(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "chain", "--family", "hermite", "--depth", "0",
                             "--out", str(out_file))
    assert code == 2
    assert "depth must be >= 1" in err
    assert not out_file.exists()


@pytest.mark.parametrize("text", [
    "not json {", "[1, 2]", '{"family": "hermite", "depth": "two"}',
    '{"family": "hermite", "depth": 0}',
    '{"family": "q_hermite", "params": [0.5]}',
    '{"family": "askey_wilson", "params": {"q": 0.6, "a1": [0.1, 0.2, 0.3]}}',
    '{"family": "hermite", "tolerances": [1e-9]}'])
def test_verify_bad_input_exit_code(tmp_path, capsys, text):
    stored = tmp_path / "report.json"
    stored.write_text(text)
    code, _, err = run_cli(capsys, "verify", str(stored))
    assert code == 2
    assert "parameter error" in err


def test_no_prefix_matching_of_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "scan-gamma0", "--c", "3")[0] == 2
    assert run_cli(capsys, "chain", "--fam", "hermite", "--depth", "1")[0] == 2
    assert list(tmp_path.iterdir()) == []        # no CSV went to a file named 3


@pytest.mark.parametrize("argv", [["--mode", "gamma-to-0", "--c", "1,2"],
                                  ["--mode", "c-to-inf", "--gammas", "0.1"]])
def test_limit_rejects_a_flag_of_the_other_mode(capsys, argv):
    code, out, err = run_cli(capsys, "limit", *argv)
    assert code == 2
    assert out == ""
    assert "does not apply" in err


def test_limit_malformed_list_exit_code(capsys):
    code, _, err = run_cli(capsys, "limit", "--mode", "c-to-inf", "--c", "10,abc")
    assert code == 2
    assert "comma list" in err


@pytest.mark.parametrize("argv", [["--mode", "c-to-inf", "--c", "0,10,100"],
                                  ["--mode", "gamma-to-0", "--gammas", "0,0.1,0.01"],
                                  ["--mode", "c-to-inf", "--c", "10"],
                                  ["--mode", "gamma-to-0", "--gammas", "0.1"],
                                  ["--mode", "c-to-inf", "--c", "10,nan"],
                                  ["--mode", "gamma-to-0", "--gammas", "inf,0.1"],
                                  ["--mode", "gamma-to-0", "--gammas=-0.1,0.01"],
                                  ["--mode", "c-to-inf", "--c", "10,10"],
                                  ["--mode", "gamma-to-0", "--gammas", "0.1,0.1"],
                                  ["--mode", "gamma-to-0", "--gammas", "0.1,0.1,0.01"],
                                  ["--mode", "c-to-inf", "--c", "10,10,100"]])
def test_limit_scan_values_outside_the_domain_exit_code(capsys, argv):
    # none of these can be scanned: a zero divides by zero, one value (or
    # one value repeated) has no slope, a repeat next to other values counts
    # twice in the fit, and nan / inf give NaN rows
    code, out, err = run_cli(capsys, "limit", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error:") and "Traceback" not in err


def test_non_integer_seed_env_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("CRUM_SEED", "abc")
    code, out, err = run_cli(capsys, "chain", "--family", "hermite", "--depth", "1")
    assert code == 2
    assert "CRUM_SEED" in err


def test_import_loads_no_scipy():
    # numpy is crum's only run-time dependency; a fresh interpreter, since
    # the tests' own oracles import scipy into this one
    src = str(pathlib.Path(crum.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**{k: v for k, v in os.environ.items() if k != "CRUM_SEED"}, "PYTHONPATH": path}
    code = "import sys, crum, crum.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
