import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from radialtyz.cli import RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gh_eval_contains_exact_table_fraction(capsys):
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "epsilon", "--eps", "1", "--n", "2",
        "--x", "3/4", "--hmax", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][7]["value"]["value"] == "-12294367331/2373046875"
    assert payload["values"][7]["sign"] == "negative"


def test_scan_flat_family_empty(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "epsilon", "--eps", "0", "--n", "2",
        "--x-grid", "1/2:3:5", "--hmax", "6",
    )
    assert code == 0
    assert json.loads(out)["hits"] == []


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "epsilon", "--eps", "1", "--n", "5",
        "--x-grid", "6/5:6/5:1", "--hmax", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,x,h,value,sign,backend,precision_bits"
    assert len(lines) == 2 and ",4," in lines[1] and "negative" in lines[1]


GH_EVAL_CSV = """\
family,x,h,value,sign,backend,precision_bits
epsilon(eps=1,lambda=1,n=2),3/4,0,1.0,positive,rational,
epsilon(eps=1,lambda=1,n=2),3/4,1,1.66666666666666666666666666667,positive,rational,
epsilon(eps=1,lambda=1,n=2),3/4,2,1.35555555555555555555555555556,positive,rational,
epsilon(eps=1,lambda=1,n=2),3/4,3,1.99377777777777777777777777778,positive,rational,
"""
GH_EVAL_TABLE = """\
g_h at x = 3/4 for epsilon(eps=1,lambda=1,n=2)
  h=0   1                                              [positive]
  h=1   5/3                                            [positive]
  h=2   61/45                                          [positive]
  h=3   2243/1125                                      [positive]
"""


@pytest.mark.parametrize("fmt, want", [("csv", GH_EVAL_CSV), ("table", GH_EVAL_TABLE)])
def test_gh_eval_text_formats_pinned(capsys, fmt, want):
    code, out, _ = run_cli(
        capsys, "gh-eval", "--eps", "1", "--n", "2", "--x", "3/4", "--hmax", "3",
        "--format", fmt,
    )
    assert code == 0
    assert out == want


def test_lu_coeffs_simanca_zero_a2_a3(capsys):
    code, out, _ = run_cli(
        capsys, "lu-coeffs", "--family", "simanca", "--dim", "2", "--x", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a2"]["value"] == "0"
    assert payload["a3"]["value"] == "0"
    for key in ("a1", "rho", "R2", "Ric2", "DRho2", "DRic2", "DR2", "sigma3Ric",
                "RRicRic", "RicRR", "divdivRRic", "divdivRhoRic", "lapRho",
                "laplapRho"):
        assert key in payload


def test_lu_coeffs_table_shows_ball_radius(capsys):
    # a1 is 0 at this Ricci-flat point; at 24 bits its ball is about 1e-3
    # wide around a midpoint of -3.4e-6, so the table prints the radius, and
    # its sign is undetermined, so the CLI exits 2
    argv = ("lu-coeffs", "--eps", "1", "--n", "3", "--x", "3/4", "--precision-bits", "24")
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 2
    a1 = next(line for line in out.splitlines() if line.split()[:1] == ["a1"])
    assert a1.split()[1:] == ["-3.3792e-6", "±", "0.00083"]
    code, csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2 and "±" not in csv


def test_resolvability_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "resolvability", "--family", "epsilon", "--eps", "-1", "--n", "2",
        "--x", "101/100", "--lmax", "1", "--hmax", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "obstructed"
    assert payload["first_negative"] == {"l": 0, "h": 3}
    assert len(payload["minors"]) == 2 and len(payload["minors"][0]) == 4


def test_embedding_check(capsys):
    code, out, _ = run_cli(capsys, "embedding-check", "--max-degree", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_ricci_flat_check(capsys):
    code, out, _ = run_cli(
        capsys, "ricci-flat-check", "--family", "eguchi-hanson", "--samples", "1/2,1,2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ricci_flat_on_samples"] is True


def test_ricci_flat_check_custom_family_takes_n(tmp_path, capsys):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2", "1", "1"]}))
    code, out, _ = run_cli(
        capsys, "ricci-flat-check", "--family", "custom", "--custom-json", str(pot),
        "--n", "2", "--samples", "4/5",
    )
    assert code == 0
    # (n-1) f''/f' + (2 f'' + x f''')/(f' + x f'') = -25/36 + 3/40 at x = 4/5
    sample = json.loads(out)["samples"][0]
    assert (sample["residual"]["value"], sample["sign"]) == ("-223/360", "negative")


def test_domain_validation_rejected_before_compute(capsys):
    code, _, err = run_cli(
        capsys, "gh-eval", "--family", "epsilon", "--eps", "-1", "--n", "2",
        "--x", "1/2", "--hmax", "3",
    )
    assert code == 3
    assert "x > 1" in err


def test_usage_error_exits_with_input_error_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gh-eval", "--family", "epsilon", "--eps", "1", "--n", "2", "--hmax", "3"])
    assert exc.value.code == 3
    assert "--x" in capsys.readouterr().err


def test_sign_needed_by_the_computation_undetermined_exits_inconclusive(capsys):
    code, out, err = run_cli(
        capsys, "lu-coeffs", "--family", "epsilon", "--eps", "1", "--n", "3",
        "--x", "1/1000000", "--precision-bits", "16",
    )
    assert code == 2 and out == ""
    assert "undetermined" in err


def test_output_determinism(capsys):
    args = (
        "gh-eval", "--family", "epsilon", "--eps", "1", "--n", "3",
        "--x", "3/4", "--hmax", "5",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "simanca", "--x", "1", "--hmax", "2",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["values"][1]["value"]["value"] == "2"


def test_reproduce_single_item(capsys):
    code, out, _ = run_cli(
        capsys, "reproduce-paper", "--item", "table-n2-h7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["items"][0]["item"] == "table-n2-h7"


def test_exact_flag_forces_exact_backend(capsys):
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "epsilon", "--eps", "1", "--n", "3",
        "--x", "3/4", "--hmax", "3", "--exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][2]["backend"] == "root"


def test_runconfig_round_trip():
    cfg = RunConfig(
        subcommand="gh-eval", family="epsilon", eps=1, lam="1", n=2,
        x="3/4", hmax=7, precision_bits=256,
    )
    again = RunConfig(**json.loads(json.dumps(cfg.to_json_dict())))
    assert again == cfg
    cfg.validate()


def test_runconfig_rejects_inconsistent_combination():
    cfg = RunConfig(subcommand="gh-eval", family="epsilon", eps=-1, n=2, x="1/2", hmax=3)
    with pytest.raises(Exception):
        cfg.validate()


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RADIALTYZ_PRECISION_BITS", "128")
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "epsilon", "--eps", "1", "--n", "3",
        "--x", "3/4", "--hmax", "2",
    )
    assert code == 0
    assert json.loads(out)["values"][2]["precision_bits"] == 128


def test_reproduce_low_precision_never_wrong_sign(capsys):
    code, out, _ = run_cli(
        capsys, "reproduce-paper", "--item", "ricci-flat-family",
        "--precision-bits", "64",
    )
    payload = json.loads(out)
    assert payload["items"][0]["status"] in ("pass", "inconclusive")
    assert code in (0, 2)


def test_custom_family_via_cli(tmp_path, capsys):
    import json as _json

    pot = tmp_path / "pot.json"
    pot.write_text(_json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2", "1", "1"]}))
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "custom", "--custom-json", str(pot),
        "--x", "4/5", "--hmax", "3",
    )
    assert code == 0
    assert json.loads(out)["values"][1]["value"]["value"] == "9/4"


@pytest.mark.parametrize("case", ["precision-env", "custom-missing", "custom-keys", "out-dir"])
def test_input_errors_exit_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    argv = ["gh-eval", "--family", "custom", "--custom-json", str(tmp_path / "pot.json"),
            "--x", "4/5", "--hmax", "2"]
    pot = {"x0": "4/5", "coefficients": ["9/4", "-25/16", "2"]}
    if case == "precision-env":
        monkeypatch.setenv("RADIALTYZ_PRECISION_BITS", "abc")
    elif case == "custom-keys":
        del pot["coefficients"]
    elif case == "out-dir":
        argv += ["--out", str(tmp_path / "missing-dir" / "report.json")]
    if case != "custom-missing":
        (tmp_path / "pot.json").write_text(json.dumps(pot))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("lmax, hmax", [("-1", "2"), ("2", "-1")])
def test_resolvability_negative_order_is_an_input_error(lmax, hmax, capsys):
    code, out, err = run_cli(
        capsys, "resolvability", "--eps", "1", "--n", "2", "--x", "3/4",
        "--lmax", lmax, "--hmax", hmax,
    )
    assert code == 3 and out == ""
    assert err == "error: lmax and hmax must be >= 0\n"


@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_unwritable_out_rejected_before_compute(target, tmp_path, capsys, monkeypatch):
    def run_items(*args, **kwargs):
        raise AssertionError("reproduce-paper ran before --out was checked")

    monkeypatch.setattr("radialtyz.cli.run_items", run_items)
    code, out, err = run_cli(capsys, "reproduce-paper", "--out", str(tmp_path / target))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --out ")


def test_import_does_not_load_sympy():
    # a subprocess, because other test modules import sympy into this one
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, radialtyz, radialtyz.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
