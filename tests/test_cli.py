import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from radialtyz.cli import main


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
    assert lines[0] == "family,x,h,value,radius,sign,backend,precision_bits"
    assert len(lines) == 2 and ",4," in lines[1] and "negative" in lines[1]


GH_EVAL_CSV = """\
family,x,h,value,radius,sign,backend,precision_bits
"epsilon(eps=1,lambda=1,n=2)",3/4,0,1.0,,positive,rational,
"epsilon(eps=1,lambda=1,n=2)",3/4,1,1.66666666666666666666666666667,,positive,rational,
"epsilon(eps=1,lambda=1,n=2)",3/4,2,1.35555555555555555555555555556,,positive,rational,
"epsilon(eps=1,lambda=1,n=2)",3/4,3,1.99377777777777777777777777778,,positive,rational,
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


SCAN_HIT = "-0.141572775244049466991832183240948829871385275767993366586059510103738241158"
LU_SIMANCA = [("a1", "0"), ("a2", "0"), ("a3", "0"), ("rho", "0"), ("R2", "1/2"),
              ("Ric2", "1/8"), ("DRho2", "0"), ("DRic2", "3/16"), ("DR2", "9/8"),
              ("sigma3Ric", "0"), ("RRicRic", "-1/16"), ("RicRR", "1/16"), ("divdivRRic", "0"),
              ("divdivRhoRic", "0"), ("lapRho", "0"), ("laplapRho", "0"), ("lapCombo8", "0")]
LU_DECIMAL = {"0": "0.0", "1/2": "0.5", "1/8": "0.125", "3/16": "0.1875", "9/8": "1.125",
              "-1/16": "-0.0625", "1/16": "0.0625"}
MINORS = [
    ["1", "0.1403707611758200515144120647792928507536",
     "6.934179157519834024152162695350118306669", "-358.2212728649288735187659457549643296044"],
    ["7.123990720171842514917997377181922241479", "-98.37694365683314502409762675104258784478",
     "241828.3778403661773034707913969312495557", "1916162221.521310480970291940982596566193"],
]
MINOR_CSV = ["1.0", "0.140370761175820051514412064779", "6.93417915751983402415216269535",
             "-358.221272864928873518765945755", "7.12399072017184251491799737718",
             "-98.376943656833145024097626751", "241828.377840366177303470791397",
             "1916162221.52131048097029194098"]
MINOR_SIGNS = ["positive"] * 3 + ["negative", "positive", "negative", "positive", "positive"]
# the full CSV and table of one input per command, a run time shown as <runtime>
FORMAT_PINS = [
    (("scan", "--eps", "1", "--n", "5", "--x-grid", "6/5:6/5:1", "--hmax", "4"),
     "family,x,h,value,radius,sign,backend,precision_bits\n"
     '"epsilon(eps=1,lambda=1,n=5)",6/5,4,-0.141572775244049466991832183241,2.19e-74,'
     "negative,ball,256\n",
     "certified-negative g_h over 6/5:6/5:1 (hmax=4)\n"
     f"  x=6/5          h=4   {SCAN_HIT} ± 2.19e-74 [negative]\n"),
    (("scan", "--eps", "0", "--n", "2", "--x-grid", "1/2:3:5", "--hmax", "6"),
     "family,x,h,value,radius,sign,backend,precision_bits\n",
     "certified-negative g_h over 1/2:3:5 (hmax=6)\n  no hits\n"),
    (("lu-coeffs", "--family", "simanca", "--x", "1"),
     "name,value,radius\n" + "".join(f"{k},{LU_DECIMAL[v]},\n" for k, v in LU_SIMANCA),
     "Lu coefficients for simanca at x = 1 (dim 2)\n"
     + "".join(f"  {k:<14} {v}\n" for k, v in LU_SIMANCA)),
    (("resolvability", "--eps=-1", "--n", "2", "--x", "101/100", "--lmax", "1", "--hmax", "3"),
     "l,h,minor,radius,sign\n" + "".join(
         f"{i // 4},{i % 4},{m},,{s}\n" for i, (m, s) in enumerate(zip(MINOR_CSV, MINOR_SIGNS))),
     "minors for epsilon(eps=-1,lambda=1,n=2) at x = 101/100: obstructed\n"
     + "".join("  " + "  ".join(f"{m:>20}" for m in row) + "\n" for row in MINORS)
     + "note: necessary-condition check up to order (lmax, hmax): positivity of these "
       "finitely many minors does not certify projective inducedness\n"),
    (("ricci-flat-check", "--eps", "1", "--n", "3", "--samples", "1/2,3/4"),
     "x,residual,radius,sign\n1/2,0.0,,zero\n3/4,0.0,,zero\n",
     "d/dx log det g for epsilon(eps=1,lambda=1,n=3)\n"
     "  x=1/2        residual=0 [zero]\n  x=3/4        residual=0 [zero]\n"),
    (("embedding-check", "--max-degree", "4"),
     "max_degree,checked,mismatches,status\n4,14,0,pass\n",
     "embedding identity to degree 4: pass (14 coefficients)\n"),
    (("reproduce-paper", "--item", "table-n2-h7"),
     "item,status,runtime_s\ntable-n2-h7,pass,<runtime>\n",
     "PASS   table-n2-h7                     <runtime>\noverall: pass\n"),
]


@pytest.mark.parametrize("argv, csv_want, table_want", FORMAT_PINS, ids=[
    "scan-hits", "scan-no-hits", "lu-coeffs", "resolvability", "ricci-flat-check",
    "embedding-check", "reproduce-paper"])
def test_csv_and_table_formats_pinned(argv, csv_want, table_want, capsys):
    for fmt, want in (("csv", csv_want), ("table", table_want)):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        if argv[0] == "reproduce-paper":
            out = re.sub(r"(?m)(?<=[ ,])\d+\.\d+s?$", "<runtime>", out)
        assert (code, out, err) == (0, want, "")


def test_a_json_run_builds_no_other_format(capsys, monkeypatch):
    # the decimal and text forms of a root value each take a ball exp and log
    from radialtyz import cli

    def refuse(value):
        raise AssertionError("a JSON run built a CSV or table cell")

    monkeypatch.setattr(cli, "scalar_to_decimal", refuse)
    monkeypatch.setattr(cli, "scalar_to_text", refuse)
    code, out, _ = run_cli(capsys, "gh-eval", "--eps", "1", "--n", "3", "--x", "3/4",
                           "--hmax", "3", "--exact")
    assert code == 0
    assert json.loads(out)["values"][2]["backend"] == "root"


CSV_HEADERS = {
    "gh-eval": "family,x,h,value,radius,sign,backend,precision_bits",
    "scan": "family,x,h,value,radius,sign,backend,precision_bits",
    "ricci-flat-check": "x,residual,radius,sign",
    "embedding-check": "max_degree,checked,mismatches,status",
    "reproduce-paper": "item,status,runtime_s",
}


TEXT_ARGV = [
    ("gh-eval", "--eps", "1", "--n", "2", "--x", "3/4", "--hmax", "3"),
    ("gh-eval", "--eps", "1", "--lam", "3/2", "--n", "3", "--x", "3/4", "--hmax", "2",
     "--precision-bits", "64"),
    ("scan", "--eps", "1", "--n", "5", "--x-grid", "6/5:6/5:1", "--hmax", "4"),
    ("gh-eval", "--family", "custom", "--x", "4/5", "--hmax", "2"),
    ("ricci-flat-check", "--eps", "1", "--n", "3", "--samples", "1/2,3/4"),
    ("embedding-check", "--max-degree", "4"),
    ("reproduce-paper", "--item", "table-n2-h7"),
]


def _with_custom_json(argv: tuple, tmp_path) -> tuple:
    if "custom" not in argv:
        return argv
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2", "1", "1"]}))
    return argv + ("--custom-json", str(pot))


@pytest.mark.parametrize("argv", TEXT_ARGV)
def test_obstruction_csv_rows_have_as_many_cells_as_the_header(argv, tmp_path, capsys):
    argv = _with_custom_json(argv, tmp_path)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADERS[argv[0]].split(",")
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    if rows[0][0] == "family":
        main([*argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert {row[0] for row in rows[1:]} == {payload["family"]}


# exit code and leading lines of each command's table, a run time shown as
# " <runtime>": TEXT_ARGV, then a scan with no hits, resolvability (absent
# from TEXT_ARGV, as it writes no obstruction rows) and an undetermined sign
TABLE_CASES = list(zip(TEXT_ARGV, [
    (0, ["g_h at x = 3/4 for epsilon(eps=1,lambda=1,n=2)"]),
    (0, ["g_h at x = 3/4 for epsilon(eps=1,lambda=3/2,n=3)"]),
    (0, ["certified-negative g_h over 6/5:6/5:1 (hmax=4)"]),
    (0, ["g_h at x = 4/5 for custom(x0=4/5,order=4)"]),
    (0, ["d/dx log det g for epsilon(eps=1,lambda=1,n=3)", "  x=1/2        residual=0 [zero]"]),
    (0, ["embedding identity to degree 4: pass (14 coefficients)"]),
    (0, ["PASS   table-n2-h7 <runtime>", "overall: pass"]),
])) + [
    (("scan", "--eps", "1", "--n", "6", "--x-grid", "1:3/2:2", "--hmax", "7",
      "--precision-bits", "16"),
     (0, ["certified-negative g_h over 1:3/2:2 (hmax=7)"])),
    (("scan", "--eps", "0", "--n", "2", "--x-grid", "1/2:3:5", "--hmax", "6"),
     (0, ["certified-negative g_h over 1/2:3:5 (hmax=6)", "  no hits"])),
    (("ricci-flat-check", "--eps", "1", "--n", "2", "--samples", "1/2,1"),
     (0, ["d/dx log det g for epsilon(eps=1,lambda=1,n=2)", "  x=1/2        residual=0 [zero]"])),
    (("resolvability", "--eps", "-1", "--n", "2", "--x", "101/100", "--lmax", "1", "--hmax", "3"),
     (0, ["minors for epsilon(eps=-1,lambda=1,n=2) at x = 101/100: obstructed"])),
    (("resolvability", "--eps", "1", "--n", "3", "--x", "2", "--lmax", "1", "--hmax", "4",
      "--precision-bits", "16"),
     (0, ["minors for epsilon(eps=1,lambda=1,n=3) at x = 2.0: all-positive"])),
    (("gh-eval", "--eps", "1", "--n", "4", "--x", "3/4", "--hmax", "12", "--precision-bits", "16"),
     (2, ["g_h at x = 3/4 for epsilon(eps=1,lambda=1,n=4)"])),
]


@pytest.mark.parametrize("argv, want", TABLE_CASES)
def test_table_format_heading_and_exit_code(argv, want, tmp_path, capsys):
    code, out, _ = run_cli(capsys, *_with_custom_json(argv, tmp_path), "--format", "table")
    lines = [re.sub(r"\s+\d+\.\d+s$", " <runtime>", line) for line in out.splitlines()]
    assert (code, lines[:len(want[1])]) == want

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
    # the CSV radius column is the JSON radius of each ball
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    rows = [line.split(",") for line in csv.splitlines()]
    assert rows[0] == ["name", "value", "radius"]
    assert {r[0]: r[2] for r in rows[1:]} == {
        k: v["radius"] for k, v in payload.items() if isinstance(v, dict)
    }
    assert ["a3", "841.0"] == [rows[3][0], rows[3][2]]


@pytest.mark.parametrize("argv, radius", [
    (("resolvability", "--eps", "1", "--n", "3", "--x", "3/4", "--lmax", "1", "--hmax", "1"),
     ["0.0", "1.73e-77", "1.25e-76", "2.57e-75"]),
    (("resolvability", "--eps", "1", "--n", "2", "--x", "3/4", "--lmax", "1", "--hmax", "1"),
     ["", "", "", ""]),
    (("gh-eval", "--eps", "1", "--n", "3", "--x", "3/4", "--hmax", "1", "--precision-bits", "16"),
     ["", "4.58e-5"]),
])
def test_csv_radius_column_shows_ball_radii_and_is_empty_for_exact_values(argv, radius, capsys):
    code, csv, _ = run_cli(capsys, *argv, "--format", "csv")
    header, *rows = [line.split(",") for line in csv.splitlines()]
    col = header.index("radius") - len(header)  # from the end: family labels hold commas
    assert [r[col] for r in rows] == radius


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


def test_resolvability_reads_a_negative_fraction_after_s(capsys):
    common = ("resolvability", "--family", "epsilon", "--eps=1", "--n", "2",
              "--lmax", "1", "--hmax", "2")
    code, spaced, err = run_cli(capsys, *common, "--s", "-1/2")
    assert (code, err) == (0, "")
    assert run_cli(capsys, *common, "--s=-1/2") == (0, spaced, "")
    assert json.loads(spaced)["x"] == "1/4"


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


EDGE_POINT = ["--eps=-1", "--n", "3", "--x", "65537/65536", "--precision-bits", "16"]


@pytest.mark.parametrize("argv", [
    ["gh-eval", *EDGE_POINT, "--hmax", "3"], ["lu-coeffs", *EDGE_POINT], ["resolvability", *EDGE_POINT],
], ids=["gh-eval", "lu-coeffs", "resolvability"])
def test_a_point_the_precision_cannot_place_in_the_domain_exits_inconclusive(argv, capsys):
    # the 16-bit ball of x = 65537/65536 reaches 1: no input error, as at 24
    # bits the point is placed
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: eps=-1 family needs x > 1: the ball of x reaches 1; raise the precision\n"


def test_scan_certifies_a_point_near_the_domain_edge_at_a_doubled_precision(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--eps=-1", "--n", "3", "--x-grid", "65537/65536:2:3", "--hmax", "3",
        "--precision-bits", "16",
    )
    hits = json.loads(out)["hits"]
    assert code == 0
    assert [(h["x"], h["h"], h["sign"], h["precision_bits"]) for h in hits] == [
        ("65537/65536", 3, "negative", 32)]


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


def test_reproduce_unknown_item_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "reproduce-paper", "--item", "no-such-item")
    assert (code, out, err) == (3, "", "error: unknown reproduction item 'no-such-item'\n")


def test_exact_flag_forces_exact_backend(capsys):
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "epsilon", "--eps", "1", "--n", "3",
        "--x", "3/4", "--hmax", "3", "--exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][2]["backend"] == "root"


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RADIALTYZ_PRECISION_BITS", "128")
    code, out, _ = run_cli(
        capsys, "gh-eval", "--family", "epsilon", "--eps", "1", "--n", "3",
        "--x", "3/4", "--hmax", "2",
    )
    assert code == 0
    assert json.loads(out)["values"][2]["precision_bits"] == 128


@pytest.mark.parametrize("source", ["flag", "env"])
def test_precision_below_16_bits_is_an_input_error(source, capsys, monkeypatch):
    argv = ["gh-eval", "--eps", "1", "--n", "3", "--x", "3/4", "--hmax", "2"]
    if source == "flag":
        argv += ["--precision-bits", "15"]
    else:
        monkeypatch.setenv("RADIALTYZ_PRECISION_BITS", "15")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "error: precision_bits must be at least 16\n")


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


@pytest.mark.parametrize("argv", [
    ("gh-eval", "--x", "4/5", "--hmax", "3"),
    ("ricci-flat-check", "--n", "2", "--samples", "4/5"),
])
def test_custom_family_is_read_once_per_call(argv, tmp_path, capsys, monkeypatch):
    from radialtyz import cli

    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2", "1", "1"]}))
    calls = []
    load = cli.load_custom_potential
    monkeypatch.setattr(cli, "load_custom_potential", lambda path: calls.append(path) or load(path))
    code, out, _ = run_cli(capsys, argv[0], "--family", "custom", "--custom-json", str(pot),
                           *argv[1:])
    assert code == 0 and json.loads(out)["family"].startswith("custom(")
    assert calls == [str(pot)]


@pytest.mark.parametrize("family", ["simanca", "eguchi-hanson"])
def test_n_for_a_family_of_fixed_dimension_is_an_input_error(family, capsys):
    code, out, err = run_cli(
        capsys, "ricci-flat-check", "--family", family, "--n", "7", "--samples", "1/2",
    )
    assert code == 3 and out == ""
    assert err == f"error: --n does not apply to family {family}, whose dimension is 2\n"


def test_lu_coeffs_takes_a_custom_potentials_dimension_from_n(tmp_path, capsys):
    pot = tmp_path / "pot.json"
    coeffs = ["9/4", "-25/16", "2"] + ["1"] * 7  # f' to order 9, as jet order 4 needs
    pot.write_text(json.dumps({"x0": "3/4", "coefficients": coeffs}))
    argv = ("lu-coeffs", "--family", "custom", "--custom-json", str(pot), "--x", "3/4")
    results = {}
    for extra in (("--n", "3"), ("--dim", "3"), ("--dim", "2")):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0, err
        results[extra] = json.loads(out)
    assert results[("--n", "3")]["dim"] == 3
    assert results[("--n", "3")] == results[("--dim", "3")] != results[("--dim", "2")]
    # a custom potential has no dimension of its own: with neither flag there is none
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: dimension required for a custom potential: pass --n or --dim\n"


@pytest.mark.parametrize("argv", [
    ("gh-eval", "--x", "4/5", "--hmax", "2"),
    ("scan", "--x-grid", "4/5:1:2", "--hmax", "2"),
    ("resolvability", "--x", "4/5", "--lmax", "1", "--hmax", "1"),
])
def test_n_for_a_custom_family_that_reads_no_dimension_is_an_input_error(argv, tmp_path, capsys):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2", "1", "1"]}))
    code, out, err = run_cli(capsys, argv[0], "--family", "custom", "--custom-json", str(pot),
                             "--n", "3", *argv[1:])
    assert code == 3 and out == ""
    assert err == f"error: --n does not apply to {argv[0]}, which reads no dimension\n"


@pytest.mark.parametrize("family", ["simanca", "eguchi-hanson", "custom"])
@pytest.mark.parametrize("flag", [("--eps", "1"), ("--eps=-1",), ("--lam", "5"), ("--lam", "1")])
def test_eps_or_lam_for_another_family_is_an_input_error(family, flag, tmp_path, capsys):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2", "1", "1"]}))
    argv = ["ricci-flat-check", "--family", family, *flag, "--samples", "4/5"]
    if family == "custom":
        argv += ["--custom-json", str(pot), "--n", "2"]
    code, out, err = run_cli(capsys, *argv)
    name = flag[0].split("=")[0]
    assert code == 3 and out == ""
    assert err == f"error: {name} applies only to the epsilon family, not {family}\n"


RICCI = ["ricci-flat-check", "--eps", "1", "--lam", "3/2", "--n", "3", "--samples", "3/4"]
# commands given a flag they do not read, and a one-step grid with distinct endpoints
OWN_ARGV = {
    "ricci-precision-bits": RICCI + ["--precision-bits", "16"],
    "ricci-exact": RICCI + ["--exact"],
    "embedding-precision-bits": ["embedding-check", "--precision-bits", "64"],
    "embedding-exact": ["embedding-check", "--exact"],
    "reproduce-exact": ["reproduce-paper", "--item", "table-n2-h7", "--exact"],
    "grid-one-step": ["scan", "--eps=-1", "--n", "2", "--x-grid", "3031/3000:2:1", "--hmax", "3"],
}


@pytest.mark.parametrize("case", ["precision-env", "custom-missing", "custom-keys", "custom-number",
                                  "custom-string", "out-dir", *OWN_ARGV])
def test_input_errors_exit_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    argv = OWN_ARGV.get(case) or [
        "gh-eval", "--family", "custom", "--custom-json", str(tmp_path / "pot.json"),
        "--x", "4/5", "--hmax", "2"]
    pot = {"x0": "4/5", "coefficients": ["9/4", "-25/16", "2"]}
    if case == "precision-env":
        monkeypatch.setenv("RADIALTYZ_PRECISION_BITS", "abc")
    elif case == "custom-keys":
        del pot["coefficients"]
    elif case in ("custom-number", "custom-string"):
        pot["coefficients"] = 5 if case == "custom-number" else "23"  # "23" is no list of 2, 3
    elif case == "out-dir":
        argv += ["--out", str(tmp_path / "missing-dir" / "report.json")]
    if case != "custom-missing":
        (tmp_path / "pot.json").write_text(json.dumps(pot))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if case in OWN_ARGV and case != "grid-one-step":
        flag = "--exact" if case.endswith("exact") else "--precision-bits"
        assert err == f"error: {flag} does not apply to {argv[0]}, which does not read it\n"


def test_precision_env_stays_a_default_for_commands_that_do_not_read_it(capsys, monkeypatch):
    monkeypatch.setenv("RADIALTYZ_PRECISION_BITS", "64")
    code, out, err = run_cli(capsys, *RICCI)
    assert code == 0 and err == ""
    assert json.loads(out)["ricci_flat_on_samples"] is True


@pytest.mark.parametrize("argv", [
    ("lu-coeffs", "--family", "simanca", "--dim", "0", "--x", "1"),
    ("lu-coeffs", "--family", "simanca", "--dim", "-2", "--x", "1"),
    ("lu-coeffs", "--family", "custom", "--n", "0", "--x", "4/5"),
    ("ricci-flat-check", "--family", "custom", "--n", "0", "--samples", "4/5"),
    ("ricci-flat-check", "--family", "custom", "--n", "-1", "--samples", "4/5"),
], ids=["lu-dim-0", "lu-dim-negative", "lu-custom-n-0", "ricci-custom-n-0",
        "ricci-custom-n-negative"])
def test_a_dimension_below_1_is_an_input_error(argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, *_with_custom_json(argv, tmp_path))
    dim = argv[argv.index("--dim" if "--dim" in argv else "--n") + 1]
    assert code == 3 and out == ""
    assert err == f"error: dimension n must be at least 1, not {dim}\n"


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

    monkeypatch.setattr("radialtyz.reproduction.run_items", run_items)
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


@pytest.mark.parametrize("argv", [
    [],
    ["gh-eval", "--family", "epsilon", "--eps=1", "--lam", "1", "--n", "2", "--x", "3/4",
     "--hmax", "8"],
    ["lu-coeffs", "--family", "simanca", "--dim", "2", "--x", "1"],
], ids=["import", "gh-eval", "lu-coeffs"])
def test_exact_runs_do_not_load_mpmath(argv):
    # mpmath loads at the first ball exp, log or decimal printing, which exact
    # runs never reach; the package loads a layer only when a command reads it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = f"assert radialtyz.cli.main({argv!r}) == 0\n" if argv else ""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, radialtyz\n"
         "print(*[m for m in sys.modules if m.startswith('radialtyz.')])\n"
         f"import radialtyz.cli\n{run}print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()  # the report, if any, in between
    bare, loaded = lines[0], set(lines[-1].split())
    assert bare == "" and "mpmath" not in loaded
    if argv and argv[0] == "lu-coeffs":
        assert "radialtyz.curvature" in loaded
    else:
        assert not loaded & {"radialtyz.curvature", "radialtyz.reproduction", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ["gh-eval", "--family", "epsilon", "--eps=1", "--lam", "1", "--n", "4", "--x", "1/2",
     "--hmax", "4"],
    ["scan", "--family", "epsilon", "--eps=1", "--lam", "1", "--n", "3", "--x-grid",
     "1/2:3/2:4", "--hmax", "4"],
    ["resolvability", "--family", "epsilon", "--eps=1", "--lam", "1", "--n", "3", "--x", "3/4",
     "--lmax", "2", "--hmax", "3"],
    ["lu-coeffs", "--family", "eguchi-hanson", "--x", "1"],
], ids=["gh-eval", "scan", "resolvability", "lu-coeffs"])
def test_ball_runs_load_libmp_without_mpmath(argv):
    # ball exp and log and every printed decimal (lu-coeffs prints root
    # decimals) take mpmath's libmp, loaded on its own; a process that imported
    # mpmath first reuses its libmp and prints the same bytes in each format
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = (
        "import contextlib, io, sys\n"
        "import radialtyz.cli\n"
        "for fmt in ('json', 'csv', 'table'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"        code = radialtyz.cli.main({argv!r} + ['--format', fmt])\n"
        "    print(repr((fmt, code, out.getvalue())))\n"
        "print('mpmath' in sys.modules, '_radialtyz_libmp' in sys.modules)"
    )
    bare, after_mpmath = (
        subprocess.run([sys.executable, "-c", first + run], env=env, capture_output=True,
                       text=True, check=True, timeout=60).stdout.splitlines()
        for first in ("", "import mpmath\n")
    )
    assert bare[-1] == "False True" and after_mpmath[-1] == "True False"
    assert bare[:-1] == after_mpmath[:-1]
    reports = [ast.literal_eval(line) for line in bare[:-1]]
    assert [(fmt, code) for fmt, code, _ in reports] == [("json", 0), ("csv", 0), ("table", 0)]
    assert json.loads(reports[0][2])["subcommand"] == argv[0]
