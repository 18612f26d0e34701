"""Seeded inputs, evaluation and output checks for the three workloads.

An input is a plain JSON-able dict, so the same seed always yields the same
list and the reference file can name the input it belongs to. Each workload
is a sequence of fixed-composition blocks; the seed picks the order inside a
block and every point, precision and order. Fixing the composition keeps the
latency percentiles on the same cluster from seed to seed (see README.md).

Evaluation turns an input into a *result*: Scalars grouped the same way for
the in-process call and for the CLI's JSON, so one set of identity checks
serves both. `canonical` is the JSON form (built with reports.scalar_to_json)
that the reference and the traced/untraced comparison read.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext

from radialtyz import (
    EguchiHanson,
    EpsilonFamily,
    RationalScalar,
    RootScalar,
    Scalar,
    Sign,
    Simanca,
    closed_forms_eps,
    curvature,
    g3_closed_eps_minus1,
    g4_at_1_closed,
    gh_sequence,
    obstruction,
    rational_grid,
    resolvability,
)
from radialtyz.reports import scalar_to_json
from radialtyz.scalars import BallScalar, ExactnessError, as_scalar

WORKLOADS = ("lu-sweep", "certify", "cli-oneshot")
CHECK_BITS = 256  # precision of the closed forms a ball output is compared with

# -- seeded generators -------------------------------------------------------

# One block per workload: the kinds in it, shuffled by the seed. lu-sweep is
# 7 dim-2 calls to 3 dim-3 calls; the lone dim-2 ball call is the slowest
# dim-2 kind, so the median falls among the exact dim-2 calls and the 90th
# percentile inside the dim-3 calls.
BLOCKS = {
    "lu-sweep": ["lu-eps2"] * 4 + ["lu-eps2-ball", "lu-simanca", "lu-eh"] + ["lu-eps3"] * 3,
    "certify": [
        "gh-at-1", "gh-eps", "gh-simanca", "gh-lowprec",
        "scan-exact", "scan-ball", "scan-lowprec",
        "minor-exact", "minor-simanca", "minor-ball",
    ],
    "cli-oneshot": [
        "cli-gh", "cli-gh-lowprec", "cli-scan", "cli-scan",
        "cli-lu-simanca", "cli-lu-eh", "cli-minor", "cli-minor",
        "cli-ricci", "cli-embedding",
    ],
}
CLI_COMMANDS = {"gh": "gh-eval", "scan": "scan", "lu": "lu-coeffs", "minor": "resolvability",
                "ricci": "ricci-flat-check", "embedding": "embedding-check"}


def _x(rng: random.Random, eps: int | None) -> str:
    """A small-height rational point inside the family's domain."""
    q = rng.randint(2, 7)
    if eps == -1:
        return str(1 + Fraction(rng.randint(1, 2 * q), q))  # (1, 3]
    return str(Fraction(rng.randint(1, 3 * q), q))  # (0, 3]


def _eps_family(rng: random.Random, n: int, lam: str | None = None) -> dict:
    lam = lam if lam is not None else rng.choice(["1", "3/2"])
    return {"family": "epsilon", "eps": rng.choice([1, -1]), "lam": lam, "n": n}


def _grid(rng: random.Random, eps: int | None) -> str:
    lo = Fraction(_x(rng, eps))
    hi = lo + Fraction(rng.randint(1, 4), 2)
    return f"{lo}:{hi}:{rng.randint(5, 11)}"


def _make(kind: str, rng: random.Random) -> dict:
    if kind.startswith("cli-"):
        return _make({"cli-gh": "gh-eps", "cli-gh-lowprec": "gh-lowprec", "cli-scan": "scan-any",
                     "cli-lu-simanca": "lu-simanca", "cli-lu-eh": "lu-eh",
                     "cli-minor": "minor-any", "cli-ricci": "ricci",
                     "cli-embedding": "embedding"}[kind], rng)
    if kind in ("lu-eps2", "lu-eps2-ball", "lu-eps3"):
        n = 3 if kind == "lu-eps3" else 2
        fam = _eps_family(rng, n, "1")
        return {"op": "lu", "fam": fam, "dim": n, "x": _x(rng, fam["eps"]),
                "exact": False if kind == "lu-eps2-ball" else None, "bits": 256}
    if kind in ("lu-simanca", "lu-eh"):
        fam = {"family": "simanca" if kind == "lu-simanca" else "eguchi-hanson"}
        return {"op": "lu", "fam": fam, "dim": 2, "x": _x(rng, None), "exact": None, "bits": 256}
    if kind == "gh-at-1":
        fam = {"family": "epsilon", "eps": 1, "lam": "1", "n": rng.randint(2, 6)}
        return {"op": "gh", "fam": fam, "x": "1", "hmax": rng.randint(8, 24), "bits": 256}
    if kind in ("gh-eps", "gh-lowprec"):
        low = kind == "gh-lowprec"
        fam = _eps_family(rng, rng.randint(3, 6) if low else rng.randint(2, 6))
        # 16-24 bits leave the high-order signs undetermined (exit code 2 in the CLI)
        return {"op": "gh", "fam": fam, "x": _x(rng, fam["eps"]),
                "hmax": rng.randint(12 if low else 8, 24),
                "bits": rng.choice([16, 20, 24]) if low else 256}
    if kind == "gh-simanca":
        return {"op": "gh", "fam": {"family": "simanca"}, "x": _x(rng, None),
                "hmax": rng.randint(8, 24), "bits": 256}
    if kind.startswith("scan-"):
        n = 2 if kind == "scan-exact" else rng.randint(2 if kind == "scan-any" else 3, 6)
        fam = _eps_family(rng, n)
        if kind == "scan-exact" and rng.random() < 0.25:
            fam = {"family": "simanca"}
        # from 8-16 bits, most low-precision scans need the precision-doubling retry
        low = kind == "scan-lowprec"
        return {"op": "scan", "fam": fam, "grid": _grid(rng, fam.get("eps")),
                "hmax": rng.randint(6 if low else 4, 8),
                "bits": rng.choice([8, 12, 16]) if low else 256}
    if kind.startswith("minor-"):
        if kind == "minor-simanca":
            fam = {"family": "simanca"}
        else:
            n_range = {"minor-exact": (2, 2), "minor-ball": (3, 6)}.get(kind, (2, 4))
            fam = _eps_family(rng, rng.randint(*n_range))
        lmax = rng.randint(1, 3) if kind == "minor-any" else rng.randint(2, 3)
        return {"op": "minor", "fam": fam, "x": _x(rng, fam.get("eps")), "lmax": lmax,
                "hmax": rng.randint(4, 6), "bits": 256}
    if kind == "ricci":
        fam = rng.choice([_eps_family(rng, rng.randint(2, 4)), {"family": "simanca"},
                          {"family": "eguchi-hanson"}])
        samples = sorted({_x(rng, fam.get("eps")) for _ in range(rng.randint(2, 4))}, key=Fraction)
        return {"op": "ricci", "fam": fam, "samples": samples}
    if kind == "embedding":
        return {"op": "embedding", "max_degree": rng.randint(6, 14)}
    raise ValueError(f"unknown input kind {kind!r}")


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` inputs of a workload for a seed."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    out: list[dict] = []
    while len(out) < count:
        kinds = list(BLOCKS[workload])
        rng.shuffle(kinds)
        out.extend(_make(k, rng) for k in kinds)
    return out[:count]


# -- evaluation ----------------------------------------------------------------


def family(spec: dict):
    if spec["family"] == "epsilon":
        return EpsilonFamily(spec["eps"], Fraction(spec["lam"]), spec["n"])
    return Simanca() if spec["family"] == "simanca" else EguchiHanson()


def evaluate(inp: dict):
    """One in-process call into the public API; returns the library object.

    The API is looked up on its module at call time, so the functions the
    tracer patches there are the ones called.
    """
    op = inp["op"]
    if op == "lu":
        return curvature.lu_coefficients(family(inp["fam"]), inp["dim"], x=Fraction(inp["x"]),
                                         jet_order=4, exact=inp["exact"],
                                         precision_bits=inp["bits"])
    if op == "gh":
        return obstruction.gh_reports(family(inp["fam"]), Fraction(inp["x"]), inp["hmax"],
                                      precision_bits=inp["bits"])
    if op == "scan":
        return obstruction.obstruction_scan(family(inp["fam"]), rational_grid(inp["grid"]),
                                            inp["hmax"], precision_bits=inp["bits"])
    if op == "minor":
        return resolvability.minor_matrix(family(inp["fam"]), x=Fraction(inp["x"]),
                                          lmax=inp["lmax"], hmax=inp["hmax"],
                                          precision_bits=inp["bits"])
    raise ValueError(f"op {op!r} runs only through the CLI")


def canonical(inp: dict, out) -> dict:
    """JSON form of an in-process output, scalars via reports.scalar_to_json."""
    op = inp["op"]
    if op == "lu":
        return {k: scalar_to_json(v) for k, v in out.as_dict().items()}
    if op in ("gh", "scan"):
        return {"rows": [r.to_json_dict() for r in out]}
    return {"minors": [[scalar_to_json(m) for m in row] for row in out.minors],
            "verdict": out.verdict, "first_flag": out.first_flag}


def result_of(inp: dict, out) -> dict:
    """Scalars and signs of an in-process output, in the shape checks read."""
    op = inp["op"]
    if op == "lu":
        return {"fields": out.as_dict()}
    if op == "gh":
        return {"values": [r.value for r in out], "signs": [r.sign for r in out]}
    if op == "scan":
        return {"hits": [(Fraction(r.x.text()), r.h, r.value, r.sign) for r in out]}
    return {"minors": out.minors, "signs": out.signs, "verdict": out.verdict,
            "first": out.first_flag}


def cli_argv(inp: dict) -> list[str]:
    op = inp["op"]
    argv = [CLI_COMMANDS[op]]
    fam = inp.get("fam")
    if fam is not None:
        argv += ["--family", fam["family"]]
        if fam["family"] == "epsilon":
            argv += [f"--eps={fam['eps']}", "--lam", fam["lam"], "--n", str(fam["n"])]
    if op == "gh":
        argv += ["--x", inp["x"], "--hmax", str(inp["hmax"])]
    elif op == "scan":
        argv += ["--x-grid", inp["grid"], "--hmax", str(inp["hmax"])]
    elif op == "lu":
        argv += ["--dim", str(inp["dim"]), "--x", inp["x"], "--jet-order", "4"]
    elif op == "minor":
        argv += ["--x", inp["x"], "--lmax", str(inp["lmax"]), "--hmax", str(inp["hmax"])]
    elif op == "ricci":
        argv += ["--samples", ",".join(inp["samples"])]
    elif op == "embedding":
        argv += ["--max-degree", str(inp["max_degree"])]
    if "bits" in inp:
        argv += ["--precision-bits", str(inp["bits"])]
    return argv + ["--format", "json"]


def run_cli(root: str, argv: list[str], *, child: list[str] | None = None):
    """Run one CLI process from the checkout's sources; returns CompletedProcess.

    `child` replaces `-m radialtyz.cli` (the traced launcher uses it)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable] + (child or ["-m", "radialtyz.cli"]) + argv
    return subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=60)


# -- scalars back from the CLI's JSON -------------------------------------------


def ball_bounds(d: dict) -> tuple[Fraction, Fraction]:
    """Midpoint and a radius that also covers the decimal rounding of both."""
    mid, rad, bits = Fraction(d["value"]), Fraction(d["radius"]), d["precision_bits"]
    digits = max(5, int(bits * 0.30103) - 2)
    return mid, rad * Fraction(101, 100) + abs(mid) * Fraction(10) ** (3 - digits)


def json_to_scalar(d: dict) -> Scalar:
    if d["backend"] == "rational":
        return RationalScalar(Fraction(d["value"]))
    if d["backend"] == "root":
        return RootScalar.make(d["degree"], int(d["radicand"]),
                               tuple(Fraction(c) for c in d["coeffs"]))
    mid, rad = ball_bounds(d)
    ctx = MPIntervalContext()
    ctx.prec = d["precision_bits"]
    iv = lambda q: ctx.mpf(q.numerator) / ctx.mpf(q.denominator)
    box = iv(mid) + ctx.mpf([-1, 1]) * iv(rad)
    return BallScalar(box._mpi_, d["precision_bits"])


def cli_result(inp: dict, payload: dict) -> dict:
    """The CLI's JSON in the shape checks read (same as result_of)."""
    op = inp["op"]
    if op == "lu":
        return {"fields": {k: json_to_scalar(payload[k]) for k in FIELD_SIGNS + LU_CHECKED}}
    if op == "gh":
        rows = payload["values"]
        return {"values": [json_to_scalar(r["value"]) for r in rows],
                "signs": [Sign(r["sign"]) for r in rows]}
    if op == "scan":
        return {"hits": [(Fraction(r["x"]), r["h"], json_to_scalar(r["value"]), Sign(r["sign"]))
                         for r in payload["hits"]]}
    if op == "minor":
        minors = [[json_to_scalar(m) for m in row] for row in payload["minors"]]
        first = payload["first_flag"]
        return {"minors": minors, "signs": [[m.sign() for m in row] for row in minors],
                "verdict": payload["verdict"], "first": first and (first["l"], first["h"])}
    if op == "ricci":
        return {"residuals": [(Fraction(r["x"]), json_to_scalar(r["residual"]), Sign(r["sign"]))
                              for r in payload["samples"]],
                "flat": payload["ricci_flat_on_samples"]}
    return {"checked": payload["checked"], "mismatches": payload["mismatches"],
            "status": payload["status"]}


# -- output checks ------------------------------------------------------------------

FIELD_SIGNS = ["a1", "a2", "a3"]  # the lu sign fields
LU_CHECKED = ["rho", "R2", "Ric2"]
_UNSURE = (Sign.ZERO, Sign.UNDETERMINED)


def _contradicts(value: Scalar, reported: Sign) -> bool:
    """A reported sign the value's own enclosure rules out."""
    own = value.sign()
    if value.exact:
        return own != reported
    return Sign.UNDETERMINED not in (own, reported) and own != reported


def agree(a: Scalar, b: Scalar) -> bool:
    """Exact values must be equal; with a ball involved, not certified unequal."""
    if a.exact and b.exact:
        try:
            return (a - b).sign() == Sign.ZERO
        except ExactnessError:  # two different root extensions
            pass
    return (a.to_ball(CHECK_BITS) - b.to_ball(CHECK_BITS)).sign() in _UNSURE


def sign_fields(inp: dict, res: dict) -> list[Sign]:
    """Every sign a user reads off this output (the undetermined_frac base)."""
    op = inp["op"]
    if op == "lu":
        return [res["fields"][k].sign() for k in FIELD_SIGNS]
    if op == "gh":
        return list(res["signs"])
    if op == "scan":
        return [h[3] for h in res["hits"]]
    if op == "minor":
        return [s for row in res["signs"] for s in row]
    if op == "ricci":
        return [r[2] for r in res["residuals"]]
    return []


def check(inp: dict, res: dict) -> list[str]:
    """The paper's identities and internal consistency; empty list when sound."""
    return _CHECKS[inp["op"]](inp, res)


def _check_lu(inp: dict, res: dict) -> list[str]:
    f, fam, bad = res["fields"], inp["fam"], []
    if fam["family"] == "simanca":
        bad += [f"{k} != 0" for k in ("rho", "a2", "a3") if f[k].sign() != Sign.ZERO]
        if not agree(f["R2"], f["Ric2"] * 4):
            bad.append("R2 != 4 Ric2")
        return bad
    # the eps family at lambda = 1 and Eguchi-Hanson (= eps 1, n 2) are Ricci-flat
    n, eps = (inp["dim"], fam["eps"]) if fam["family"] == "epsilon" else (2, 1)
    x = as_scalar(Fraction(inp["x"]))
    if not f["R2"].exact:
        x = x.to_ball(CHECK_BITS)
    closed = closed_forms_eps(n, eps, x)
    zero = as_scalar(0)
    bad += [f"{k} != 0" for k in ("rho", "a1", "Ric2") if not agree(f[k], zero)]
    if not agree(f["R2"], closed["R2"]):
        bad.append("R2 differs from closed_forms_eps")
    if not agree(f["a3"] * 48, closed["a3_proportional"]):
        bad.append("a3 / a3_proportional != 1/48")
    if not agree(f["a2"] * 24, f["R2"]):
        bad.append("a2 != R2/24")
    return bad


def _check_gh(inp: dict, res: dict) -> list[str]:
    values, signs, bad = res["values"], res["signs"], []
    if len(values) != inp["hmax"] + 1 or not agree(values[0], as_scalar(1)):
        return ["g_0 != 1 or wrong length"]
    bad += [f"sign of g_{h} misreported" for h, (v, s) in enumerate(zip(values, signs))
            if _contradicts(v, s)]
    fam = inp["fam"]
    if fam["family"] != "epsilon":
        return bad
    x = Fraction(inp["x"])
    at_1 = x == 1 and fam["eps"] == 1 and fam["lam"] == "1"
    if at_1 and not agree(values[4], g4_at_1_closed(fam["n"])):
        bad.append("g_4(1) differs from g4_at_1_closed")
    if fam["eps"] == -1:
        xs = as_scalar(x) if values[3].exact else as_scalar(x).to_ball(CHECK_BITS)
        if not agree(values[3], g3_closed_eps_minus1(Fraction(fam["lam"]), fam["n"], xs)):
            bad.append("g_3 differs from g3_closed_eps_minus1")
    return bad


def _check_scan(inp: dict, res: dict) -> list[str]:
    hits, bad = res["hits"], []
    if [h[:2] for h in hits] != sorted(h[:2] for h in hits):
        bad.append("hits not in (x, h) order")
    bad += [f"hit at x={h[0]} h={h[1]} is {h[3].value}" for h in hits
            if h[3] not in (Sign.NEGATIVE, Sign.UNDETERMINED) or _contradicts(h[2], h[3])]
    fam = inp["fam"]
    if fam["family"] == "epsilon" and fam["eps"] == -1:
        # a certified-negative closed g_3 needs a hit; a positive one allows no negative hit
        g3_hits = {h[0]: h[3] for h in hits if h[1] == 3}
        for x in rational_grid(inp["grid"]):
            want = g3_closed_eps_minus1(Fraction(fam["lam"]), fam["n"],
                                        as_scalar(x).to_ball(CHECK_BITS)).sign()
            got = g3_hits.get(x)
            if (want == Sign.NEGATIVE and got is None) or (want == Sign.POSITIVE and got == Sign.NEGATIVE):
                bad.append(f"g_3 hit at x={x} disagrees with g3_closed_eps_minus1")
    return bad


def _check_minor(inp: dict, res: dict) -> list[str]:
    minors, signs, bad = res["minors"], res["signs"], []
    fam = family(inp["fam"])
    # first-row identity M(0, h) = g_h, at the backend the minors ran on
    x0 = as_scalar(Fraction(inp["x"]))
    if not minors[0][0].exact:
        x0 = x0.to_ball(inp["bits"])
    seq = gh_sequence(fam, x0, inp["hmax"])
    bad += [f"M(0,{h}) != g_{h}" for h in range(inp["hmax"] + 1) if not agree(minors[0][h], seq[h])]
    # verdicts scan l, then h; signs read back from CLI JSON may only be less certain
    order = [(l, h) for l in range(len(signs)) for h in range(len(signs[0]))]
    negative = [lh for lh in order if signs[lh[0]][lh[1]] == Sign.NEGATIVE]
    verdict, first = res["verdict"], res["first"] and tuple(res["first"])
    if verdict == "obstructed":
        witness = first is not None and signs[first[0]][first[1]] in (Sign.NEGATIVE, Sign.UNDETERMINED)
        if not witness or (negative and first > negative[0]):
            bad.append(f"obstructed verdict does not match the first negative minor {first}")
    elif verdict == "all-positive":
        if first is not None or any(signs[l][h] in (Sign.NEGATIVE, Sign.ZERO) for l, h in order):
            bad.append("all-positive verdict with a non-positive minor")
    elif negative:
        bad.append("inconclusive verdict with a certified-negative minor")
    return bad


def _check_ricci(inp: dict, res: dict) -> list[str]:
    bad, fam = [], inp["fam"]
    for x, r, s in res["residuals"]:
        # det g is constant for the Ricci-flat families; f' = 1 + 1/x gives
        # det g = 1 + 1/x for Simanca, so d/dx log det g = -1/(x(x+1))
        want = as_scalar(-1 / (x * (x + 1)) if fam["family"] == "simanca" else 0)
        if not agree(r, want) or _contradicts(r, s):
            bad.append(f"residual at x={x}")
    if res["flat"] != (fam["family"] != "simanca"):
        bad.append("ricci_flat_on_samples verdict")
    return bad


def _check_embedding(inp: dict, res: dict) -> list[str]:
    d = inp["max_degree"]
    pairs = (d + 1) * (d + 2) // 2 - 1  # all (j, k) with 1 <= j + k <= d
    ok = res["status"] == "pass" and not res["mismatches"] and res["checked"] == pairs
    return [] if ok else ["embedding identity report"]


_CHECKS = {"lu": _check_lu, "gh": _check_gh, "scan": _check_scan, "minor": _check_minor,
           "ricci": _check_ricci, "embedding": _check_embedding}


def expected_exit(inp: dict, res: dict) -> int:
    """The CLI's documented exit code for this output."""
    if inp["op"] == "minor":
        return 2 if res["verdict"] == "inconclusive" else 0
    if inp["op"] in ("gh", "scan", "ricci"):
        return 2 if Sign.UNDETERMINED in sign_fields(inp, res) else 0
    return 0


def cli_eval_output(inp: dict, proc) -> tuple[dict | None, dict | None, list[str]]:
    """(canonical JSON, result, problems) of one finished CLI process."""
    try:
        payload = json.loads(proc.stdout)
        res = cli_result(inp, payload)
        bad = check(inp, res)
    except Exception as exc:  # output the checks cannot read is wrong output
        return None, None, [f"exit {proc.returncode}, unreadable output ({type(exc).__name__}: "
                            f"{exc}): {proc.stderr.strip()[-200:]}"]
    if proc.returncode != expected_exit(inp, res):
        bad.append(f"exit code {proc.returncode}, expected {expected_exit(inp, res)}")
    return payload, res, bad
