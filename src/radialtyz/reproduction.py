"""Reproduction harness: every checkable number and identity, as report items.

Each item has a stable id, states what it expects (with provenance: values
quoted from the source material vs derived oracles vs trivial identities),
computes the quantity, and reports pass / fail / inconclusive plus runtime.
The same items back tests/test_acceptance.py and the `reproduce-paper` CLI
subcommand; exit-code mapping is 0 all-pass, 1 any fail, 2 inconclusive-only.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

from .curvature import (
    closed_forms_eps,
    curvature_norm2,
    frame_at_x,
    lu_coefficients,
)
from .jets import Jet
from .obstruction import (
    g3_closed_eps_minus1,
    g4_at_1_closed,
    gh_sequence,
    small_x_divergence_check,
)
from .potentials import EpsilonFamily, Simanca, fprime_jet, prepare_point, ricci_flat_residual
from .records import Record
from .resolvability import first_row_matches_gh, minor_matrix, simanca_embedding_check
from .scalars import (
    Scalar,
    Sign,
    abs_le,
    as_scalar,
    certified_lt,
    nth_root,
)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

def _combine(statuses) -> str:
    statuses = list(statuses)
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return PASS


def _tri_within(value: Scalar, target, tol: Fraction) -> str:
    """pass if certified |value - target| <= tol, fail if certified violated,
    inconclusive otherwise (the low-precision case: never a wrong verdict)."""
    diff = value - as_scalar(target)
    if abs_le(diff, tol):
        return PASS
    s = diff.sign()
    if s == Sign.POSITIVE and certified_lt(as_scalar(tol), diff):
        return FAIL
    if s == Sign.NEGATIVE and certified_lt(diff, as_scalar(-tol)):
        return FAIL
    if diff.exact:
        return FAIL
    return INCONCLUSIVE


def _tri_negative(value: Scalar) -> str:
    s = value.sign()
    if s == Sign.NEGATIVE:
        return PASS
    if s == Sign.UNDETERMINED:
        return INCONCLUSIVE
    return FAIL


class ItemResult(Record):
    item_id: str
    expected: str
    provenance: str
    computed: str
    status: str
    runtime_s: float

    def to_json_dict(self) -> dict:
        return {
            "item": self.item_id,
            "expected": self.expected,
            "provenance": self.provenance,
            "computed": self.computed,
            "status": self.status,
            "runtime_s": round(self.runtime_s, 3),
        }


class PaperReproductionReport(Record):
    items: tuple[ItemResult, ...]

    @property
    def status(self) -> str:
        return _combine(i.status for i in self.items)

    @property
    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}[self.status]

    def to_json_dict(self) -> dict:
        return {
            "items": [i.to_json_dict() for i in self.items],
            "status": self.status,
        }


# precision_bits (of ball-backed items) -> (expected, computed, status)
ItemFn = Callable[[int], tuple[str, str, str]]
_REGISTRY: list[tuple[str, str, ItemFn]] = []


def _item(item_id: str, provenance: str):
    def deco(fn: ItemFn):
        _REGISTRY.append((item_id, provenance, fn))
        return fn

    return deco





F = Fraction


@_item("table-n2-h7", "golden value, exact fraction")
def _table_n2_h7(precision_bits: int):
    t0 = time.time()
    got = gh_sequence(EpsilonFamily(1, F(1), 2), F(3, 4), 7)[7]
    elapsed = time.time() - t0
    want = "-12294367331/2373046875"
    ok = got.text() == want and got.backend == "rational" and elapsed < 1.0
    return want, f"{got.text()} in {elapsed:.3f}s", PASS if ok else FAIL


def _table_float(
    n: int, x: Fraction, h: int, target: Fraction, tol: Fraction, precision_bits: int
):
    t0 = time.time()
    fam = EpsilonFamily(1, F(1), n)
    x0 = prepare_point(fam, as_scalar(x), exact=False, precision_bits=precision_bits)
    got = gh_sequence(fam, x0, h)[h]
    elapsed = time.time() - t0
    status = _tri_within(got, target, tol)
    if status == PASS and elapsed >= 1.0:
        status = FAIL
    return (
        f"{target} +/- {tol}",
        f"{got.midpoint_str(12)} in {elapsed:.3f}s",
        status,
    )


@_item("table-n3-h5", "golden value, 2 decimals")
def _table_n3(precision_bits: int):
    return _table_float(3, F(3, 4), 5, F(-281, 100), F(1, 100), precision_bits)


@_item("table-n4-h5", "golden value, 1 decimal")
def _table_n4(precision_bits: int):
    return _table_float(4, F(3, 4), 5, F(-103, 10), F(5, 100), precision_bits)


@_item("table-n5-h4", "golden value, 2 decimals")
def _table_n5(precision_bits: int):
    return _table_float(5, F(6, 5), 4, F(-14, 100), F(5, 1000), precision_bits)


@_item("g4-at-1-signs", "closed form vs jet engine; sign flips at n = 6")
def _g4_signs(precision_bits: int):
    t0 = time.time()
    bad = []
    for n in range(2, 21):
        closed = g4_at_1_closed(n)
        engine = gh_sequence(EpsilonFamily(1, F(1), n), F(1), 4)[4]
        if not (closed - engine).is_zero():
            bad.append(f"n={n}:mismatch")
            continue
        s = closed.sign()
        want = Sign.POSITIVE if n <= 5 else Sign.NEGATIVE
        if s != want:
            bad.append(f"n={n}:{s.value}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 5.0
    return (
        "positive n=2..5, negative n=6..20; closed == engine exactly; < 5 s",
        f"{bad or 'all signs as stated'}; {elapsed:.2f}s",
        PASS if ok else FAIL,
    )


@_item("eps-minus1-divergence", "g_3 -> -inf as x -> 1+")
def _eps_minus1(precision_bits: int):
    fam = EpsilonFamily(-1, F(1), 2)
    values = []
    for k in range(1, 6):
        x = 1 + F(1, 10**k)
        values.append(gh_sequence(fam, x, 3)[3])
    neg = all(v.sign() == Sign.NEGATIVE for v in values)
    balls = [v.to_ball(precision_bits) for v in values]
    steps = all(
        ((-balls[i + 1]) - (-balls[i]) * 5).sign() == Sign.POSITIVE
        for i in range(len(balls) - 1)
    )
    rng = random.Random(1003)
    agree = True
    for _ in range(10):
        x = 1 + F(rng.randint(1, 2000), 1000)  # in (1, 3)
        closed = g3_closed_eps_minus1(F(1), 2, x)
        engine = gh_sequence(fam, x, 3)[3]
        agree &= (closed - engine).is_zero()
    ok = neg and steps and agree
    return (
        "5 negative values, each >= 5x more negative; closed == engine at 10 points",
        f"negative={neg} growth={steps} closed-vs-engine-exact={agree}",
        PASS if ok else FAIL,
    )


@_item("noninteger-lambda-blowup", "g_[lam]+2 -> -inf as x -> 0+")
def _lambda_blowup(precision_bits: int):
    statuses = []
    notes = []
    for lam in (F(1, 2), F(3, 2), F(5, 2)):
        for n in (2, 3):
            rep = small_x_divergence_check(lam, n, [2, 3, 4, 5], precision_bits=precision_bits)
            sub = _combine(_tri_negative(v) for v in rep.values)
            if sub == PASS and not rep.growth_certified:
                sub = INCONCLUSIVE if not rep.values[0].exact else FAIL
            statuses.append(sub)
            if sub != PASS:
                notes.append(f"lam={lam},n={n}:{sub}")
    return (
        "certified negative, >= 10x magnitude growth per decade, lam in {1/2,3/2,5/2}, n in {2,3}",
        f"failures: {notes or 'none'}",
        _combine(statuses),
    )


@_item("ricci-flat-family", "det g identity and vanishing Ricci tensor")
def _ricci_flat(precision_bits: int):
    pts = [F(5, 4), F(3, 2), F(2), F(7, 3), F(3)]  # admissible for eps = -1 too
    bad = []
    statuses = [PASS]
    tol = F(1, 10**40)
    for n in (2, 3, 4):
        for eps in (-1, 0, 1):
            fam = EpsilonFamily(eps, F(1), n)
            res = ricci_flat_residual(fam, pts)
            if not all(r.is_zero() and r.exact for r in res):
                bad.append(f"residual eps={eps} n={n}")
                statuses.append(FAIL)
            x0 = as_scalar(F(3, 2)).to_ball(precision_bits)
            fr = frame_at_x(fam, n, x0, 0)
            for i in range(n):
                for j in range(n):
                    sub = _tri_within(fr.ric[i][j].jet.value(), 0, tol)
                    statuses.append(sub)
                    if sub != PASS:
                        bad.append(f"ric[{i}][{j}] eps={eps} n={n}:{sub}")
    return (
        "residuals exactly 0 (exact backend) at 5 points; Ric entries < 1e-40 in ball mode",
        f"failures: {bad or 'none'}",
        _combine(statuses),
    )


@_item("curvature-norm-closed-form", "closed-form |R|^2 for the Ricci-flat family")
def _r2_closed(precision_bits: int):
    rng = random.Random(1007)
    tol = F(1, 10**25)
    bad = []
    statuses = [PASS]
    for n in (2, 3, 4, 5):
        for eps in (-1, 1):
            for _ in range(10):
                lo = 1 if eps >= 0 else 2  # keep x > 1 for eps = -1
                x = F(rng.randint(lo * 100 + 1, 400), 100)
                xb = as_scalar(x).to_ball(precision_bits)
                engine = curvature_norm2(
                    EpsilonFamily(eps, F(1), n), n, x, exact=False, precision_bits=precision_bits
                ).value()
                closed = closed_forms_eps(n, eps, xb)["R2"]
                rel = (engine - closed) / closed
                sub = _tri_within(rel, 0, tol)
                statuses.append(sub)
                if sub != PASS:
                    bad.append(f"n={n} eps={eps} x={x}:{sub}")
    return (
        "relative agreement 1e-25 at 10 points per (n, eps), n in 2..5",
        f"failures: {bad or 'none'}",
        _combine(statuses),
    )


@_item("a3-vanishing-locus", "single root of a3 at x = (2/5)^(1/2) for n = 2")
def _a3_locus(precision_bits: int):
    fam = EpsilonFamily(1, F(1), 2)

    def a3_sign(x: Fraction) -> Sign:
        return lu_coefficients(fam, 2, x=x).a3.sign()

    grid = [F(k, 10) for k in range(1, 31)]
    signs = [a3_sign(x) for x in grid]
    changes = sum(
        1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1]
    )
    lo, hi = F(6, 10), F(7, 10)
    if not (a3_sign(lo) == Sign.NEGATIVE and a3_sign(hi) == Sign.POSITIVE):
        return "bracketable root", "endpoints do not bracket", FAIL
    while hi - lo > F(1, 10**10):
        mid = (lo + hi) / 2
        if a3_sign(mid) == Sign.NEGATIVE:
            lo = mid
        else:
            hi = mid
    root = nth_root(as_scalar(F(2, 5)), 2)  # (2/5)^(1/2)
    inside = certified_lt(as_scalar(lo), root) and certified_lt(root, as_scalar(hi))

    rng = random.Random(1009)
    ratios = []
    for _ in range(10):
        x = F(rng.randint(30, 300), 100)
        rep = lu_coefficients(fam, 2, x=x)
        closed = closed_forms_eps(2, 1, as_scalar(x))["a3_proportional"]
        ratios.append(rep.a3 / closed)
    spread_ok = all((r - ratios[0]).is_zero() for r in ratios)
    ok = changes == 1 and inside and spread_ok
    return (
        "one sign change on (0,3]; bracket (2/5)^(1/2) to 1e-10; constant engine/closed ratio",
        f"changes={changes} bracket=[{lo},{hi}] contains root={inside} "
        f"ratio={ratios[0].text()} spread_exact_zero={spread_ok}",
        PASS if ok else FAIL,
    )


@_item("simanca-suite", "scalar-flat surface: components, a2 = a3 = 0")
def _simanca(precision_bits: int):
    bad = []
    statuses = [PASS]
    tol = F(1, 10**30)
    for x in (F(1, 2), F(1), F(2)):
        rep = lu_coefficients(Simanca(), 2, x=x)
        for name in ("rho", "a2", "a3"):
            if not getattr(rep, name).is_zero():
                bad.append(f"{name}(x={x})")
                statuses.append(FAIL)
        if not (rep.R2 - rep.Ric2 * 4).is_zero():
            bad.append(f"R2-4Ric2(x={x})")
            statuses.append(FAIL)
        # displayed components, checked in ball mode against the closed forms
        xb = as_scalar(x).to_ball(precision_bits)
        s = nth_root(xb, 2)
        fr = frame_at_x(Simanca(), 2, xb, 0)
        one = as_scalar(1)
        comps = {
            "R_1111": (fr.R[0][0][0][0].full_value(s), as_scalar(0)),
            "R_1122": (fr.R[0][0][1][1].full_value(s), one / (xb * (xb + 1))),
            "R_2222": (fr.R[1][1][1][1].full_value(s), as_scalar(-2) / (xb * xb)),
            "Ric_11": (fr.ric[0][0].full_value(s), -one / ((xb + 1) * (xb + 1))),
            "Ric_22": (fr.ric[1][1].full_value(s), one / (xb * (xb + 1))),
            "Ric_11_1": (
                fr.ric_cov1[0][0][0].full_value(s),
                s * 2 / ((xb + 1) * (xb + 1) * (xb + 1)),
            ),
        }
        for name, (got, want) in comps.items():
            sub = _tri_within(got - want, 0, tol)
            statuses.append(sub)
            if sub != PASS:
                bad.append(f"{name}(x={x}):{sub}")
    return (
        "rho = a2 = a3 = 0, |R|^2 = 4|Ric|^2 exactly; six displayed components within 1e-30",
        f"failures: {bad or 'none'}",
        _combine(statuses),
    )


@_item("embedding-identity", "coefficients (j+k)/(j!k!) of (a+b)e^(a+b)")
def _embedding(precision_bits: int):
    rep = simanca_embedding_check(10)
    return (
        "exact equality for all 1 <= j+k <= 10",
        f"checked {rep.checked} coefficients, mismatches: {list(rep.mismatches) or 'none'}",
        PASS if rep.passed else FAIL,
    )


@_item("resolvability-criterion", "flat certificate, first-row identity, obstruction")
def _resolvability(precision_bits: int):
    bad = []
    flat = EpsilonFamily(0, F(1), 2)
    cert = minor_matrix(flat, x=1, lmax=3, hmax=5)
    if cert.verdict != "all-positive":
        bad.append(f"flat verdict {cert.verdict}")
    for fam, x in (
        (flat, F(1)),
        (Simanca(), F(3, 2)),
        (EpsilonFamily(1, F(1), 2), F(3, 4)),
    ):
        c = minor_matrix(fam, x=x, lmax=1, hmax=4)
        if not first_row_matches_gh(c, fam):
            bad.append(f"first row {fam}")
    obst = minor_matrix(EpsilonFamily(-1, F(1), 2), x=F(101, 100), lmax=1, hmax=3)
    if not (obst.verdict == "obstructed" and obst.first_flag == (0, 3)):
        bad.append(f"obstruction verdict {obst.verdict} at {obst.first_flag}")
    return (
        "flat all-positive to (3,5); M(0,h) == g_h exactly; eps=-1 obstructed at (0,3) for x=1.01",
        f"failures: {bad or 'none'}",
        PASS if not bad else FAIL,
    )


@_item("property-suite", "randomized arithmetic oracles and engine identities")
def _properties(precision_bits: int):
    bad = []
    # jet arithmetic vs naive convolution, 1000 randomized cases
    rng = random.Random(20240809)
    for case in range(1000):
        order = rng.randint(0, 5)
        a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        ja, jb = Jet.make(0, a), Jet.make(0, b)
        add = (ja + jb).coeffs
        mul = (ja * jb).coeffs
        for k in range(order + 1):
            want_add = a[k] + b[k]
            want_mul = sum((a[i] * b[k - i] for i in range(k + 1)), F(0))
            if F(add[k].text()) != want_add or F(mul[k].text()) != want_mul:
                bad.append(f"jet-oracle case {case}")
                break
    # recursion vs direct (enforced inside gh_sequence) across families, h <= 10
    for fam, x in (
        (EpsilonFamily(1, F(1), 2), F(3, 4)),
        (EpsilonFamily(-1, F(1), 2), F(3, 2)),
        (EpsilonFamily(0, F(2), 3), F(1, 3)),
        (EpsilonFamily(1, F(1), 3), F(1, 2)),
        (Simanca(), F(4, 5)),
    ):
        try:
            gh_sequence(fam, x, 10)
            x0 = prepare_point(fam, as_scalar(x), exact=False, precision_bits=256)
            gh_sequence(fam, x0, 10)
        except ArithmeticError as exc:
            bad.append(f"gh dual-route {fam}: {exc}")
    # additive-constant invariance of g_h (ball backend)
    fam = EpsilonFamily(1, F(1), 2)
    x0 = as_scalar(F(3, 4)).to_ball(256)
    fj = fprime_jet(fam, x0, 9).antiderive(0)
    base = fj.exp()
    shifted = (fj + as_scalar(F(7, 5)).to_ball(256)).exp()  # f + c
    scale = shifted.value()
    for h in range(1, 10):
        diff = base.derivative(h) - shifted.derivative(h) / scale
        if not abs_le(diff, F(1, 10**60)):
            bad.append(f"additive-constant h={h}")
    return (
        "1000 jet-oracle cases, dual-route g_h, additive-constant invariance: zero failures",
        f"failures: {bad or 'none'}",
        PASS if not bad else FAIL,
    )


def run_items(
    only: str | None = None, precision_bits: int = 256
) -> PaperReproductionReport:
    if only is not None and all(item_id != only for item_id, _, _ in _REGISTRY):
        raise ValueError(f"unknown reproduction item {only!r}")
    results = []
    for item_id, provenance, fn in _REGISTRY:
        if only is not None and item_id != only:
            continue
        t0 = time.time()
        try:
            expected, computed, status = fn(precision_bits)
        except Exception as exc:  # a crash is a failure, not a silent skip
            expected, computed, status = (
                "no exception", f"{type(exc).__name__}: {exc}", FAIL
            )
        results.append(
            ItemResult(
                item_id=item_id,
                expected=expected,
                provenance=provenance,
                computed=computed,
                status=status,
                runtime_s=time.time() - t0,
            )
        )
    return PaperReproductionReport(items=tuple(results))

