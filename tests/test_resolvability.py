import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
import sympy as sp

from radialtyz.jets import HermitianBiJet, bijet_exp
from radialtyz.obstruction import g3_closed_eps_minus1, gh_jets, gh_sequence
from radialtyz.potentials import CustomPotential, EpsilonFamily, Simanca, fprime_jet, prepare_point
from radialtyz.resolvability import (
    det_scalar,
    diastasis_germ_at_x,
    first_row_matches_gh,
    minor_matrix,
    simanca_embedding_check,
)
from radialtyz.scalars import BallScalar, Sign, as_scalar, int_pow, nth_root

from helpers import (
    assert_exact_zero,
    coeff_unscaled,
    compose_through_inner,
    count_fprime_calls,
    germ_at_s,
    is_hermitian_symmetric,
    scalars_digest,
)


def test_germ_constant_is_zero():
    for fam, s in ((Simanca(), F(1)), (EpsilonFamily(1, F(1), 2), F(2, 3))):
        g = germ_at_s(fam, s, 3)
        assert_exact_zero(g.coeff(0, 0), "D_p(p)")


def test_germ_normalization_rows_vanish():
    g = germ_at_s(Simanca(), F(3, 2), 3)
    for k in range(1, 4):
        assert_exact_zero(g.coeff(k, 0), f"c_{k}0")
        assert_exact_zero(g.coeff(0, k), f"c_0{k}")
    assert is_hermitian_symmetric(g)


def test_germ_axes_are_exact_zeros_on_ball_points():
    # D(u, 0) = D(0, v) = 0 as exact zeros, not as balls around 0
    fam = EpsilonFamily(1, F(1), 4)
    x0 = prepare_point(fam, as_scalar(F(3, 4)), exact=False, precision_bits=64)
    g = diastasis_germ_at_x(fprime_jet(fam, x0, 5), 3)
    assert g.coeff(1, 1).backend == "ball"
    for k in range(4):
        assert (g.coeff(k, 0).backend, g.coeff(0, k).backend) == ("rational", "rational")
        assert_exact_zero(g.coeff(k, 0), f"c_{k}0")
        assert_exact_zero(g.coeff(0, k), f"c_0{k}")


def test_flat_germ_is_uv():
    # f = x, s = 1: D = (z1-1)(z̄1-1), so c_11 = 1 and everything else 0
    g = germ_at_s(EpsilonFamily(0, F(1), 2), 1, 2)
    assert coeff_unscaled(g, 1, 1, 1).text() == "1"
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                assert_exact_zero(g.coeff(i, j), f"c_{i}{j}")


def test_simanca_germ_against_sympy_expansion():
    # independent oracle: expand D(z1) in the plain offsets z1 = s + a, z̄1 = s + b
    f = lambda t: t + sp.log(t)
    s = F(3, 2)
    a, b = sp.symbols("a b")
    expr = f((s + a) * (s + b)) - f(s * (s + a)) - f(s * (s + b)) + f(s * s)
    ser = sp.expand(
        sp.series(sp.series(expr, a, 0, 3).removeO(), b, 0, 3).removeO()
    )
    poly = sp.Poly(ser, a, b)
    germ = germ_at_s(Simanca(), s, 2)
    for i in range(3):
        for j in range(3):
            want = poly.coeff_monomial(a**i * b**j) if i + j else 0
            got = coeff_unscaled(germ, s, i, j)
            assert F(str(sp.nsimplify(want))) == F(got.text()), (i, j)


def test_minor_m00_is_one():
    cert = minor_matrix(EpsilonFamily(-1, F(1), 2), x=F(3, 2), lmax=1, hmax=1)
    assert cert.minors[0][0].text() == "1"


def test_first_row_equals_gh():
    for fam, x in (
        (EpsilonFamily(0, F(1), 2), F(1)),
        (Simanca(), F(5, 4)),
        (EpsilonFamily(1, F(1), 2), F(3, 4)),
    ):
        cert = minor_matrix(fam, x=x, lmax=2, hmax=5)
        assert first_row_matches_gh(cert, fam)


def test_flat_certificate_all_positive():
    cert = minor_matrix(EpsilonFamily(0, F(1), 2), x=1, lmax=3, hmax=3)
    assert cert.verdict == "all-positive"
    assert all(s == Sign.POSITIVE for row in cert.signs for s in row)


def test_obstruction_at_x_101_over_100():
    cert = minor_matrix(EpsilonFamily(-1, F(1), 2), x=F(101, 100), lmax=1, hmax=3)
    assert cert.verdict == "obstructed"
    assert cert.first_flag == (0, 3)
    closed = g3_closed_eps_minus1(F(1), 2, F(101, 100))
    assert (cert.minors[0][3] - closed).sign() == Sign.ZERO


@pytest.mark.parametrize(
    "fam, lmax, hmax, kwargs, verdict, first",
    [
        # exact zeros from (0, 2) on: the first zero flags
        (CustomPotential.make(1, [1, -1, 1, -1, 1, -1, 1, -1, 1]), 1, 3, {"x": F(1)},
         "inconclusive", (0, 2)),
        # undetermined at (1, 4) and (2, 2): l is scanned before h
        (EpsilonFamily(1, F(1), 2), 2, 4, {"x": F(3, 4), "exact": False, "precision_bits": 16},
         "inconclusive", (1, 4)),
        # negative at (1, 1) and (0, 3): row l = 0 comes first
        (EpsilonFamily(-1, F(1), 2), 1, 3, {"x": F(101, 100)}, "obstructed", (0, 3)),
        (EpsilonFamily(0, F(1), 2), 3, 3, {"x": 1}, "all-positive", None),
    ],
)
def test_minor_verdict_scan_order(fam, lmax, hmax, kwargs, verdict, first):
    cert = minor_matrix(fam, lmax=lmax, hmax=hmax, **kwargs)
    assert (cert.verdict, cert.first_flag) == (verdict, first)


def test_monotone_information():
    small = minor_matrix(Simanca(), x=1, lmax=1, hmax=2)
    big = minor_matrix(Simanca(), x=1, lmax=3, hmax=5)
    for l in range(2):
        for h in range(3):
            assert (small.minors[l][h] - big.minors[l][h]).sign() == Sign.ZERO


def test_scaled_route_matches_direct_first_rows():
    # M(0,h) carries no scaling at all; double-check against gh at a second point
    fam = EpsilonFamily(1, F(1), 2)
    cert = minor_matrix(fam, x=F(1, 4), lmax=0, hmax=6)
    seq = gh_sequence(fam, F(1, 4), 6)
    for h in range(7):
        assert (cert.minors[0][h] - seq[h]).sign() == Sign.ZERO



def _uv_coeff(k, p, q):
    """The coefficient of u^p v^q in (u + v + uv)^k = ((1 + u)(1 + v) - 1)^k."""
    return sum(comb(k, m) * (-1) ** (k - m) * comb(m, p) * comb(m, q) for m in range(k + 1))


def _minor_from_gh(fam, x0, lmax, hmax):
    """M(l, h) from g_0..g_{hmax+2 lmax} alone, off the germ route: in the
    scaled offsets e^D g_h(x) = e^-F(u) e^-F(v) g_h(x0 (1 + u + v + uv)) with
    F(u) = f(x0 (1 + u)) - f(x0), and the e^-F factors, unit-triangular in u
    and in v, drop out of every leading minor. So M(l, h) is
    det[sum_k x0^k g_{h+k} T(k, p, q) / k!]_{p,q<=l} / x0^(l(l+1)/2), T(k, p, q)
    the coefficient of u^p v^q in (u + v + uv)^k."""
    g = gh_sequence(fam, x0, hmax + 2 * lmax)
    minors = [[None] * (hmax + 1) for _ in range(lmax + 1)]
    for h in range(hmax + 1):
        for l in range(lmax + 1):
            rows = [[sum((int_pow(x0, k) * g[h + k] * F(_uv_coeff(k, p, q), factorial(k))
                          for k in range(max(p, q), p + q + 1)), as_scalar(0))
                     for q in range(l + 1)] for p in range(l + 1)]
            minors[l][h] = det_scalar(rows) / int_pow(x0, l * (l + 1) // 2)
    return minors


@pytest.mark.parametrize("fam, x", [
    (EpsilonFamily(1, F(1), 2), F(3, 4)),
    (EpsilonFamily(-1, F(1), 2), F(3, 2)),
    (Simanca(), F(3, 2)),
], ids=["eps+1-n2", "eps-1-n2", "simanca"])
def test_minor_rows_match_the_gh_oracle_exactly(fam, x):
    # every row l, not only M(0, h) = g_h, against an independent route
    cert = minor_matrix(fam, x=x, lmax=2, hmax=4)
    want = _minor_from_gh(fam, cert.x0, 2, 4)
    assert cert.x0.exact
    for l in range(3):
        for h in range(5):
            assert_exact_zero(cert.minors[l][h] - want[l][h], f"M({l},{h})")


def test_minor_rows_match_the_gh_oracle_on_balls():
    # on 64-bit balls the two routes round differently: no entry may be
    # certified unequal
    fam, x = EpsilonFamily(1, F(1), 4), F(3, 4)
    cert = minor_matrix(fam, x=x, lmax=2, hmax=4, exact=False, precision_bits=64)
    x0 = prepare_point(fam, as_scalar(x), exact=False, precision_bits=64)
    want = _minor_from_gh(fam, x0, 2, 4)
    assert cert.minors[2][4].backend == "ball"
    for l in range(3):
        for h in range(5):
            diff = (cert.minors[l][h] - want[l][h]).sign()
            assert diff in (Sign.ZERO, Sign.UNDETERMINED), (l, h)


def _inner_route_minors(fam, x0, lmax, hmax):
    """The minors with every composition through compose_through_inner and
    the germ's row 0 and column 0 as that composition of f less the axis
    terms f(x0 (1 + u)) - f(x0): on balls, differences around 0."""
    fp = fprime_jet(fam, x0, max(hmax + 2 * lmax - 1, 0))
    fj = fp.antiderive(0).truncate(2 * lmax)
    germ, axis = compose_through_inner(fj, lmax), fj.scale_var(x0).coeffs
    expd = bijet_exp(HermitianBiJet.make(x0, [
        [germ.coeff(i, j) - axis[i + j] if i * j == 0 else germ.coeff(i, j)
         for j in range(lmax + 1)] for i in range(lmax + 1)]))
    gh = gh_jets(fp, hmax)
    minors = [[None] * (hmax + 1) for _ in range(lmax + 1)]
    for h in range(hmax + 1):
        e = expd * compose_through_inner(gh[h].truncate(2 * lmax), lmax)
        for l in range(lmax + 1):
            sub = [[e.coeff(i, j) for j in range(l + 1)] for i in range(l + 1)]
            minors[l][h] = det_scalar(sub) / int_pow(x0, l * (l + 1) // 2)
    return minors


def _ends(ball) -> tuple[F, F]:
    return tuple((-1) ** s * F(m) * F(2) ** e for s, m, e, _ in ball.mpi)


@pytest.mark.parametrize("eps, x", [(1, F(3, 4)), (-1, F(3, 2))], ids=["eps+1", "eps-1"])
@pytest.mark.parametrize("n", range(3, 7))
def test_minor_balls_are_no_wider_than_the_inner_series_route(eps, x, n):
    # x0 enters each composed coefficient once, through g.scale_var(x0), and
    # the germ's axes are exact: no minor is wider than through the inner
    # series, and each holds the 1024-bit enclosure
    fam = EpsilonFamily(eps, F(1), n)
    cert = minor_matrix(fam, x=x, lmax=2, hmax=4)
    ref = minor_matrix(fam, x=x, lmax=2, hmax=4, precision_bits=1024)
    old = _inner_route_minors(fam, cert.x0, 2, 4)
    assert cert.x0.backend == "ball"
    assert _ends(cert.minors[0][0]) == (1, 1)  # the ball [1, 1], as g_0 composed with balls
    for l in range(3):
        for h in range(5):
            (lo, hi), (olo, ohi), (rlo, rhi) = map(_ends, (cert.minors[l][h], old[l][h],
                                                            ref.minors[l][h]))
            assert hi - lo <= (ohi - olo) * F(1001, 1000), (l, h)
            assert lo <= rlo and rhi <= hi, (l, h)


@pytest.mark.parametrize("exact, backend", [(None, "root"), (False, "ball")], ids=["exact", "ball64"])
def test_minor_matrix_at_lmax_0_is_the_gh_row(exact, backend):
    # order 0: no nilpotent powers, the germ is 0 and its exp the exact 1, so
    # the one row is g_h, endpoints and precision alike
    fam = EpsilonFamily(-1, F(1), 2)
    cert = minor_matrix(fam, x=F(101, 100), lmax=0, hmax=4, exact=exact, precision_bits=64)
    seq = gh_sequence(fam, cert.x0, 4)
    assert len(cert.minors) == len(cert.signs) == 1
    assert [m.backend for m in cert.minors[0]] == ["rational"] + [backend] * 4
    assert [(m, getattr(m, "precision_bits", None)) for m in cert.minors[0]] == [
        (g, getattr(g, "precision_bits", None)) for g in seq]
    assert (cert.verdict, cert.first_flag) == ("obstructed", (0, 3))


def test_certificate_has_scope_note():
    cert = minor_matrix(EpsilonFamily(0, F(1), 2), x=1, lmax=0, hmax=0)
    assert "necessary-condition" in cert.scope_note


def test_det_scalar():
    m = [[as_scalar(v) for v in row] for row in [[2, 1, 0], [1, 3, 1], [0, 1, 4]]]
    assert det_scalar(m).text() == "18"


def _laplace_det(matrix):
    """The reference for det_scalar: the memoised Laplace expansion along the
    rows in Scalar operations."""
    m = len(matrix)
    memo = {}

    def rec(cols):
        if not cols:
            return as_scalar(1)
        if cols not in memo:
            acc = None
            for pos, c in enumerate(sorted(cols)):
                term = matrix[m - len(cols)][c] * rec(cols - {c})
                if pos % 2:
                    term = -term
                acc = term if acc is None else acc + term
            memo[cols] = acc
        return memo[cols]

    return rec(frozenset(range(m)))


def _bits(v):
    if isinstance(v, BallScalar):
        return "ball", v.iv, v.precision_bits
    return type(v).__name__, v


SQRT5 = nth_root(as_scalar(5), 2)


def _entry(rng, kind):
    q = F(rng.randint(-9, 9), rng.randint(1, 7))
    if kind == "sqrt5":
        return as_scalar(q) + SQRT5 * F(rng.randint(-3, 3), rng.randint(1, 3))
    if kind in ("ball256", "ball16"):
        return as_scalar(q).to_ball(int(kind[4:]))
    # exact zeros next to exact rationals and balls of two precisions
    return rng.choice([as_scalar(0), as_scalar(0), as_scalar(q),
                       as_scalar(q).to_ball(16), as_scalar(q).to_ball(256)])


@pytest.mark.parametrize("kind", ["sqrt5", "ball256", "ball16", "zeros"])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_det_scalar_is_the_scalar_laplace_expansion_bit_for_bit(size, kind):
    rng = random.Random(f"{kind}-{size}")
    for _ in range(6):
        m = [[_entry(rng, kind) for _ in range(size)] for _ in range(size)]
        assert _bits(det_scalar(m)) == _bits(_laplace_det(m))


def test_embedding_identity_small_cases():
    rep = simanca_embedding_check(10)
    assert rep.passed and rep.checked == 65
    # (j,k) = (1,0) -> 1 and (2,1) -> 3/2 are covered by the exact pass
    rep1 = simanca_embedding_check(1)
    assert rep1.passed and rep1.checked == 2
    with pytest.raises(ValueError):
        simanca_embedding_check(0)


@pytest.mark.parametrize("lmax, hmax", [(-1, 2), (2, -1)])
def test_minor_matrix_rejects_negative_orders(lmax, hmax):
    with pytest.raises(ValueError, match="lmax and hmax must be >= 0"):
        minor_matrix(EpsilonFamily(1, F(1), 2), x=F(3, 4), lmax=lmax, hmax=hmax)


def test_minor_matrix_balls_pinned():
    """Every minor on 256-bit balls, bit for bit (digest taken before the ball
    operators called libmpi directly)."""
    cert = minor_matrix(EpsilonFamily(1, F(1), 4), x=F(3, 4), lmax=2, hmax=4)
    minors = [v for row in cert.minors for v in row]
    assert all(v.backend == "ball" for v in minors)
    assert (cert.verdict, cert.first_flag) == ("obstructed", (1, 2))
    assert scalars_digest(minors) == (
        "efaf7fbec4d3f49b14673e2f441425a6100345b81bc45cdb1c47d64ebdaf9b9b"
    )


@pytest.mark.parametrize("lmax, hmax", [(2, 4), (2, 0), (0, 3), (0, 0)])
def test_minor_matrix_builds_fprime_once(monkeypatch, lmax, hmax):
    # the germ's f jet is a truncation of the g_h jets' f' jet
    calls = count_fprime_calls(monkeypatch)
    minor_matrix(EpsilonFamily(1, F(1), 2), x=F(3, 4), lmax=lmax, hmax=hmax)
    assert [order for _, _, order in calls] == [max(hmax + 2 * lmax - 1, 0)]
