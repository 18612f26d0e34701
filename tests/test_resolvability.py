import random
from fractions import Fraction as F

import pytest
import sympy as sp

from radialtyz.obstruction import g3_closed_eps_minus1, gh_sequence
from radialtyz.potentials import CustomPotential, EpsilonFamily, Simanca
from radialtyz.resolvability import (
    det_scalar,
    first_row_matches_gh,
    minor_matrix,
    simanca_embedding_check,
)
from radialtyz.scalars import BallScalar, Sign, as_scalar, nth_root

from helpers import (
    assert_exact_zero,
    coeff_unscaled,
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
        "8ed1e8d5332cf6de0fd3cd1c65ef200889ccc8a1a39b69c54e2a6306d5f7a8ff"
    )


@pytest.mark.parametrize("lmax, hmax", [(2, 4), (2, 0), (0, 3), (0, 0)])
def test_minor_matrix_builds_fprime_once(monkeypatch, lmax, hmax):
    # the germ's f jet is a truncation of the g_h jets' f' jet
    calls = count_fprime_calls(monkeypatch)
    minor_matrix(EpsilonFamily(1, F(1), 2), x=F(3, 4), lmax=lmax, hmax=hmax)
    assert [order for _, _, order in calls] == [max(hmax + 2 * lmax - 1, 0)]
