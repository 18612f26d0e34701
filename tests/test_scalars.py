import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    finf, fnan, fninf, fone, from_int, from_man_exp, fzero, mpf_cmp, round_ceiling, round_floor,
)
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg, mpi_sub
from sympy import factorint

from radialtyz.scalars import (
    BallScalar,
    DomainError,
    ExactnessError,
    RationalScalar,
    RootScalar,
    ZERO,
    Sign,
    SignUndeterminedError,
    _ball,
    _ball_of,
    _canonical_root,
    _cook,
    _factor,
    _libmp,
    _raw,
    _raw_add,
    _raw_dot,
    _raw_mul,
    _raw_neg,
    abs_le,
    as_scalar,
    int_pow,
    nth_root,
    scalar_exp,
    scalar_log,
    scalar_pow,
)

rationals = st.fractions(
    min_value=F(-100), max_value=F(100), max_denominator=50
)


def test_rational_text_roundtrip():
    v = as_scalar(F(-12294367331, 2373046875))
    assert v.text() == "-12294367331/2373046875"
    assert as_scalar(v.text()) == v
    assert as_scalar("5").text() == "5"


def test_perfect_roots_collapse_to_rationals():
    assert nth_root(as_scalar(F(25, 16)), 2).text() == "5/4"
    assert nth_root(as_scalar(F(27, 8)), 3).text() == "3/2"
    assert nth_root(as_scalar(-8), 3).text() == "-2"


def test_root_canonicalization_merges_equivalent_radicals():
    a = scalar_pow(as_scalar(4), F(1, 4))   # 4^(1/4) == sqrt(2)
    b = nth_root(as_scalar(2), 2)
    assert (a - b).sign() == Sign.ZERO
    c = nth_root(as_scalar(F(101, 100)), 2)  # sqrt(101)/10
    assert isinstance(c, RootScalar) and c.radicand == 101
    assert ((c * c) - as_scalar(F(101, 100))).sign() == Sign.ZERO


def test_root_field_arithmetic_and_sign():
    s2 = nth_root(as_scalar(2), 2)
    # (sqrt2 - 1)(sqrt2 + 1) == 1
    assert ((s2 - 1) * (s2 + 1) - 1).sign() == Sign.ZERO
    # 1/(1 + sqrt2) == sqrt2 - 1
    assert (1 / (s2 + 1) - (s2 - 1)).sign() == Sign.ZERO
    # sign of a value extremely close to zero is still decided exactly
    tiny = s2 * as_scalar(F(10**20, 10**20 + 1)) - s2
    assert tiny.sign() == Sign.NEGATIVE


def test_cube_root_field():
    t = nth_root(as_scalar(F(91, 27)), 3)
    assert (int_pow(t, 3) - as_scalar(F(91, 27))).sign() == Sign.ZERO
    assert (1 / t * t - 1).sign() == Sign.ZERO


def test_mixing_distinct_roots_raises():
    a = nth_root(as_scalar(2), 2)
    b = nth_root(as_scalar(3), 2)
    with pytest.raises(ExactnessError):
        _ = a + b


def test_nested_root_raises():
    a = nth_root(as_scalar(2), 2)
    with pytest.raises(ExactnessError):
        nth_root(a, 2)


def test_ball_sign_and_undetermined():
    b = as_scalar(F(1, 3)).to_ball(128)
    assert b.sign() == Sign.POSITIVE
    z = b - b
    assert z.sign() == Sign.UNDETERMINED
    with pytest.raises(SignUndeterminedError):
        z.require_sign()
    with pytest.raises(SignUndeterminedError):
        _ = as_scalar(1) / z
    exact_zero = as_scalar(0).to_ball(64)
    assert exact_zero.sign() == Sign.ZERO


def test_ball_precision_propagates():
    a = as_scalar(F(1, 7)).to_ball(64)
    b = as_scalar(F(1, 11)).to_ball(512)
    assert (a * b).precision_bits == 512


def test_exp_log_special_cases():
    assert scalar_exp(as_scalar(0)).text() == "1"
    assert scalar_log(as_scalar(1)).text() == "0"
    with pytest.raises(ExactnessError):
        scalar_exp(as_scalar(2))
    with pytest.raises(ExactnessError):
        scalar_log(as_scalar(2))
    with pytest.raises(DomainError):
        scalar_log(as_scalar(-1).to_ball(64))


def test_fractional_pow_of_negative_rejected():
    with pytest.raises(DomainError):
        scalar_pow(as_scalar(-2), F(1, 2))


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_ball_enclosure_is_sound(a, b):
    """A ball never reports a sign that contradicts the exact computation."""
    ra, rb = as_scalar(a), as_scalar(b)
    exact = ra * rb + ra - rb
    ball = ra.to_ball(64) * rb.to_ball(64) + ra.to_ball(64) - rb.to_ball(64)
    s_exact, s_ball = exact.sign(), ball.sign()
    if s_ball in (Sign.POSITIVE, Sign.NEGATIVE):
        assert s_ball == s_exact


@given(rationals, st.integers(min_value=2, max_value=5))
@settings(max_examples=100, deadline=None)
def test_nth_root_power_identity(a, n):
    if a <= 0:
        a = -a + F(1, 3)
    r = nth_root(as_scalar(a), n)
    assert (int_pow(r, n) - as_scalar(a)).sign() == Sign.ZERO


def test_abs_le_on_straddling_ball():
    z = as_scalar(F(1, 3)).to_ball(256)
    z = z - z  # tiny straddling interval
    assert abs_le(z, F(1, 10**60))
    assert not abs_le(z, F(-1))


def test_factor_matches_sympy():
    rng = random.Random(0)
    cases = list(range(1, 20001))
    cases += [rng.randrange(1 << (bits - 1), 1 << bits) for bits in range(20, 91)]
    # prime squares on either side of the 2**16 trial bound, the product of
    # the two primes, and 2**61 - 1, a prime above 2**32 that Miller-Rabin
    # certifies
    cases += [65521**2, 65537**2, 65521 * 65537, 2**61 - 1]
    # powers p**k of primes just above 2**16, up to the k = bit_length // 16
    # that the perfect-power search starts from; semiprimes of two ~40-bit
    # primes, which Pollard's rho splits; 92369**9, 149 bits, above the
    # Miller-Rabin bound, as reproduce-paper meets it
    cases += [p**k for p in (65537, 65539, 65543) for k in (2, 3, 4, 7, 16)]
    cases += [p * q for p, q in ((549755813911, 549755813951), (824633720837, 1099511627689))]
    cases += [92369**9, 65537**3 * 92369**2]
    for m in cases:
        assert _factor(m) == factorint(m), m


def test_factor_takes_no_sympy_below_the_miller_rabin_bound(monkeypatch):
    # strong pseudoprimes to the bases 2..23 and to 2..37, which the bases up
    # to 41 still find composite
    monkeypatch.setitem(sys.modules, "sympy", None)  # any sympy import raises
    assert _factor(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
    assert _factor(318665857834031151167461) == {399165290221: 1, 798330580441: 1}
    assert _factor(549755813911 * 549755813951) == {549755813911: 1, 549755813951: 1}
    assert _factor(65537**5) == {65537: 5}
    assert _factor(92369**9) == {92369: 9}  # a perfect power above the bound


def _canonical_root_reference(fr, n):
    exps = {int(p): int(e) for p, e in factorint(fr.numerator).items()}
    for p, e in factorint(fr.denominator).items():
        exps[int(p)] = -int(e)
    g = n
    for e in exps.values():
        g = math.gcd(g, e)
    degree = n // g
    scale, radicand = F(1), 1
    for p, e in exps.items():
        e //= g
        scale *= F(p) ** (e // degree)
        radicand *= p ** (e % degree)
    return scale, (1 if radicand == 1 else degree), radicand


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_canonical_root_matches_sympy_reference(n):
    table = [
        F(1), F(2), F(12), F(1, 2), F(25, 16), F(27, 8), F(101, 100), F(91, 27),
        F(72, 50), F(3**6 * 5**4, 2**10), F(2**12 * 7**5, 3**9), F(53089, 4096),
        F(65537**2, 65521), F(65521**3 * 4, 9), F(2**61 - 1, 65537**2),
    ]
    for fr in table:
        assert _canonical_root(fr, n) == _canonical_root_reference(fr, n), fr


# -- ball strategies ---------------------------------------------------------
#
# Balls are built by the kernel: a rational promoted with to_ball, whose
# endpoints test_rational_to_ball_matches_interval_context checks against libmpi.

precisions = st.sampled_from([4, 16, 53, 256])
wide_rationals = st.builds(
    F, st.integers(-(2**300), 2**300), st.integers(1, 2**300)
) | rationals


def _span(lo, hi, prec):
    lo, hi = sorted((lo, hi))
    lo_iv, hi_iv = RationalScalar(lo).to_ball(prec).iv, RationalScalar(hi).to_ball(prec).iv
    return _ball(lo_iv[:2] + hi_iv[2:], prec)


def _balls(values, precs):
    """A ball from two values lo <= hi, or around one value."""
    return st.builds(_span, values, values, precs) | st.builds(
        lambda v, prec: RationalScalar(v).to_ball(prec), values, precs
    )


# a point, a wide ball, or one straddling 0
balls = _balls(wide_rationals, precisions)


def test_is_zero_agrees_with_sign():
    third = as_scalar(F(1, 3))
    s2 = nth_root(as_scalar(2), 2)
    straddling = third.to_ball(256) - third.to_ball(256)
    tiny = as_scalar(F(1, 10**70)).to_ball(256)
    cases = [
        ZERO, third, -third,
        RootScalar(2, 2, (F(0), F(0))), s2,
        ZERO.to_ball(53), straddling, tiny, -tiny,
    ]
    assert [v.is_zero() for v in cases] == [v.sign() == Sign.ZERO for v in cases]
    assert [v.is_zero() for v in cases] == [True, False, False, True, False, True, False, False, False]


def test_adding_exact_zero_returns_the_other_operand():
    ball = as_scalar(F(1, 3)).to_ball(64)
    root = nth_root(as_scalar(2), 2)
    for v in (ball, root):
        assert v + ZERO is v
        assert ZERO + v is v
    assert isinstance(ZERO + ZERO, RationalScalar) and (ZERO + ZERO).is_zero()
    product = ball * ZERO  # not shortcut: a ball times an exact zero stays a ball
    assert isinstance(product, BallScalar)
    assert product.mpi == (fzero, fzero) and product.precision_bits == 64


@pytest.mark.parametrize("ends", [(fninf, finf), (fzero, finf), (fninf, fzero), (fnan, fnan),
                                  (fzero, fnan)])
def test_non_finite_ball_endpoints_are_rejected(ends):
    with pytest.raises(ValueError, match="infinite or nan"):
        BallScalar(ends, 53)


@given(balls, st.sampled_from([ZERO, RationalScalar(F(0))]))
@example(as_scalar(F(-1, 3)).to_ball(4), ZERO)
@example(ZERO.to_ball(256), ZERO)
@settings(max_examples=300, deadline=None)
def test_exact_zero_times_ball_matches_promoted_product(ball, zero):
    want = _ref_ball(mpi_mul, zero.to_ball(ball.precision_bits), ball)
    for got in (zero * ball, ball * zero):
        assert isinstance(got, BallScalar)
        assert (got.mpi, got.precision_bits) == (want.mpi, want.precision_bits)


def test_exact_zero_times_finite_ball_promotes_nothing(monkeypatch):
    ball = as_scalar(F(1, 3)).to_ball(64)
    promoted = []
    to_ball = RationalScalar.to_ball
    monkeypatch.setattr(
        RationalScalar, "to_ball", lambda self, *a: promoted.append(self) or to_ball(self, *a)
    )
    assert (ZERO * ball).mpi == (ball * ZERO).mpi == (fzero, fzero)
    assert promoted == []
    root = nth_root(as_scalar(2), 2)
    assert isinstance(ZERO * root, RationalScalar) and isinstance(root * ZERO, RationalScalar)


# -- the integer lane against libmpi ----------------------------------------
#
# A ball holds integer mantissa/exponent endpoints, which its raw shares, and
# _raw_mul, _raw_add and _raw_neg round them outward themselves; read back
# through .mpi they must be the tuples libmpi gives for the same endpoints.


def _ref_rat_iv(p, q, prec):
    """p/q on libmpi: p and q rounded outward, then divided outward."""
    iv = lambda k: (from_int(k, prec, round_floor), from_int(k, prec, round_ceiling))
    return iv(p) if q == 1 else mpi_div(iv(p), iv(q), prec)


lane_precisions = st.sampled_from([4, 16, 53, 256, 694])
SHAPES = ["positive", "negative", "straddle", "zero-lo", "zero-hi", "zero", "point"]


@st.composite
def lane_balls(draw):
    """A ball of a drawn shape whose endpoints are m * 2**e with exponents far
    apart or close, rounded outward to the precision or (to reach libmpf's
    rounding of operands wider than the precision) left exact."""
    prec = draw(lane_precisions)
    mags = st.integers(1, 2**prec) | st.integers(1, 2 ** (prec + 80)) | st.integers(1, 8)
    exps = st.integers(-800, 800) | st.integers(-6, 6)
    u = from_man_exp(draw(mags), draw(exps))
    v = from_man_exp(draw(mags), draw(exps))
    if mpf_cmp(u, v) > 0:
        u, v = v, u
    neg = lambda f: (1 - f[0],) + f[1:]
    lo, hi = {
        "positive": (u, v), "negative": (neg(v), neg(u)), "straddle": (neg(u), v),
        "zero-lo": (fzero, v), "zero-hi": (neg(v), fzero), "zero": (fzero, fzero),
        "point": (u, u),
    }[draw(st.sampled_from(SHAPES))]
    if draw(st.booleans()):
        lo = from_man_exp(*_man_exp(lo), prec, round_floor)
        hi = from_man_exp(*_man_exp(hi), prec, round_ceiling)
    return BallScalar((lo, hi), prec)


def _man_exp(f):
    return (-f[1] if f[0] else f[1]), f[2]


def _ends(b: BallScalar):
    return b.mpi, b.precision_bits


def _lane_op(op, *raws):
    return _ends(_cook(op(*raws)))


@given(lane_balls(), lane_balls())
@example(  # both straddle 0
    BallScalar((_ref_rat_iv(-3, 1, 16)[0], _ref_rat_iv(5, 1, 16)[1]), 16),
    BallScalar((_ref_rat_iv(-7, 2, 53)[0], _ref_rat_iv(1, 3, 53)[1]), 53),
)
@example(  # a gap of more than prec + 4 bits: mpf_add's sticky-bit path
    BallScalar((from_man_exp(1, 0), from_man_exp(3, 0)), 256),
    BallScalar((from_man_exp(-1, -700), from_man_exp(1, -700)), 256),
)
@example(  # a gap of more than 100 bits but within the precision
    BallScalar((from_man_exp(5, 0), from_man_exp(7, 0)), 694),
    BallScalar((from_man_exp(-3, -300), from_man_exp(3, -300)), 694),
)
@settings(max_examples=600, deadline=None)
def test_integer_lane_matches_libmpi(a, b):
    prec = max(a.precision_bits, b.precision_bits)
    ra, rb = _raw(a), _raw(b)
    assert ra[0] is None and isinstance(ra[1][0], int)
    assert _lane_op(_raw_mul, ra, rb) == (mpi_mul(a.mpi, b.mpi, prec), prec)
    assert _lane_op(_raw_add, ra, rb) == (mpi_add(a.mpi, b.mpi, prec), prec)
    assert _lane_op(_raw_neg, ra) == (mpi_neg(a.mpi, a.precision_bits), a.precision_bits)
    negated = mpi_neg(b.mpi, b.precision_bits)
    assert _lane_op(_raw_add, ra, _raw_neg(rb)) == (mpi_add(a.mpi, negated, prec), prec)


wide_ints = st.integers(-(2**800), 2**800) | st.integers(-(2**40), 2**40)


@given(wide_ints, st.integers(1, 2**800) | st.integers(1, 2**40), lane_precisions)
@example(2**53 + 1, 1, 53)
@example(-(2**694) - 1, 3, 694)
@example(15, 16, 4)
@example(17, 2**16 + 1, 4)
@example(0, 7, 16)
@settings(max_examples=600, deadline=None)
def test_promotion_matches_libmpi(p, q, prec):
    g = math.gcd(p, q)
    want = _ref_rat_iv(p // g, q // g, prec)
    got = _ball_of(_raw(F(p, q)), prec)
    assert _cook((None, got, prec)).mpi == want
    if q == 1 and p.bit_length() <= prec:
        assert got == (p, 0, p, 0)  # exact endpoints, no rounding
    # the operators promote the same way at the ball's precision
    ball = as_scalar(F(1, 3)).to_ball(prec)
    assert (ball * F(p, q)).mpi == mpi_mul(ball.mpi, want, prec)
    assert (ball + F(p, q)).mpi == (mpi_add(ball.mpi, want, prec) if p else ball.mpi)


@given(wide_rationals, precisions)
@example(F(2**300 + 1, 3), 53)
@example(F(-(2**300 + 1), 3), 53)
@example(F(0), 4)
@example(F(3**200, 7**150), 16)
@settings(max_examples=300, deadline=None)
def test_rational_to_ball_matches_interval_context(fr, prec):
    # the interval context's mpf(p) / mpf(q), as the libmpi calls it makes
    want = _ref_rat_iv(fr.numerator, fr.denominator, prec)
    assert _ends(RationalScalar(fr).to_ball(prec)) == (want, prec)


@given(lane_balls())
@settings(max_examples=200, deadline=None)
def test_a_ball_and_its_raw_share_the_integer_endpoints(b):
    assert all(isinstance(v, int) for v in b.iv)
    assert _raw(b) == (None, b.iv, b.precision_bits) and _raw(b)[1] is b.iv
    assert _cook(_raw(b)).iv is b.iv
    assert BallScalar(b.mpi, b.precision_bits).iv == b.iv  # .mpi and the constructor invert


def test_ball_equality_ignores_trailing_zero_bits():
    a, b = _cook((None, (4, 0, 12, 0), 16)), _cook((None, (1, 2, 3, 2), 16))
    assert a.iv != b.iv and a == b and hash(a) == hash(b)
    assert a.mpi == b.mpi == BallScalar((from_man_exp(1, 2), from_man_exp(3, 2)), 16).mpi
    assert a != _cook((None, (4, 0, 13, 0), 16))


@st.composite
def signed_iv_balls(draw):
    """A ball of one sign at 16 to 1024 bits built from integer endpoints as the
    kernel leaves them: mantissas of up to prec + 40 bits, each possibly
    carrying trailing zero bits."""
    prec = draw(st.sampled_from([16, 53, 256, 1024]) | st.integers(16, 1024))
    def end():
        m = draw(st.integers(1, 2 ** (prec + 40)) | st.integers(1, 8))
        t = draw(st.integers(0, 40))
        return m << t, draw(st.integers(-800, 800) | st.integers(-6, 6)) - t
    (lm, le), (hm, he) = sorted((end(), end()), key=lambda me: F(me[0]) * F(2) ** me[1])
    if draw(st.booleans()):
        return _ball((-hm, he, -lm, le), prec)
    return _ball((lm, le, hm, he), prec)


@given(signed_iv_balls())
@example(_ball((8, -3, 8, -3), 16))  # 1 with trailing zero bits: an exact inverse
@example(_ball((-12, 5, -4, 5), 1024))
@example(_ball((3, 0, 2**1100 + 1, -40), 1024))  # endpoints wider than the precision
@settings(max_examples=600, deadline=None)
def test_ball_inverse_matches_libmpi_division(b):
    prec = b.precision_bits
    assert _ends(b._inverse()) == (mpi_div((fone, fone), b.mpi, prec), prec)


@given(signed_iv_balls())
@example(_ball((0, 7, 0, -3), 16))  # a zero mantissa keeps whatever exponent it had
@example(_ball((-(2**64), 0, 2**64 - 1, 0), 64))
@settings(max_examples=600, deadline=None)
def test_ball_mpi_matches_from_man_exp(b):
    lm, le, hm, he = b.iv
    assert b.mpi == (from_man_exp(lm, le), from_man_exp(hm, he))


# -- a reference arithmetic ------------------------------------------------
#
# Every operator is the dot kernel's one-term case. The promotion rules and the
# per-backend operations below are the ones the operators had before that, kept
# here as an oracle independent of the kernel: the operators and _raw_dot
# must match them bit for bit, exceptions included.


def _ref_promote(a, b):
    if isinstance(a, BallScalar) or isinstance(b, BallScalar):
        prec = max(v.precision_bits for v in (a, b) if isinstance(v, BallScalar))
        return a.to_ball(prec), b.to_ball(prec)
    if isinstance(a, RootScalar) and isinstance(b, RootScalar):
        if (a.degree, a.radicand) != (b.degree, b.radicand):
            raise ExactnessError("cannot mix root extensions")
    elif isinstance(a, RootScalar):
        b = RootScalar(a.degree, a.radicand, (b.value,) + (F(0),) * (a.degree - 1))
    elif isinstance(b, RootScalar):
        a = RootScalar(b.degree, b.radicand, (a.value,) + (F(0),) * (b.degree - 1))
    return a, b


def _ref_ball(op, a, b):
    prec = max(a.precision_bits, b.precision_bits)
    return BallScalar(op(a.mpi, b.mpi, prec), prec)


def _ref_add(a, b):
    a, b = as_scalar(a), as_scalar(b)
    if isinstance(b, RationalScalar) and not b.value:
        return a
    if isinstance(a, RationalScalar) and not a.value:
        return b
    a, b = _ref_promote(a, b)
    if isinstance(a, BallScalar):
        return _ref_ball(mpi_add, a, b)
    if isinstance(a, RootScalar):
        coeffs = tuple(u + v for u, v in zip(a.coeffs, b.coeffs))
        return RootScalar.make(a.degree, a.radicand, coeffs)
    return RationalScalar(a.value + b.value)


def _ref_sub(a, b):
    a, b = as_scalar(a), as_scalar(b)
    if isinstance(a, BallScalar) and isinstance(b, BallScalar):
        return _ref_ball(mpi_sub, a, b)
    return _ref_add(a, -b)


def _ref_mul(a, b):
    a, b = as_scalar(a), as_scalar(b)
    for x, y in ((a, b), (b, a)):
        if isinstance(y, BallScalar) and isinstance(x, RationalScalar) and not x.value:
            return BallScalar((fzero, fzero), y.precision_bits)
    a, b = _ref_promote(a, b)
    if isinstance(a, BallScalar):
        return _ref_ball(mpi_mul, a, b)
    if isinstance(a, RootScalar):
        d, r = a.degree, a.radicand
        acc = [F(0)] * d
        for i, u in enumerate(a.coeffs):
            for j, v in enumerate(b.coeffs):
                acc[(i + j) % d] += u * v * (r if i + j >= d else 1)
        return RootScalar.make(d, r, tuple(acc))
    return RationalScalar(a.value * b.value)


def _ref_div(a, b):
    a, b = _ref_promote(as_scalar(a), as_scalar(b))
    return _ref_mul(a, b._inverse())


def _outcome(f):
    try:
        v = f()
    except ArithmeticError as exc:
        return type(exc).__name__
    if isinstance(v, BallScalar):
        return "ball", v.mpi, v.precision_bits
    return type(v).__name__, v


# -- the dot kernel ----------------------------------------------------------

SQRT2, CBRT3 = nth_root(as_scalar(2), 2), nth_root(as_scalar(3), 3)
exact_zeros = st.sampled_from([ZERO, RationalScalar(F(0))])
root_elements = st.tuples(st.sampled_from([SQRT2, CBRT3]), rationals, rationals.filter(bool)).map(
    lambda t: as_scalar(t[1]) + t[0] * t[2]
)
dot_operands = exact_zeros | rationals.map(as_scalar) | root_elements | balls
dot_weights = dot_operands | st.integers(-3, 3) | rationals


def _fold(acc, xs, ys, ws, neg):
    """The left fold the kernel stands for, in the reference arithmetic."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        t = _ref_mul(x, y) if ws is None else _ref_mul(_ref_mul(x, y), ws[i])
        acc = _ref_sub(acc, t) if neg else _ref_add(acc, t)
    return acc


@given(
    dot_operands,
    st.lists(st.tuples(dot_operands, dot_operands, dot_weights), max_size=6),
    st.booleans(),
    st.booleans(),
)
@example(ZERO, [(SQRT2, ZERO, 1), (CBRT3, as_scalar(1).to_ball(53), 1)], False, True)
@example(as_scalar(F(1, 3)), [(SQRT2, SQRT2, F(1, 2)), (CBRT3, as_scalar(1), 0)], True, False)
@example(ZERO, [(as_scalar(F(1, 3)).to_ball(16), as_scalar(3), 0)], False, True)
# terms with an exact-zero factor that still change the sum: the precision
# rises to the zero ball's, an exact sum is promoted, and a sum of zero balls
# is the ball [0, 0], not exact 0
@example(as_scalar(F(1, 3)).to_ball(53), [(ZERO, as_scalar(F(1, 7)).to_ball(256), 1)], False, False)
@example(as_scalar(F(1, 3)), [(ZERO, as_scalar(F(1, 7)).to_ball(16), 1)], False, True)
@example(ZERO, [(as_scalar(F(1, 3)).to_ball(16), ZERO, 1), (ZERO, as_scalar(2), as_scalar(F(1, 7)).to_ball(53))], True, False)
# and one whose sum's endpoints are wider than its precision, which the
# zero ball's addition rounds
@example(BallScalar(((0, 2**40 + 1, 0, 41), (0, 2**40 + 3, 0, 41)), 16), [(ZERO, as_scalar(F(1, 7)).to_ball(16), 1)], False, False)
@settings(max_examples=300, deadline=None)
def test_scalar_dot_matches_the_scalar_fold(acc, terms, weighted, neg):
    xs, ys, ws = [t[0] for t in terms], [t[1] for t in terms], [t[2] for t in terms]
    if not weighted:
        ws = None
    want = _outcome(lambda: _fold(acc, xs, ys, ws, neg))
    raws = lambda vs: None if vs is None else [_raw(v) for v in vs]
    got = lambda: _cook(_raw_dot(_raw(acc), raws(xs), raws(ys), raws(ws), neg))
    assert _outcome(got) == want


@given(dot_operands, dot_operands)
@example(SQRT2, CBRT3)
@example(as_scalar(F(1, 3)).to_ball(16), as_scalar(F(2**300 + 1, 3)).to_ball(256))
@example(as_scalar(F(1, 3)), ZERO)
@example(SQRT2, as_scalar(F(1, 3)).to_ball(4))
@example(as_scalar(F(2**300 + 1, 3)).to_ball(53), as_scalar(F(-1, 3)).to_ball(256))
@example(as_scalar(0).to_ball(4), as_scalar(F(1, 3)).to_ball(16))
@settings(max_examples=400, deadline=None)
def test_operators_match_the_reference_arithmetic(a, b):
    for op, ref in ((operator.add, _ref_add), (operator.sub, _ref_sub),
                    (operator.mul, _ref_mul), (operator.truediv, _ref_div)):
        assert _outcome(lambda: op(a, b)) == _outcome(lambda: ref(a, b)), op.__name__


def test_every_backend_shares_the_kernel_operators():
    assert RationalScalar._add is RootScalar._add is BallScalar._add
    assert RationalScalar._mul is RootScalar._mul is BallScalar._mul


# -- exp, log, roots and powers against libmpi --------------------------------
#
# The interval context's computations, as the libmpi calls it makes: an
# integer operand is rounded outward to the precision (_ref_rat_iv).

oracle_precisions = st.sampled_from([8, 16, 53, 64, 256, 694])
positive_rationals = st.builds(F, st.integers(1, 2**300), st.integers(1, 2**300)) | rationals.filter(
    lambda v: v > 0
)
positive_balls = _balls(positive_rationals, oracle_precisions)


@given(positive_balls, st.integers(2, 7), st.integers(-7, 7).filter(bool))
@example(as_scalar(2).to_ball(8), 2, 1)
@example(as_scalar(F(1, 3)).to_ball(694), 5, -3)
@settings(max_examples=200, deadline=None)
def test_ball_exp_log_root_pow_match_interval_context(b, n, k):
    p, x = b.precision_bits, b.mpi
    log = mpi_log(x, p)
    assert _ends(scalar_exp(b)) == (mpi_exp(x, p), p)
    assert _ends(scalar_exp(-b)) == (mpi_exp(mpi_neg(x, p), p), p)
    assert _ends(scalar_log(b)) == (log, p)
    assert _ends(nth_root(b, n)) == (mpi_exp(mpi_div(log, _ref_rat_iv(n, 1, p), p), p), p)
    e = F(k, n)
    if e.denominator != 1:
        e_iv = _ref_rat_iv(e.numerator, e.denominator, p)
        assert _ends(scalar_pow(b, e)) == (mpi_exp(mpi_mul(e_iv, log, p), p), p)


root_coeffs = st.lists(wide_rationals, min_size=5, max_size=5)


@given(st.integers(2, 5), st.sampled_from([2, 3, 5, 6, 7, 10, 12, 101]), root_coeffs,
       oracle_precisions)
@example(2, 2, [F(-1), F(1), F(0), F(0), F(0)], 8)
@example(5, 12, [F(1, 3), F(-2, 7), F(0), F(5), F(-1)], 694)
@settings(max_examples=200, deadline=None)
def test_root_to_ball_matches_interval_context(degree, radicand, coeffs, prec):
    coeffs = tuple(coeffs[:degree])
    if not any(coeffs[1:]):
        coeffs = coeffs[:1] + (F(1),) + coeffs[2:]
    v = RootScalar(degree, radicand, coeffs)
    log = mpi_log(_ref_rat_iv(radicand, 1, prec), prec)
    theta = mpi_exp(mpi_div(log, _ref_rat_iv(degree, 1, prec), prec), prec)
    acc = (fzero, fzero)
    for c in reversed(coeffs):
        c_iv = _ref_rat_iv(c.numerator, c.denominator, prec)
        acc = mpi_add(mpi_mul(acc, theta, prec), c_iv, prec)
    assert _ends(v.to_ball(prec)) == (acc, prec)


@pytest.mark.parametrize("prec", [8, 53, 256])
def test_ball_log_keeps_its_errors(prec):
    third = as_scalar(F(1, 3)).to_ball(prec)
    with pytest.raises(SignUndeterminedError):
        scalar_log(third - third)
    for ball in (ZERO.to_ball(prec), -third):
        with pytest.raises(DomainError, match="log of a non-positive ball"):
            scalar_log(ball)


# -- quadratic root signs on the rationals -------------------------------------


def _sympy_sign(a: F, b: F, r: int) -> Sign:
    import sympy as sp

    s = sp.sign(sp.Rational(a.numerator, a.denominator)
                + sp.Rational(b.numerator, b.denominator) * sp.sqrt(r))
    return {1: Sign.POSITIVE, -1: Sign.NEGATIVE, 0: Sign.ZERO}[int(s)]


def _sqrt_convergents(r: int, count: int) -> list[tuple[int, int]]:
    """The first continued-fraction convergents p/q of sqrt(r), r not a square."""
    a0 = math.isqrt(r)
    m, d, a = 0, 1, a0
    (p0, p1), (q0, q1) = (1, a0), (0, 1)
    out = [(p1, q1)]
    for _ in range(count):
        m = d * a - m
        d = (r - m * m) // d
        a = (a0 + m) // d
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        out.append((p1, q1))
    return out


SQUARE_FREE = [2, 3, 5, 6, 7, 10, 337, 1351]


def test_quadratic_root_sign_matches_sympy_without_a_ball(monkeypatch):
    def no_ball(self, precision_bits=0):
        raise AssertionError("a quadratic sign built a ball")

    monkeypatch.setattr(RootScalar, "to_ball", no_ball)
    rng = random.Random(20)
    cases = []
    for r in SQUARE_FREE:
        for _ in range(12):  # a seeded grid of a, b = +-p/q, opposite signs mostly
            a, b = (F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12)) for _ in "ab")
            cases.append((a, b, r))
        for p, q in _sqrt_convergents(r, 16):  # near ties, each side of sqrt(r)
            for k in (1, 3):
                cases += [(F(p * k), F(-q * k), r), (F(-p, k), F(q, k), r)]
        cases += [(F(0), F(-3, 2), r), (F(5, 7), F(0), r), (F(0), F(0), r)]  # zero parts
    for a, b, r in cases:
        assert RootScalar(2, r, (a, b)).sign() == _sympy_sign(a, b, r), (a, b, r)


def test_quadratic_tie_is_zero_only_for_a_radicand_that_is_not_canonical():
    assert RootScalar(2, 4, (F(2), F(-1))).sign() == Sign.ZERO  # 2 - sqrt(4)
    assert RootScalar(2, 4, (F(-3), F(3, 2))).sign() == Sign.ZERO
    assert RootScalar(2, 4, (F(2), F(-1, 2))).sign() == Sign.POSITIVE


def test_libmp_loader_reuses_an_imported_mpmath():
    # this module imports mpmath.libmp, so no second copy of it loads
    assert _libmp() is sys.modules["mpmath.libmp"]


def test_root_sign_on_a_radicand_that_is_not_canonical_is_an_input_error():
    # 2 - 8**(1/3) is zero, and no ball separates a zero from it: refinement
    # would double the precision towards 2**22 bits, so a subprocess bounds it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from fractions import Fraction as F\n"
         "from radialtyz.scalars import RootScalar\n"
         "RootScalar(3, 8, (F(2), F(-1), F(0))).sign()"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ValueError: radicand 8 is not canonical for degree 3"
    # 4**(1/4) is sqrt(2): nonzero, but make() and nth_root never build it
    with pytest.raises(ValueError, match="radicand 4 is not canonical for degree 4"):
        RootScalar(4, 4, (F(1), F(-1), F(0), F(0))).sign()
    assert nth_root(as_scalar(4), 4) - 1 == RootScalar(2, 2, (F(-1), F(1)))


# -- root extensions that hold each other's roots -------------------------------


@pytest.mark.parametrize("small, large, c, k", [
    ((337, 2), (337, 4), F(1), 2),
    ((186245, 3), (4825, 6), F(1, 5), 4),  # 186245 = 5 * 193**2, 4825 = 5**2 * 193
    ((193, 2), (4825, 6), F(1, 5), 3),
    ((9, 3), (3, 3), F(1), 2),
])
def test_a_root_mixes_into_an_extension_that_holds_it(small, large, c, k):
    s, t = nth_root(as_scalar(small[0]), small[1]), nth_root(as_scalar(large[0]), large[1])
    assert (s - int_pow(t, k) * c).sign() == Sign.ZERO
    assert (int_pow(t, k) * c - s).sign() == Sign.ZERO
    # each exact result lies in the ball the same operation gives on the operands' balls
    sb, tb = s.to_ball(256), t.to_ball(256)
    for got, want in ((s + t, sb + tb), (t - s, tb - sb), (s * t, sb * tb), (t / s, tb / sb)):
        assert got.exact and (got.to_ball(256) - want).sign() == Sign.UNDETERMINED


def test_roots_that_hold_neither_root_still_raise():
    for a, b in (((2, 2), (3, 2)), ((2, 2), (2, 3)), ((5, 2), (4825, 6))):
        with pytest.raises(ExactnessError, match="cannot mix root extensions"):
            nth_root(as_scalar(a[0]), a[1]) * nth_root(as_scalar(b[0]), b[1])
