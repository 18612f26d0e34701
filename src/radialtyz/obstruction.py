"""Obstruction functions g_h(x) = (d^h e^f / dx^h) e^{-f} and negativity scans.

A certified-negative g_h(x) proves the radial metric is not projectively
induced, so the scanner never guesses: every verdict is backed by an exact
sign or an interval strictly off zero, retrying at doubled precision (up to a
cap) before reporting `undetermined`.

g_h is always computed two independent ways which must agree:
  (i)  the first-order recursion g_{h+1} = g_h' + g_1 g_h over jets, g_1 = f';
  (ii) the h-th Taylor derivative of e^f at the base point (with f anchored to
       f(x0) = 0, so the e^{-f(x0)} normalization is exactly 1).
The check forms g_h - h! c_h on kernel raws, by the Scalar operators' own
operations, and builds Scalars only of that difference and of each g_h.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .jets import Jet
from .potentials import (
    PotentialFamily,
    EpsilonFamily,
    family_label,
    fprime_jet,
    prepare_point,
)
from .records import Record
from .scalars import (
    DEFAULT_PRECISION_BITS,
    PRECISION_CAP_BITS,
    BallScalar,
    DomainError,
    RationalScalar,
    Scalar,
    ScalarLike,
    Sign,
    SignUndeterminedError,
    _Q,
    _cook,
    _raw_add,
    _raw_mul,
    _raw_neg,
    as_scalar,
    int_pow,
    require_gt,
    scalar_pow,
)


def gh_jets(fp: Jet, hmax: int) -> list[Jet]:
    """Jets of g_0 .. g_hmax at fp.x0 by g_{h+1} = g_h' + f' g_h.

    g_0 = 1 starts at order fp.order + 1 and each step loses one order, so
    g_h is known to order fp.order + 1 - h.
    """
    cur = Jet.constant(fp.x0, 1, fp.order + 1)
    jets = [cur]
    for _ in range(hmax):
        cur = cur.derive() + fp.truncate(cur.order - 1) * cur
        jets.append(cur)
    return jets


def gh_sequence(fam: PotentialFamily, x0: ScalarLike, hmax: int) -> list[Scalar]:
    """g_0 .. g_hmax at x0, recursion- and direct-route agreement enforced."""
    if hmax < 0:
        raise ValueError("hmax must be nonnegative")
    fp = fprime_jet(fam, x0, max(hmax - 1, 0))
    raws = [g.raws[0] for g in gh_jets(fp, hmax)]

    direct = fp.antiderive(0).exp().raws  # e^f with f(x0) = 0
    for h in range(1, hmax + 1):
        diff = _cook(_raw_add(raws[h], _raw_neg(_raw_mul(direct[h], (_Q, (math.factorial(h),), 1)))))
        if diff.sign() not in (Sign.ZERO, Sign.UNDETERMINED):
            raise ArithmeticError(
                f"g_{h} recursion and direct routes disagree (certified): {diff!r}"
            )
    return [_cook(r) for r in raws]


def g3_closed_eps_minus1(lam: Fraction, n: int, x: ScalarLike) -> Scalar:
    """Closed form of g_3 for the eps = -1 family (potential lam * f_{-1})."""
    lam = Fraction(lam)
    x = as_scalar(x)
    require_gt(x, 1, "eps=-1 closed form needs x > 1")
    t = int_pow(x, n) - 1
    lam_s = as_scalar(lam)
    inner = (
        lam_s * lam_s * scalar_pow(t, Fraction(2 + 2 * n, n))
        + lam_s * scalar_pow(t, Fraction(1 + n, n)) * 3
        - (int_pow(x, n) * (n + 1) - 2)
    )
    return lam_s * scalar_pow(t, Fraction(1 - 2 * n, n)) * scalar_pow(x, -3) * inner


def g4_at_1_closed(n: int) -> Scalar:
    """The displayed g_4(1) for eps = 1, lam = 1, as a function of n."""
    if n < 1:
        raise ValueError("n must be positive")
    two = as_scalar(2)
    c = scalar_pow(two, Fraction(1, n))
    poly = (
        int_pow(c, 3) * 8
        - int_pow(c, 2) * 24
        + c * 30
        - 15
        + c * (8 * n)
        - 9 * n
    )
    return scalar_pow(two, Fraction(1 - 3 * n, n)) * poly


class ObstructionReport(Record):
    family: str
    x: Scalar
    h: int
    value: Scalar
    sign: Sign
    backend: str
    precision_bits: int | None

    def to_json_dict(self) -> dict:
        from .reports import scalar_to_json

        return {
            "family": self.family,
            "x": self.x.text(),
            "h": self.h,
            "value": scalar_to_json(self.value),
            "sign": self.sign.value,
            "backend": self.backend,
            "precision_bits": self.precision_bits,
        }


def _report(fam: PotentialFamily, x: Scalar, h: int, value: Scalar) -> ObstructionReport:
    prec = value.precision_bits if isinstance(value, BallScalar) else None
    return ObstructionReport(
        family=family_label(fam),
        x=x,
        h=h,
        value=value,
        sign=value.sign(),
        backend=value.backend,
        precision_bits=prec,
    )


def gh_reports(
    fam: PotentialFamily,
    x: ScalarLike,
    hmax: int,
    *,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> list[ObstructionReport]:
    x = as_scalar(x)
    x0 = prepare_point(fam, x, exact=exact, precision_bits=precision_bits)
    values = gh_sequence(fam, x0, hmax)
    return [_report(fam, x, h, v) for h, v in enumerate(values)]


def obstruction_scan(
    fam: PotentialFamily,
    x_grid: Sequence[ScalarLike],
    hmax: int,
    *,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> list[ObstructionReport]:
    """All certified-negative g_h over the grid; ascending x, then h.

    Undetermined signs trigger recomputation at doubled precision up to
    PRECISION_CAP_BITS; points that remain undetermined are reported as such
    (never as a verdict). The minimal negative h per x is the first hit
    listed for that x.

    Grid points are rationals (int, Fraction, "p/q" or RationalScalar); a
    ball or root point is refused, never rounded to a rational. A value given
    more than once, in any of these forms, is scanned once.
    """
    grid = [as_scalar(p) for p in x_grid]
    for x in grid:
        if not isinstance(x, RationalScalar):
            raise TypeError(f"scan grid points must be rational, not {x.backend} scalars")
    hits: list[ObstructionReport] = []
    for x in sorted(set(grid), key=lambda x: x.value):
        prec = precision_bits
        while True:
            x0 = prepare_point(fam, x, exact=exact, precision_bits=prec)
            last = x0.exact or prec >= PRECISION_CAP_BITS
            try:
                values = gh_sequence(fam, x0, hmax)
            except SignUndeterminedError:  # e.g. a ball of x0 reaching the domain's edge
                if last:
                    raise
            else:
                signs = [v.sign() for v in values]
                if last or Sign.UNDETERMINED not in signs:
                    break
            prec *= 2
        for h, (v, s) in enumerate(zip(values, signs)):
            if s in (Sign.NEGATIVE, Sign.UNDETERMINED):
                hits.append(_report(fam, x, h, v))
    return hits


class DivergenceReport(Record):
    h: int
    values: tuple[Scalar, ...]
    growth_certified: bool


def small_x_divergence_check(
    lam: Fraction,
    n: int,
    k_list: Sequence[int],
    *,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> DivergenceReport:
    """g_{floor(lam)+2}(10^-k) for each k: certified negative and blowing up,
    each value certified more than 10x the previous one in magnitude.

    Only non-integer lam is accepted (the x -> 0 divergence is specific to
    lam outside the integers).
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if lam.denominator == 1:
        raise DomainError("integer lambda rejected: the small-x blow-up needs non-integer lambda")
    h = int(lam) + 2
    fam = EpsilonFamily(1, lam, n)
    values: list[Scalar] = []
    for k in k_list:
        x = as_scalar(Fraction(1, 10**k))
        x0 = prepare_point(fam, x, precision_bits=precision_bits)
        values.append(gh_sequence(fam, x0, h)[h])
    # successive points live in different root extensions; compare via balls
    balls = [v.to_ball(precision_bits) for v in values]
    growth = all(
        ((-balls[i + 1]) - (-balls[i]) * 10).sign() == Sign.POSITIVE
        for i in range(len(balls) - 1)
    )
    return DivergenceReport(
        h=h,
        values=tuple(values),
        growth_certified=growth,
    )


def rational_grid(spec: str) -> list[Fraction]:
    """Parse "a:b:steps" with rational endpoints into an inclusive grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError('grid must be "a:b:steps" with rational a, b')
    a, b = Fraction(parts[0]), Fraction(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        if a != b:
            raise ValueError(f"one grid step is one point: {spec} has a != b")
        return [a]
    delta = Fraction(b - a, steps - 1)
    return [a + delta * i for i in range(steps)]
