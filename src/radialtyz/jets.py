"""Truncated Taylor series at a base point (jets), univariate and bivariate.

A Jet holds coefficients c_0..c_H of sum c_k (x - x0)**k; arithmetic never
reads past the common order and results report their valid order (the min of
the operands'). Elementary functions follow the standard coefficient
recurrences: exp via p' = a'p, log via integration of a'/a, and pow(r) via the
binomial recurrence k*a0*p_k = sum_{j=1..k} ((r+1)j - k) a_j p_{k-j}; a second
pow route through exp(r*log(a/a0)) * a0**r is kept for cross-checks.

Coefficients are stored as the scalar kernel's raw values (scalars._raw), each
worth exactly the Scalar an operator would return. The ring operations are
functions of coefficient raws (_jet_add, _jet_sub, _jet_neg, _jet_scale,
_jet_mul), which Jet's operators call once each and curvature.RV directly.
Each coefficient of a product, a quotient, exp and pow, and of the bivariate
product, exp and composition, is one kernel sum of products
(scalars._raw_dot); sums and scalings by a constant go coefficient by
coefficient. A product with a one-coefficient operand is one kernel product.
An exact value has no rounding, so the order of its operations cannot change
its bits: a product of two exact jets in one field (Q or one Q(theta)) with at
least _CONVOLVE_FROM coefficients is an integer convolution over each jet's
lcm denominator instead. Results are bit for bit those of the same steps
taken one Scalar operation at a time, but only value(), derivative(k),
coeff(i, j) and the read-only `coeffs` views build Scalars. The kernel skips
a term with an exact-zero factor where the fold would leave the sum as it is
(most terms of a product with a bivariate power N**k, whose low-order
coefficients are exact zeros). pow forms its weights (r+1)j - k as integer
raws and, on a jet of balls at one precision, promotes each distinct weight
once per call rather than once per term.

HermitianBiJet is the bivariate counterpart in offsets (u, v) of (z1, z̄1)
around a radial axis point, with real coefficients and the Hermitian symmetry
c_ij = c_ji; mixed partials at the base point are i! j! c_ij. Its one
operation is the product. bijet_exp sums the powers N, N**2, ... of its
nilpotent part N with the weights 1/k!. bijet_compose_univariate reads g in
the relative offset t = x/x0 - 1, where x = x0 (1 + u)(1 + v) makes t**k the
power (u + v + uv)**k, whose coefficients are integers: each c_ij is one dot
of g's coefficients with those integers, and x0 enters only through
g.scale_var(x0). The product, exp and composition form each c_ij with i <= j
once, as one kernel dot, and store it at (i, j) and (j, i) (_hermitian).
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .records import Record
from .scalars import (
    ONE,
    Scalar,
    ScalarLike,
    Sign,
    SignUndeterminedError,
    _Q,
    _ball_of,
    _cook,
    _exact,
    _norm,
    _raw,
    _raw_add,
    _raw_dot,
    _raw_mul,
    _raw_neg,
    as_scalar,
    scalar_exp,
    scalar_log,
    scalar_pow,
)

_ZERO, _ONE = _raw(0), _raw(1)


def _mul(a: tuple, b: tuple) -> tuple:
    return _norm(_raw_mul(a, b))


_CONVOLVE_FROM = 6  # measured: on shorter jets the convolution's set-up costs more than the fold


def _field(raws: Sequence[tuple]) -> tuple | None:
    """_Q or the one root extension holding every raw; None for a ball or two roots."""
    exts = {e for e, _, _ in raws} - {_Q}
    if len(exts) > 1 or None in exts:
        return None
    return exts.pop() if exts else _Q


def _numerators(raws: Sequence[tuple], d: int) -> tuple[list[list[int]], int]:
    """Exact raws as numerators over their lcm denominator, a list per theta power."""
    den = math.lcm(*(q for _, _, q in raws))
    return [[nums[i] * (den // q) if i < len(nums) else 0 for _, nums, q in raws]
            for i in range(d)], den


def _convolve(a: Sequence[tuple], b: Sequence[tuple], ext: tuple) -> tuple:
    """The Cauchy product of exact raws a and b of one length in ext: one
    integer convolution per pair of theta powers, theta**d folded to r, each
    coefficient reduced once into RootScalar.make's normal form."""
    (d, r), n = ext, len(a)
    (xa, da), (xb, db) = _numerators(a, d), _numerators(b, d)
    out = [[0] * n for _ in range(d)]
    for i, u in enumerate(xa):
        for j, v in enumerate(xb):
            if any(u) and any(v):
                o, w = (out[i + j], 1) if i + j < d else (out[i + j - d], r)
                for k in range(n):
                    o[k] += w * sum(map(operator.mul, u[: k + 1], v[k::-1]))
    return tuple(_norm(_exact(ext, tuple(c[k] for c in out), da * db)) for k in range(n))


def _jet_neg(a: tuple) -> tuple:
    return tuple(_raw_neg(c) for c in a)


def _jet_add(a: tuple, b: tuple) -> tuple:
    return tuple(_norm(_raw_add(u, v)) for u, v in zip(a, b))


def _jet_sub(a: tuple, b: tuple) -> tuple:
    return tuple(_norm(_raw_add(u, _raw_neg(v))) for u, v in zip(a, b))


def _jet_scale(a: tuple, c: tuple) -> tuple:  # c a raw constant
    return tuple(_mul(u, c) for u in a)


def _jet_mul(a: tuple, b: tuple) -> tuple:  # to the shorter one's order
    n = min(len(a), len(b))
    if n == 1:
        return (_mul(a[0], b[0]),)
    a, b = a[:n], b[:n]
    if n >= _CONVOLVE_FROM and (ext := _field(a + b)) is not None:
        return _convolve(a, b, ext)
    return tuple(_raw_dot(_ZERO, a[: k + 1], b[k::-1]) for k in range(n))


class Jet(Record):
    # slots and a plain __init__: jets are built in the recurrences' inner loops
    __slots__ = ("x0", "raws")
    x0: Scalar
    raws: tuple  # c_0..c_H as kernel raws

    def __init__(self, x0: Scalar, raws: tuple):
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "raws", raws)

    @staticmethod
    def make(x0: ScalarLike, coeffs: Sequence[ScalarLike]) -> "Jet":
        if len(coeffs) == 0:
            raise ValueError("a jet needs at least the constant coefficient")
        return Jet(as_scalar(x0), tuple(_raw(c) for c in coeffs))

    @staticmethod
    def constant(x0: ScalarLike, value: ScalarLike, order: int) -> "Jet":
        return Jet(as_scalar(x0), (_raw(value),) + (_ZERO,) * order)

    @staticmethod
    def variable(x0: ScalarLike, order: int) -> "Jet":
        """The jet of x itself: x0 + t."""
        x0 = as_scalar(x0)
        return Jet(x0, ((_raw(x0), _ONE) + (_ZERO,) * order)[: order + 1])

    @property
    def order(self) -> int:
        return len(self.raws) - 1

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients as Scalars, built on each read."""
        return tuple(_cook(r) for r in self.raws)

    def value(self) -> Scalar:
        return _cook(self.raws[0])

    def derivative(self, k: int) -> Scalar:
        """k-th derivative at the base point: k! * c_k."""
        if k > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {k}")
        return _cook(self.raws[k]) * math.factorial(k)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend jet of order {self.order} to {order}")
        return Jet(self.x0, self.raws[: order + 1])

    # -- ring operations ----------------------------------------------------

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.x0 is not self.x0 and other.x0 != self.x0:
                raise ValueError("jet base points differ")
            return other
        return Jet.constant(self.x0, other, self.order)

    def __neg__(self) -> "Jet":
        return Jet(self.x0, _jet_neg(self.raws))

    def __add__(self, other) -> "Jet":
        return Jet(self.x0, _jet_add(self.raws, self._lift(other).raws))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return Jet(self.x0, _jet_sub(self.raws, self._lift(other).raws))

    def __rsub__(self, other) -> "Jet":
        return self._lift(other) - self

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.x0, _jet_scale(self.raws, _raw(other)))
        return Jet(self.x0, _jet_mul(self.raws, self._lift(other).raws))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self * (ONE / as_scalar(other))
        other = self._lift(other)
        b0 = other.value()
        s = b0.sign()
        if s == Sign.ZERO:
            raise ZeroDivisionError("division by a jet with zero constant term")
        if s == Sign.UNDETERMINED:
            raise SignUndeterminedError(
                "division by a jet whose constant term has undetermined sign"
            )
        n = min(self.order, other.order) + 1
        inv0 = _raw(ONE / b0)
        a, b = self.raws, other.raws
        out: list[tuple] = []
        for k in range(n):
            # out[k] = (a_k - sum_{j=1..k} b_j out[k-j]) / b_0
            acc = _raw_dot(a[k], b[1 : k + 1], out[::-1], neg=True)
            out.append(_mul(acc, inv0))
        return Jet(self.x0, tuple(out))

    def __rtruediv__(self, other) -> "Jet":
        return self._lift(other) / self

    def __pow__(self, exponent: int) -> "Jet":
        if not isinstance(exponent, int):
            raise TypeError("use Jet.pow for fractional exponents")
        if exponent < 0:
            return Jet.constant(self.x0, 1, self.order) / self.__pow__(-exponent)
        result = Jet.constant(self.x0, 1, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no square after the base's last bit is used
                base = base * base
        return result

    # -- calculus -----------------------------------------------------------

    def derive(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        c = self.raws
        return Jet(self.x0, tuple(_mul(c[k], _raw(k)) for k in range(1, len(c))))

    def antiderive(self, c0: ScalarLike) -> "Jet":
        out = [_raw(c0)]
        for k, c in enumerate(self.raws, 1):
            out.append(_mul(c, (_Q, (1,), k)))
        return Jet(self.x0, tuple(out))

    # -- elementary functions -------------------------------------------------

    def exp(self) -> "Jet":
        c = self.raws
        out = [_raw(scalar_exp(self.value()))]
        ws = [_raw(j) for j in range(1, len(c))]
        for k in range(1, len(c)):
            # k p_k = sum_{j=1..k} j a_j p_{k-j}
            acc = _raw_dot(_ZERO, c[1 : k + 1], out[::-1], ws[:k])
            out.append(_mul(acc, (_Q, (1,), k)))
        return Jet(self.x0, tuple(out))

    def log(self) -> "Jet":
        l0 = scalar_log(self.value())
        if self.order == 0:
            return Jet(self.x0, (_raw(l0),))
        d = self.derive() / self.truncate(self.order - 1)
        return d.antiderive(l0)

    def pow(self, exponent: Fraction | int) -> "Jet":
        exponent = Fraction(exponent)
        if exponent.denominator == 1:
            return self.__pow__(exponent.numerator)
        a0 = self.value()
        if a0.require_sign("pow base constant term") != Sign.POSITIVE:
            raise ValueError("fractional jet power needs a certified-positive constant term")
        inv0 = _raw(ONE / a0)
        c = self.raws
        out = [_raw(scalar_pow(a0, exponent))]
        # the weight (r+1)j - k is (u j - k v)/v for r + 1 = u/v; where every
        # coefficient, a0**r and 1/a0 are balls at one precision p, each term
        # is a ball at p too, so a weight promoted once at p multiplies it as
        # the exact weight would (see _raw_mul)
        u, v = exponent.numerator + exponent.denominator, exponent.denominator
        p = inv0[2]
        if not all(r[0] is None and r[2] == p for r in (*c, out[0], inv0)):
            p = None
        weights: dict[int, tuple] = {}  # by numerator u j - k v
        for k in range(1, len(c)):
            ws = []
            for j in range(1, k + 1):
                m = u * j - k * v
                if m not in weights:
                    g = math.gcd(m, v)
                    w = _Q, (m // g,), v // g
                    weights[m] = w if p is None else (None, _ball_of(w, p), p)
                ws.append(weights[m])
            acc = _raw_dot(_ZERO, c[1 : k + 1], out[::-1], ws)
            out.append(_mul(_mul(acc, inv0), (_Q, (1,), k)))
        return Jet(self.x0, tuple(out))

    def pow_via_exp_log(self, exponent: Fraction | int) -> "Jet":
        """Alternative pow route: a0**r * exp(r * log(a/a0)); must agree with pow."""
        exponent = Fraction(exponent)
        a0 = self.value()
        if a0.require_sign("pow base constant term") != Sign.POSITIVE:
            raise ValueError("fractional jet power needs a certified-positive constant term")
        unit = self / a0
        scaled = unit.log() * exponent
        return scaled.exp() * scalar_pow(a0, exponent)

    def scale_var(self, factor: ScalarLike) -> "Jet":
        """Substitute t -> factor * t (coefficients pick up factor**k)."""
        f = _raw(factor)
        out = []
        acc = _ONE
        for c in self.raws:
            out.append(_mul(c, acc))
            acc = _mul(acc, f)
        return Jet(self.x0, tuple(out))


class HermitianBiJet(Record):
    """Bivariate truncated series sum c_ij u**i v**j around a radial point.

    u, v are the offsets of (z1, z̄1) from the base point; for the germs in
    scope all coefficients are real and c_ij == c_ji, which make checks. Every
    operation forms c_ij with i <= j once and stores it at (i, j) and (j, i),
    so the symmetry stays exact even for balls.
    """

    __slots__ = ("base", "raws")
    base: Scalar
    raws: tuple[tuple, ...]  # rows of c_ij as kernel raws

    def __init__(self, base: Scalar, raws: tuple[tuple, ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "raws", raws)

    @staticmethod
    def make(base: ScalarLike, rows: Sequence[Sequence[ScalarLike]]) -> "HermitianBiJet":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("coefficient matrix must be square")
        rows = [[as_scalar(c) for c in r] for r in rows]
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("coefficient matrix must be Hermitian: c_ij == c_ji")
        return HermitianBiJet(as_scalar(base), tuple(tuple(_raw(c) for c in r) for r in rows))

    @property
    def order(self) -> int:
        return len(self.raws) - 1

    def coeff(self, i: int, j: int) -> Scalar:
        return _cook(self.raws[i][j])

    def __mul__(self, other: "HermitianBiJet") -> "HermitianBiJet":
        if other.base is not self.base and other.base != self.base:
            raise ValueError("bivariate jet base points differ")
        a, b = self.raws, other.raws

        def entry(i: int, j: int) -> tuple:
            pairs = [(p, q) for p in range(i + 1) for q in range(j + 1)]
            return _raw_dot(_ZERO, [a[p][q] for p, q in pairs], [b[i - p][j - q] for p, q in pairs])

        return _hermitian(self.base, min(self.order, other.order) + 1, entry)


def _hermitian(base: Scalar, n: int, entry) -> HermitianBiJet:
    """The n x n HermitianBiJet whose c_ij with i <= j is entry(i, j), formed
    once and stored at (i, j) and (j, i)."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return HermitianBiJet(base, tuple(tuple(r) for r in rows))


def bijet_exp(a: HermitianBiJet) -> HermitianBiJet:
    """exp of a bivariate jet: scalar_exp(c00) * sum N**k / k!, N the nilpotent part."""
    scale = _raw(scalar_exp(a.coeff(0, 0)))
    n = HermitianBiJet(a.base, ((_ZERO,) + a.raws[0][1:],) + a.raws[1:])
    powers = [n]  # N, N**2, ..., N**(2L); N**(2L+1) has no term of order <= L in u and v
    while len(powers) < 2 * a.order:
        powers.append(powers[-1] * n)
    facts = [(_Q, (1,), math.factorial(k)) for k in range(1, 2 * a.order + 1)]
    return _hermitian(a.base, a.order + 1, lambda i, j: _mul(_raw_dot(
        _ONE if i == j == 0 else _ZERO, [p.raws[i][j] for p in powers], facts), scale))


def _trinomial(k: int, i: int, j: int) -> int:
    """T(k, i, j), the coefficient of u**i v**j in (u + v + uv)**k: choose the i
    factors that hold u, then the k - j of them that hold no v (the k - i
    others are v)."""
    return math.comb(k, i) * math.comb(i, k - j) if k >= j else 0


def _compose_entry(g: Jet, order: int):
    """entry(i, j), the c_ij of bijet_compose_univariate(g, order), formed alone."""
    if g.order < 2 * order:
        raise ValueError(f"outer jet order {g.order} is short of 2*L = {2 * order}")
    ks = range(1, 2 * order + 1)
    return lambda i, j: _raw_dot(g.raws[0] if i == j == 0 else _ZERO, g.raws[1:],
                                 [(_Q, (_trinomial(k, i, j),), 1) for k in ks])


def bijet_compose_univariate(g: Jet, order: int) -> HermitianBiJet:
    """g(x) at x = x0 (1 + u)(1 + v), to order L = order in u and v, for g the
    jet of t -> g(x0 (1 + t)) (g.scale_var(x0) of the jet at x0) of order
    >= 2L: with 1 + t = (1 + u)(1 + v), t**k = (u + v + uv)**k, so c_ij is
    sum_k g_k T(k, i, j) with integer weights. The zero weights stay in each
    dot, so a ball g_k makes every c_ij a ball as the powers of t would."""
    return _hermitian(g.x0, order + 1, _compose_entry(g, order))
