"""Truncated Taylor series at a base point (jets), univariate and bivariate.

A Jet holds coefficients c_0..c_H of sum c_k (x - x0)**k; arithmetic never
reads past the common order and results report their valid order (the min of
the operands'). Elementary functions follow the standard coefficient
recurrences: exp via p' = a'p, log via integration of a'/a, and pow(r) via the
binomial recurrence k*a0*p_k = sum_{j=1..k} ((r+1)j - k) a_j p_{k-j}; a second
pow route through exp(r*log(a/a0)) * a0**r is kept for cross-checks.

HermitianBiJet is the bivariate counterpart in offsets (u, v) of (z1, z̄1)
around a radial axis point, with real coefficients and the Hermitian symmetry
c_ij = c_ji; mixed partials at the base point are i! j! c_ij.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import (
    ONE,
    ZERO,
    Scalar,
    ScalarLike,
    Sign,
    SignUndeterminedError,
    as_scalar,
    scalar_exp,
    scalar_log,
    scalar_pow,
)


def _coerce_coeffs(coeffs: Sequence[ScalarLike]) -> tuple[Scalar, ...]:
    return tuple(as_scalar(c) for c in coeffs)


@dataclass(frozen=True)
class Jet:
    x0: Scalar
    coeffs: tuple[Scalar, ...]

    @staticmethod
    def make(x0: ScalarLike, coeffs: Sequence[ScalarLike]) -> "Jet":
        if len(coeffs) == 0:
            raise ValueError("a jet needs at least the constant coefficient")
        return Jet(as_scalar(x0), _coerce_coeffs(coeffs))

    @staticmethod
    def constant(x0: ScalarLike, value: ScalarLike, order: int) -> "Jet":
        return Jet(as_scalar(x0), (as_scalar(value),) + (ZERO,) * order)

    @staticmethod
    def variable(x0: ScalarLike, order: int) -> "Jet":
        """The jet of x itself: x0 + t."""
        x0 = as_scalar(x0)
        if order == 0:
            return Jet(x0, (x0,))
        return Jet(x0, (x0, ONE) + (ZERO,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def value(self) -> Scalar:
        return self.coeffs[0]

    def derivative(self, k: int) -> Scalar:
        """k-th derivative at the base point: k! * c_k."""
        if k > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {k}")
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        return self.coeffs[k] * fact

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend jet of order {self.order} to {order}")
        return Jet(self.x0, self.coeffs[: order + 1])

    # -- ring operations ----------------------------------------------------

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.x0 != self.x0:
                raise ValueError("jet base points differ")
            return other
        return Jet.constant(self.x0, other, self.order)

    def __neg__(self) -> "Jet":
        return Jet(self.x0, tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Jet":
        other = self._lift(other)
        n = min(self.order, other.order) + 1
        return Jet(self.x0, tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Jet":
        return self._lift(other) - self

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            c = as_scalar(other)
            return Jet(self.x0, tuple(a * c for a in self.coeffs))
        other = self._lift(other)
        n = min(self.order, other.order) + 1
        out = []
        for k in range(n):
            acc: Scalar = ZERO
            for j in range(k + 1):
                acc = acc + self.coeffs[j] * other.coeffs[k - j]
            out.append(acc)
        return Jet(self.x0, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            inv = ONE / as_scalar(other)
            return Jet(self.x0, tuple(a * inv for a in self.coeffs))
        other = self._lift(other)
        s = other.coeffs[0].sign()
        if s == Sign.ZERO:
            raise ZeroDivisionError("division by a jet with zero constant term")
        if s == Sign.UNDETERMINED:
            raise SignUndeterminedError(
                "division by a jet whose constant term has undetermined sign"
            )
        n = min(self.order, other.order) + 1
        inv0 = ONE / other.coeffs[0]
        out: list[Scalar] = []
        for k in range(n):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc = acc - other.coeffs[j] * out[k - j]
            out.append(acc * inv0)
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
            base = base * base
            e >>= 1
        return result

    # -- calculus -----------------------------------------------------------

    def derive(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.x0, tuple(self.coeffs[k] * k for k in range(1, self.order + 1)))

    def antiderive(self, c0: ScalarLike) -> "Jet":
        out = [as_scalar(c0)]
        for k, c in enumerate(self.coeffs):
            out.append(c * Fraction(1, k + 1))
        return Jet(self.x0, tuple(out))

    # -- elementary functions -------------------------------------------------

    def exp(self) -> "Jet":
        p0 = scalar_exp(self.coeffs[0])
        out = [p0]
        for k in range(1, self.order + 1):
            acc: Scalar = ZERO
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j] * j
            out.append(acc * Fraction(1, k))
        return Jet(self.x0, tuple(out))

    def log(self) -> "Jet":
        l0 = scalar_log(self.coeffs[0])
        if self.order == 0:
            return Jet(self.x0, (l0,))
        d = self.derive() / self.truncate(self.order - 1)
        return d.antiderive(l0)

    def pow(self, exponent: Fraction | int) -> "Jet":
        exponent = Fraction(exponent)
        if exponent.denominator == 1:
            return self.__pow__(exponent.numerator)
        a0 = self.coeffs[0]
        if a0.require_sign("pow base constant term") != Sign.POSITIVE:
            raise ValueError("fractional jet power needs a certified-positive constant term")
        p0 = scalar_pow(a0, exponent)
        inv0 = ONE / a0
        out = [p0]
        for k in range(1, self.order + 1):
            acc: Scalar = ZERO
            for j in range(1, k + 1):
                w = (exponent + 1) * j - k
                acc = acc + self.coeffs[j] * out[k - j] * w
            out.append(acc * inv0 * Fraction(1, k))
        return Jet(self.x0, tuple(out))

    def pow_via_exp_log(self, exponent: Fraction | int) -> "Jet":
        """Alternative pow route: a0**r * exp(r * log(a/a0)); must agree with pow."""
        exponent = Fraction(exponent)
        a0 = self.coeffs[0]
        if a0.require_sign("pow base constant term") != Sign.POSITIVE:
            raise ValueError("fractional jet power needs a certified-positive constant term")
        unit = self / a0
        scaled = unit.log() * exponent
        return scaled.exp() * scalar_pow(a0, exponent)

    def scale_var(self, factor: ScalarLike) -> "Jet":
        """Substitute t -> factor * t (coefficients pick up factor**k)."""
        factor = as_scalar(factor)
        out = []
        acc: Scalar = ONE
        for c in self.coeffs:
            out.append(c * acc)
            acc = acc * factor
        return Jet(self.x0, tuple(out))


@dataclass(frozen=True)
class HermitianBiJet:
    """Bivariate truncated series sum c_ij u**i v**j around a radial point.

    u, v are the offsets of (z1, z̄1) from the base point; for the germs in
    scope all coefficients are real and c_ij == c_ji.
    """

    base: Scalar
    coeffs: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def make(base: ScalarLike, rows: Sequence[Sequence[ScalarLike]]) -> "HermitianBiJet":
        b = as_scalar(base)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("coefficient matrix must be square")
        return HermitianBiJet(b, tuple(_coerce_coeffs(r) for r in rows))

    @staticmethod
    def constant(base: ScalarLike, value: ScalarLike, order: int) -> "HermitianBiJet":
        rows = [[value if i == j == 0 else ZERO for j in range(order + 1)] for i in range(order + 1)]
        return HermitianBiJet.make(base, rows)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int, j: int) -> Scalar:
        return self.coeffs[i][j]

    def mixed_partial(self, i: int, j: int) -> Scalar:
        fact = 1
        for m in range(2, i + 1):
            fact *= m
        for m in range(2, j + 1):
            fact *= m
        return self.coeffs[i][j] * fact

    def is_symmetric(self) -> bool:
        n = self.order + 1
        return all(
            (self.coeffs[i][j] - self.coeffs[j][i]).sign() == Sign.ZERO
            for i in range(n)
            for j in range(i + 1, n)
        )

    def _check_base(self, other: "HermitianBiJet") -> None:
        if other.base != self.base:
            raise ValueError("bivariate jet base points differ")

    def __neg__(self) -> "HermitianBiJet":
        return HermitianBiJet(self.base, tuple(tuple(-c for c in r) for r in self.coeffs))

    def __add__(self, other: "HermitianBiJet") -> "HermitianBiJet":
        self._check_base(other)
        n = min(self.order, other.order) + 1
        rows = tuple(
            tuple(self.coeffs[i][j] + other.coeffs[i][j] for j in range(n)) for i in range(n)
        )
        return HermitianBiJet(self.base, rows)

    def __sub__(self, other: "HermitianBiJet") -> "HermitianBiJet":
        return self + (-other)

    def __mul__(self, other: "HermitianBiJet") -> "HermitianBiJet":
        self._check_base(other)
        n = min(self.order, other.order) + 1
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                acc: Scalar = ZERO
                for i1 in range(i + 1):
                    for j1 in range(j + 1):
                        acc = acc + self.coeffs[i1][j1] * other.coeffs[i - i1][j - j1]
                rows[i][j] = acc
                if j != i:
                    # mirror keeps the Hermitian symmetry exact even for balls
                    rows[j][i] = acc
        return HermitianBiJet(self.base, tuple(tuple(r) for r in rows))

    def nilpotent_part(self) -> "HermitianBiJet":
        rows = [list(r) for r in self.coeffs]
        rows[0][0] = ZERO
        return HermitianBiJet.make(self.base, rows)


def bijet_exp(a: HermitianBiJet) -> HermitianBiJet:
    """exp of a bivariate jet: scalar_exp(c00) * sum N**k / k!, N the nilpotent part."""
    scale = scalar_exp(a.coeff(0, 0))
    n = a.nilpotent_part()
    acc = HermitianBiJet.constant(a.base, 1, a.order)
    power = HermitianBiJet.constant(a.base, 1, a.order)
    fact = Fraction(1)
    for k in range(1, 2 * a.order + 1):
        power = power * n
        fact /= k
        acc = acc + _bijet_scale(power, fact)
    return _bijet_scale(acc, scale)


def bijet_compose_univariate(g: Jet, inner: HermitianBiJet) -> HermitianBiJet:
    """g composed with a bivariate inner series whose constant term is g.x0."""
    if inner.coeff(0, 0) != g.x0:
        raise ValueError("inner constant coefficient must equal the outer base point")
    if g.order < 2 * inner.order:
        raise ValueError(
            f"outer jet order {g.order} is short of 2*L = {2 * inner.order}"
        )
    n = inner.nilpotent_part()
    acc = HermitianBiJet.constant(inner.base, g.coeffs[0], inner.order)
    power = HermitianBiJet.constant(inner.base, 1, inner.order)
    for k in range(1, 2 * inner.order + 1):
        power = power * n
        acc = acc + _bijet_scale(power, g.coeffs[k])
    return acc


def _bijet_scale(a: HermitianBiJet, c: ScalarLike) -> HermitianBiJet:
    c = as_scalar(c)
    return HermitianBiJet(a.base, tuple(tuple(v * c for v in r) for r in a.coeffs))
