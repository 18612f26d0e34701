"""Scalar arithmetic with certified sign queries.

Three interchangeable backends share one operator protocol:

* RationalScalar -- exact rationals (fractions.Fraction).
* RootScalar     -- exact elements of Q(theta), theta = r**(1/d) the real
                    positive root of a d-power-free integer radicand r >= 2.
                    Sign queries are decided by interval refinement, which
                    terminates because {1, theta, ..., theta**(d-1)} is a
                    Q-basis (x**d - r is irreducible for canonical r).
* BallScalar     -- interval ("ball") arithmetic: mpmath.libmp.libmpi on the
                    stored endpoints at the ball's precision, with no context
                    objects; a sign query answers `undetermined` whenever the
                    enclosure straddles zero.

All values are immutable; mixed-backend operations coerce upward
(rational -> root -> ball). Two distinct root extensions never mix: that
raises ExactnessError and callers are expected to fall back to balls.

scalar_dot(acc, xs, ys, ws, neg) is the one arithmetic: it returns
acc ± x0*y0*w0 ± x1*y1*w1 ... on raw numerators and interval endpoints,
without a Scalar or a promotion per step, and every binary operator of the
backends is its one-term case, so a left fold of operators gives the same
result bit for bit.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from mpmath.libmp import (
    fhalf, finf, fnan, fninf, fone, from_int, fzero, mpf_add, mpf_cmp, mpf_mul, mpf_sub,
    round_ceiling, round_floor, to_str,
)
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg

DEFAULT_PRECISION_BITS = 256
PRECISION_CAP_BITS = 4096

ScalarLike = Union["Scalar", int, Fraction, str]


class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    UNDETERMINED = "undetermined"


class ExactnessError(ArithmeticError):
    """An operation has no exact result in the available exact backends."""


class SignUndeterminedError(ArithmeticError):
    """A sign was required but the enclosure straddles zero at this precision."""


class DomainError(ValueError):
    """An evaluation point violates a family's admissible domain."""


def _rat_iv(p: int, q: int, precision_bits: int):
    """The endpoints of p/q at precision_bits: p rounded down and up, then
    divided by q (also rounded outward) unless q is 1."""
    iv = (from_int(p, precision_bits, round_floor), from_int(p, precision_bits, round_ceiling))
    if q != 1:
        iv = mpi_div(iv, _rat_iv(q, 1, precision_bits), precision_bits)
    return iv


def as_scalar(value: ScalarLike) -> "Scalar":
    """A Scalar as it is; an int, Fraction or "p/q" text as a RationalScalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalScalar(Fraction(value))
    if isinstance(value, str):
        return RationalScalar(Fraction(value.strip()))
    raise TypeError(f"cannot convert {type(value).__name__} to Scalar")


ZERO: "RationalScalar"
ONE: "RationalScalar"


class Scalar:
    """Common operator protocol: + and * are the dot kernel's one-term case
    (see scalar_dot); backends implement _inverse, sign, to_ball, ..."""

    backend = "abstract"

    # -- operators --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        # an exact zero leaves the other operand as it is, with no promotion
        other = as_scalar(other)
        if isinstance(other, RationalScalar) and not other.value:
            return self
        if isinstance(self, RationalScalar) and not self.value:
            return other
        return _lane(self, other)._add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-as_scalar(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return as_scalar(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        return _lane(self, other)._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        if isinstance(self, BallScalar):
            # invert at the wider precision, as the product's promotion would
            other = other.to_ball(self.precision_bits)
        return self * other._inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return as_scalar(other) / self

    def __pow__(self, exponent: int) -> "Scalar":
        return int_pow(self, exponent)

    # -- queries ----------------------------------------------------------

    def sign(self) -> Sign:
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def require_sign(self, what: str = "value") -> Sign:
        s = self.sign()
        if s == Sign.UNDETERMINED:
            raise SignUndeterminedError(
                f"sign of {what} undetermined at current precision; "
                "raise the precision or use an exact backend"
            )
        return s

    @property
    def exact(self) -> bool:
        return not isinstance(self, BallScalar)

    def to_ball(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BallScalar":
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError


class RationalScalar(Scalar):
    backend = "rational"
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RationalScalar is immutable")

    def __neg__(self) -> "RationalScalar":
        return RationalScalar(-self.value)

    def _inverse(self) -> "RationalScalar":
        if self.value == 0:
            raise ZeroDivisionError("division by exact zero")
        return RationalScalar(1 / self.value)

    def sign(self) -> Sign:
        if self.value > 0:
            return Sign.POSITIVE
        if self.value < 0:
            return Sign.NEGATIVE
        return Sign.ZERO

    def is_zero(self) -> bool:
        return not self.value

    def to_ball(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BallScalar":
        v = self.value
        return BallScalar(_rat_iv(v.numerator, v.denominator, precision_bits), precision_bits)

    def text(self) -> str:
        return str(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalScalar) and self.value == other.value

    def __hash__(self):
        return hash(("rat", self.value))

    def __repr__(self):
        return f"RationalScalar({self.value})"


ZERO = RationalScalar(Fraction(0))
ONE = RationalScalar(Fraction(1))


_TRIAL_BOUND = 1 << 16


def _factor(m: int) -> dict[int, int]:
    """Prime factorisation {p: e} of an integer m >= 1.

    Trial division by 2 and the odd numbers below 2**16 factors m completely
    unless a cofactor >= 2**32 with no prime factor below 2**16 is left; only
    that cofactor goes to sympy, imported here so that importing the package
    does not load it (sympy's import costs more than a typical CLI call).
    """
    factors: dict[int, int] = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1 and p * p > m:
        factors[m] = 1
    elif m > 1:
        from sympy import factorint

        factors.update((int(q), int(e)) for q, e in factorint(m).items())
    return factors


def _canonical_root(fr: Fraction, n: int) -> tuple[Fraction, int, int]:
    """Write fr**(1/n), fr > 0, as scale * radicand**(1/degree).

    The returned radicand is a degree-power-free integer (>= 2) whose prime
    exponents have gcd 1 with degree, so x**degree - radicand is irreducible
    over Q; degree == 1 means the root is rational and equals scale.
    """
    if fr <= 0:
        raise ExactnessError("canonical root requires a positive radicand")
    exps = _factor(fr.numerator)
    for p, e in _factor(fr.denominator).items():
        exps[p] = exps.get(p, 0) - e
    g = n
    for e in exps.values():
        g = math.gcd(g, e)
    degree = n // g
    scale = Fraction(1)
    radicand = 1
    for p, e in exps.items():
        e //= g
        scale *= Fraction(p) ** (e // degree)
        radicand *= p ** (e % degree)
    if radicand == 1:
        degree = 1
    return scale, degree, radicand


class RootScalar(Scalar):
    """Element sum(coeffs[j] * theta**j) of Q(theta), theta = radicand**(1/degree)."""

    backend = "root"
    __slots__ = ("degree", "radicand", "coeffs")

    def __init__(self, degree: int, radicand: int, coeffs: tuple[Fraction, ...]):
        assert degree >= 2 and len(coeffs) == degree
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "radicand", radicand)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("RootScalar is immutable")

    @staticmethod
    def make(degree: int, radicand: int, coeffs: tuple[Fraction, ...]) -> Scalar:
        if all(c == 0 for c in coeffs[1:]):
            return RationalScalar(coeffs[0])
        return RootScalar(degree, radicand, coeffs)

    def __neg__(self) -> "RootScalar":
        return RootScalar(self.degree, self.radicand, tuple(-c for c in self.coeffs))

    def _inverse(self) -> Scalar:
        # Solve (self * x) == 1 as a linear system over Q in the theta basis.
        d, r = self.degree, self.radicand
        cols = []
        for j in range(d):
            col = [Fraction(0)] * d
            for i, a in enumerate(self.coeffs):
                k = i + j
                if k < d:
                    col[k] += a
                else:
                    col[k - d] += a * r
            cols.append(col)
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        rhs = [Fraction(1)] + [Fraction(0)] * (d - 1)
        for p in range(d):
            piv = next((i for i in range(p, d) if mat[i][p] != 0), None)
            if piv is None:
                raise ZeroDivisionError("non-invertible root element")
            mat[p], mat[piv] = mat[piv], mat[p]
            rhs[p], rhs[piv] = rhs[piv], rhs[p]
            inv = 1 / mat[p][p]
            mat[p] = [v * inv for v in mat[p]]
            rhs[p] *= inv
            for i in range(d):
                if i != p and mat[i][p] != 0:
                    f = mat[i][p]
                    mat[i] = [v - f * w for v, w in zip(mat[i], mat[p])]
                    rhs[i] -= f * rhs[p]
        return RootScalar.make(d, r, tuple(rhs))

    def sign(self) -> Sign:
        if all(c == 0 for c in self.coeffs):
            return Sign.ZERO  # only a directly built zero; make() never returns one
        if all(c >= 0 for c in self.coeffs):
            return Sign.POSITIVE  # theta > 0
        if all(c <= 0 for c in self.coeffs):
            return Sign.NEGATIVE
        bits = max(c.numerator.bit_length() + c.denominator.bit_length() for c in self.coeffs)
        prec = max(64, bits + 32)
        while prec <= (1 << 22):
            iv = self._interval(prec)
            lo, hi = iv
            if mpf_cmp(lo, fzero) > 0:
                return Sign.POSITIVE
            if mpf_cmp(hi, fzero) < 0:
                return Sign.NEGATIVE
            prec *= 2
        raise SignUndeterminedError("root element sign refinement exhausted")

    def is_zero(self) -> bool:
        return not any(self.coeffs)  # see sign()

    def _interval(self, prec: int):
        # theta = exp(log(r) / d), then Horner in theta
        log_r = mpi_log(_rat_iv(self.radicand, 1, prec), prec)
        theta = mpi_exp(mpi_div(log_r, _rat_iv(self.degree, 1, prec), prec), prec)
        acc = (fzero, fzero)
        for c in reversed(self.coeffs):
            acc = mpi_add(mpi_mul(acc, theta, prec), _rat_iv(c.numerator, c.denominator, prec), prec)
        return acc

    def to_ball(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BallScalar":
        return BallScalar(self._interval(precision_bits), precision_bits)

    def text(self) -> str:
        parts = [f"{c}*r^{j}" if j else str(c) for j, c in enumerate(self.coeffs) if c != 0]
        return f"({' + '.join(parts)} with r={self.radicand}^(1/{self.degree}))"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootScalar)
            and (self.degree, self.radicand) == (other.degree, other.radicand)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("root", self.degree, self.radicand, self.coeffs))

    def __repr__(self):
        return f"RootScalar{self.text()}"


class BallScalar(Scalar):
    backend = "ball"
    __slots__ = ("mpi", "precision_bits")

    def __init__(self, mpi, precision_bits: int):
        object.__setattr__(self, "mpi", mpi)
        object.__setattr__(self, "precision_bits", max(precision_bits, 4))

    def __setattr__(self, *a):
        raise AttributeError("BallScalar is immutable")

    def __neg__(self) -> "BallScalar":
        return BallScalar(mpi_neg(self.mpi, self.precision_bits), self.precision_bits)

    def _inverse(self) -> "BallScalar":
        s = self.sign()
        if s == Sign.ZERO:
            raise ZeroDivisionError("division by exact zero ball")
        if s == Sign.UNDETERMINED:
            raise SignUndeterminedError("division by a ball whose enclosure straddles zero")
        return BallScalar(mpi_div((fone, fone), self.mpi, self.precision_bits), self.precision_bits)

    def sign(self) -> Sign:
        lo, hi = self.mpi
        if mpf_cmp(lo, fzero) > 0:
            return Sign.POSITIVE
        if mpf_cmp(hi, fzero) < 0:
            return Sign.NEGATIVE
        if lo == fzero and hi == fzero:
            return Sign.ZERO
        return Sign.UNDETERMINED

    def is_zero(self) -> bool:
        return self.mpi[0] == fzero and self.mpi[1] == fzero

    def to_ball(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BallScalar":
        if precision_bits == self.precision_bits:
            return self
        return BallScalar(self.mpi, max(precision_bits, self.precision_bits))

    def midpoint_str(self, dps: int | None = None) -> str:
        lo, hi = self.mpi
        mid = mpf_mul(mpf_add(lo, hi, self.precision_bits + 8), fhalf)
        if dps is None:
            dps = max(5, int(self.precision_bits * 0.30103) - 2)
        return to_str(mid, dps)

    def radius_str(self) -> str:
        lo, hi = self.mpi
        rad = mpf_mul(mpf_sub(hi, lo, 32), fhalf)
        return to_str(rad, 3)

    def text(self) -> str:
        return self.midpoint_str()

    def __eq__(self, other) -> bool:
        return isinstance(other, BallScalar) and self.mpi == other.mpi

    def __hash__(self):
        return hash(("ball", self.mpi))

    def __repr__(self):
        return f"BallScalar({self.midpoint_str()} ± {self.radius_str()}, bits={self.precision_bits})"


# -- the dot kernel under every jet recurrence -------------------------------
#
# scalar_dot keeps each term and the running sum raw and builds no Scalar
# between steps: a ball is (None, mpi, precision_bits), an exact value is
# (ext, nums, den), which stands for sum(nums[j] * theta**j) / den in Q(theta)
# for ext = (degree, radicand), or for the rational nums[0] / den when ext is
# _Q. Exact raws stay in RootScalar.make's normal form (ext is _Q once every
# irrational part is zero), so an exact zero is a rational with numerator 0,
# and a root element whose irrational part cancels is a rational, which mixes
# with any root extension.

_Q = (1, 1)


def _mixed_roots(ea: tuple[int, int], eb: tuple[int, int]) -> ExactnessError:
    return ExactnessError(
        f"cannot mix root extensions {ea[1]}^(1/{ea[0]}) and {eb[1]}^(1/{eb[0]}); "
        "use a ball backend"
    )


def _finite(iv) -> bool:
    return not any(e in (finf, fninf, fnan) for e in iv)


def _raw(v) -> tuple:
    t = type(v)
    if t is BallScalar:
        return None, v.mpi, v.precision_bits
    if t is RationalScalar:
        v = v.value
        return _Q, (v.numerator,), v.denominator
    if t is int:
        return _Q, (v,), 1
    if t is Fraction:
        return _Q, (v.numerator,), v.denominator
    if t is RootScalar:
        den = math.lcm(*(c.denominator for c in v.coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in v.coeffs)
        return (v.degree, v.radicand), nums, den
    return _raw(as_scalar(v))


def _cook(r: tuple) -> Scalar:
    ext, nums, den = r
    if ext is None:
        return BallScalar(nums, den)
    if ext is _Q:
        return RationalScalar(Fraction(nums[0], den))
    return RootScalar.make(ext[0], ext[1], tuple(Fraction(c, den) for c in nums))


def _exact(ext: tuple[int, int], nums: tuple[int, ...], den: int) -> tuple:
    if ext is not _Q and not any(nums[1:]):
        return _Q, nums[:1], den
    return ext, nums, den


def _ball_of(r: tuple, prec: int):
    """The endpoints of the exact raw r promoted to a ball at prec."""
    return _cook(r).to_ball(prec).mpi


def _raw_mul(a: tuple, b: tuple) -> tuple:
    """a * b (on balls, nums is the interval and den the precision)."""
    ea, na, da = a
    eb, nb, db = b
    if ea is None:
        if eb is None:
            p = max(da, db)
            return None, mpi_mul(na, nb, p), p
        if not any(nb) and _finite(na):
            return None, (fzero, fzero), da
        return None, mpi_mul(na, _ball_of(b, da), da), da
    if eb is None:
        if not any(na) and _finite(nb):
            return None, (fzero, fzero), db
        return None, mpi_mul(_ball_of(a, db), nb, db), db
    if ea is _Q:
        if eb is _Q:
            return _Q, (na[0] * nb[0],), da * db
        c = na[0]
        return _exact(eb, tuple(c * v for v in nb), da * db)
    if eb is _Q:
        c = nb[0]
        return _exact(ea, tuple(v * c for v in na), da * db)
    if ea != eb:
        raise _mixed_roots(ea, eb)
    d, r = ea
    acc = [0] * d
    for i, u in enumerate(na):
        if u:
            for j, v in enumerate(nb):
                if v:
                    if i + j < d:
                        acc[i + j] += u * v
                    else:
                        acc[i + j - d] += u * v * r
    return _exact(ea, tuple(acc), da * db)


def _raw_add(a: tuple, b: tuple) -> tuple:
    """a + b: an exact zero returns the other operand as it is."""
    ea, na, da = a
    eb, nb, db = b
    if eb is None:
        if ea is None:
            p = max(da, db)
            return None, mpi_add(na, nb, p), p
        if not any(na):
            return b
        return None, mpi_add(_ball_of(a, db), nb, db), db
    if not any(nb):
        return a
    if ea is None:
        return None, mpi_add(na, _ball_of(b, da), da), da
    if not any(na):
        return b
    if ea != eb:
        if ea is _Q:
            ea, na = eb, na + (0,) * (len(nb) - 1)
        elif eb is _Q:
            nb = nb + (0,) * (len(na) - 1)
        else:
            raise _mixed_roots(ea, eb)
    if da == db:
        return _exact(ea, tuple(u + v for u, v in zip(na, nb)), da)
    g = math.gcd(da, db)
    ma, mb = db // g, da // g
    return _exact(ea, tuple(u * ma + v * mb for u, v in zip(na, nb)), da * ma)


def _raw_neg(a: tuple) -> tuple:
    ext, nums, den = a
    if ext is None:
        return None, mpi_neg(nums, den), den
    return ext, tuple(-v for v in nums), den


def _kernel_add(a: Scalar, b: Scalar) -> Scalar:
    return _cook(_raw_add(_raw(a), _raw(b)))


def _kernel_mul(a: Scalar, b: Scalar) -> Scalar:
    return _cook(_raw_mul(_raw(a), _raw(b)))


def _lane(a: Scalar, b: Scalar) -> type:
    """The class a binary result lives in: ball, else root, else rational."""
    if type(a) is BallScalar or type(b) is BallScalar:
        return BallScalar
    if type(a) is RootScalar or type(b) is RootScalar:
        return RootScalar
    return RationalScalar


# Scalar's operators call _lane(a, b)._add / ._mul, one shared kernel routine
# aliased on each class, only so that perfbench/tracing.py can patch them by
# name and count scalars.ball_ops, rational_ops and root_ops per lane; the
# aliases and _lane go once a collector replaces that patching.
for _cls in (RationalScalar, RootScalar, BallScalar):
    _cls._add, _cls._mul = _kernel_add, _kernel_mul
del _cls


def scalar_dot(
    acc: Scalar,
    xs: Sequence[Scalar],
    ys: Sequence[Scalar],
    ws: Sequence[ScalarLike] | None = None,
    neg: bool = False,
) -> Scalar:
    """acc + x0*y0*w0 + x1*y1*w1 + ... (each term negated when neg), the same
    Scalar as that left fold of Scalar operations, bit for bit.

    Exact values are summed as integer numerators over a running denominator
    and normalised once, into the one exact result. Balls go through
    mpi_mul / mpi_add / mpi_neg on their endpoints, at the wider of the two
    operands' precisions: an exact zero term leaves the sum as it is, an
    exact zero times a finite ball is [0, 0] at the ball's precision, and any
    other exact operand meeting a ball goes through to_ball at the ball's
    precision. Two distinct root extensions raise ExactnessError.
    """
    total = _raw(acc)
    if ws is None:
        for x, y in zip(xs, ys):
            t = _raw_mul(_raw(x), _raw(y))
            total = _raw_add(total, _raw_neg(t) if neg else t)
    else:
        for x, y, w in zip(xs, ys, ws):
            t = _raw_mul(_raw_mul(_raw(x), _raw(y)), _raw(w))
            total = _raw_add(total, _raw_neg(t) if neg else t)
    return _cook(total)


# -- generic scalar functions ---------------------------------------------


def int_pow(value: Scalar, exponent: int) -> Scalar:
    if not isinstance(exponent, int):
        raise TypeError("use scalar_pow for fractional exponents")
    if exponent < 0:
        return int_pow(value, -exponent)._inverse()
    result: Scalar = ONE
    base = value
    e = exponent
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def nth_root(value: Scalar, n: int) -> Scalar:
    """Principal n-th root; exact backends stay exact or extend to Q(theta)."""
    if n <= 0:
        raise ValueError("root index must be positive")
    if n == 1:
        return value
    if isinstance(value, RationalScalar):
        fr = value.value
        if fr == 0:
            return ZERO
        if fr < 0:
            if n % 2 == 1:
                return -nth_root(-value, n)
            raise DomainError("even root of a negative rational")
        scale, degree, radicand = _canonical_root(fr, n)
        if degree == 1:
            return RationalScalar(scale)
        coeffs = [Fraction(0)] * degree
        coeffs[1] = scale
        return RootScalar(degree, radicand, tuple(coeffs))
    if isinstance(value, BallScalar):
        if value.require_sign("radicand") != Sign.POSITIVE:
            raise DomainError("root of a non-positive ball")
        p = value.precision_bits
        return BallScalar(mpi_exp(mpi_div(mpi_log(value.mpi, p), _rat_iv(n, 1, p), p), p), p)
    raise ExactnessError(
        "nested radicals are not supported exactly; convert to a ball backend"
    )


def scalar_pow(value: Scalar, exponent: Fraction | int) -> Scalar:
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return int_pow(value, exponent.numerator)
    if isinstance(value, BallScalar):
        if value.require_sign("power base") != Sign.POSITIVE:
            raise DomainError("fractional power of a non-positive ball")
        p = value.precision_bits
        e = _rat_iv(exponent.numerator, exponent.denominator, p)
        return BallScalar(mpi_exp(mpi_mul(e, mpi_log(value.mpi, p), p), p), p)
    return nth_root(int_pow(value, exponent.numerator), exponent.denominator)


def scalar_exp(value: Scalar) -> Scalar:
    if isinstance(value, BallScalar):
        return BallScalar(mpi_exp(value.mpi, value.precision_bits), value.precision_bits)
    if isinstance(value, RationalScalar) and value.value == 0:
        return ONE
    raise ExactnessError("exp of a nonzero exact scalar is transcendental")


def scalar_log(value: Scalar) -> Scalar:
    if isinstance(value, BallScalar):
        if value.require_sign("log argument") != Sign.POSITIVE:
            raise DomainError("log of a non-positive ball")
        return BallScalar(mpi_log(value.mpi, value.precision_bits), value.precision_bits)
    if isinstance(value, RationalScalar) and value.value == 1:
        return ZERO
    if value.require_sign("log argument") != Sign.POSITIVE:
        raise DomainError("log of a non-positive scalar")
    raise ExactnessError("log of an exact scalar other than 1 is transcendental")


def certified_lt(a: Scalar, b: ScalarLike) -> bool:
    return (a - as_scalar(b)).sign() == Sign.NEGATIVE


def certified_gt(a: Scalar, b: ScalarLike) -> bool:
    return (a - as_scalar(b)).sign() == Sign.POSITIVE


def abs_le(a: Scalar, bound: ScalarLike) -> bool:
    """Certified |a| <= bound."""
    bound = as_scalar(bound)
    s = a.sign()
    if s == Sign.ZERO:
        return True
    if s == Sign.UNDETERMINED:
        # fall back to endpoint reasoning for balls
        if isinstance(a, BallScalar):
            return certified_lt(a, bound) and certified_gt(a, -bound)
        return False
    mag = a if s == Sign.POSITIVE else -a
    d = (bound - mag).sign()
    return d in (Sign.POSITIVE, Sign.ZERO)
