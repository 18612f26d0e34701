"""Scalar arithmetic with certified sign queries.

Three interchangeable backends share one operator protocol:

* RationalScalar -- exact rationals (fractions.Fraction).
* RootScalar     -- exact elements of Q(theta), theta = r**(1/d) the real
                    positive root of a d-power-free integer radicand r >= 2.
                    The sign of a + b*theta (d = 2) compares a**2 with b**2 * r;
                    at d > 2 interval refinement decides it, which terminates
                    because {1, theta, ..., theta**(d-1)} is a Q-basis
                    (x**d - r is irreducible for canonical r; a sign query
                    on any other r raises ValueError).
* BallScalar     -- interval ("ball") arithmetic at the ball's precision,
                    held as finite integer mantissa/exponent endpoints:
                    products, sums, negation, inverses and sign queries work
                    on the integers, rounded outward as libmpi rounds them,
                    while exp, log and decimal printing call mpmath's libmp
                    on the libmpi tuples derived from them (.mpi); a sign
                    query answers `undetermined` whenever the enclosure
                    straddles zero.

libmp is loaded at the first ball exp, log, root ball or decimal printing, and
on its own (see _libmp): an mpmath.libmp import runs the whole mpmath package,
which costs more than a CLI call on exact values does.

All values are immutable; mixed-backend operations coerce upward
(rational -> root -> ball). Two root extensions mix only in one that holds
the other's root (337**(1/2) in Q(337**(1/4)), see _lift); otherwise that
raises ExactnessError and callers are expected to fall back to balls.

There is one arithmetic, on raw values (see _raw): _raw_add, _raw_mul,
_raw_neg and the dot kernel _raw_dot(acc, xs, ys, ws, neg), which returns
acc ± x0*y0*w0 ± x1*y1*w1 ... on integer numerators and integer interval
endpoints, without an object or an mpf tuple per step. Every binary operator
of the backends is its one-term case, so a left fold of operators gives the
same result bit for bit; jets (see jets.py) store their coefficients as raws and
call the kernel directly.
"""
from __future__ import annotations

import math
import os
import sys
from enum import Enum
from fractions import Fraction
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from typing import Sequence, Union

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
    (see _raw_dot); backends implement _inverse, sign, to_ball, ..."""

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
        return _ball(_ball_of(_raw(self), precision_bits), max(precision_bits, 4))

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
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # Miller-Rabin on _MR_BASES is exact below it


def _factor(m: int) -> dict[int, int]:
    """Prime factorisation {p: e} of an integer m >= 1: trial division by 2 and
    the odd numbers below 2**16, then _split on the cofactor left, if any."""
    factors: dict[int, int] = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors.update(_split(m))
    return factors


def _split(m: int) -> dict[int, int]:
    """{p: e} of an m > 1 with no prime factor below 2**16, so prime below 2**32.

    Perfect powers r**k come first (r >= 2**16, so k <= bit_length // 16); below
    _MR_BOUND Miller-Rabin and Pollard's rho finish, above it sympy, imported
    here: its import costs more than a typical CLI call, and it loads mpmath.
    """
    if m < _TRIAL_BOUND**2 or m < _MR_BOUND and _is_prime(m):
        return {m: 1}
    for k in range(m.bit_length() // 16, 1, -1):
        if r := _iroot(m, k):
            return {q: e * k for q, e in _split(r).items()}
    if m >= _MR_BOUND:
        from sympy import factorint

        return {int(q): int(e) for q, e in factorint(m).items()}
    d = _rho(m)
    a, b = _split(d), _split(m // d)
    return {q: a.get(q, 0) + b.get(q, 0) for q in a | b}


def _is_prime(m: int) -> bool:
    """Miller-Rabin for an odd m > 41, m - 1 = d * 2**s with d odd: m passes the
    base a when a**d == 1 or a**(d * 2**i) == -1 (mod m) for an i < s."""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    return all(pow(a, d, m) == 1 or any(pow(a, d << i, m) == m - 1 for i in range(s))
               for a in _MR_BASES)


def _rho(m: int) -> int:
    """A proper factor of an odd composite m that is not a perfect power: Pollard's
    rho with Brent's cycle search and one gcd per 128 steps; a batch whose gcd
    is m is retraced one step at a time."""
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                if (g := math.gcd(q, m)) != 1:
                    break
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g
    raise AssertionError("no factor found")


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
        if self.degree == 2:
            # a + b*theta, a and b of opposite signs: a's sign when a**2 > b**2 * r
            (a, b), r = self.coeffs, self.radicand
            d = (a.numerator * b.denominator) ** 2 - (b.numerator * a.denominator) ** 2 * r
            if not d:
                return Sign.ZERO  # only for a radicand that is not canonical, such as 4
            return Sign.POSITIVE if (a if d > 0 else b) > 0 else Sign.NEGATIVE
        # the refinement ends only where x**d - r is irreducible: a zero never separates
        if _canonical_root(Fraction(self.radicand), self.degree) != (1, self.degree, self.radicand):
            raise ValueError(f"radicand {self.radicand} is not canonical for degree {self.degree}")
        bits = max(c.numerator.bit_length() + c.denominator.bit_length() for c in self.coeffs)
        prec = max(64, bits + 32)
        while prec <= (1 << 22):
            s = self.to_ball(prec).sign()
            if s is Sign.POSITIVE or s is Sign.NEGATIVE:
                return s
            prec *= 2
        raise SignUndeterminedError("root element sign refinement exhausted")

    def is_zero(self) -> bool:
        return not any(self.coeffs)  # see sign()

    def to_ball(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BallScalar":
        # theta = exp(log(r) / d), then Horner in theta
        p = precision_bits
        theta = _root_ball(_ball(_ball_of(_raw(self.radicand), p), p), self.degree).iv
        acc = _ZERO_IV
        for c in reversed(self.coeffs):
            acc = _iv_add(_iv_mul(acc, theta, p), _ball_of(_raw(c), p), p)
        return _ball(acc, max(p, 4))

    def text(self) -> str:
        parts = [f"{c}*r^{j}" if j else str(c) for j, c in enumerate(self.coeffs) if c != 0]
        return f"({' + '.join(parts)} with r={self.radicand}^(1/{self.degree}))"

    def __eq__(self, other) -> bool:
        # by value: arithmetic keeps a subfield's element in the larger field
        return isinstance(other, RootScalar) and _subfield(_raw(self)) == _subfield(_raw(other))

    def __hash__(self):
        return hash(("root", _subfield(_raw(self))))

    def __repr__(self):
        return f"RootScalar{self.text()}"


class BallScalar(Scalar):
    """The ball [lo_m * 2**lo_e, hi_m * 2**hi_e] at precision_bits, held as the
    kernel's integer endpoints iv = (lo_m, lo_e, hi_m, hi_e), both finite.
    BallScalar(mpi, precision_bits) takes libmpi endpoints (mpmath's results)
    and .mpi gives them back; kernel results are built by _ball, unconverted."""

    backend = "ball"
    __slots__ = ("iv", "precision_bits")

    def __init__(self, mpi, precision_bits: int):
        (ls, lm, le, _), (hs, hm, he, _) = mpi
        if (not lm and le) or (not hm and he):  # libmpf's inf, -inf and nan
            raise ValueError("a ball endpoint is infinite or nan")
        object.__setattr__(self, "iv", (-lm if ls else lm, le, -hm if hs else hm, he))
        object.__setattr__(self, "precision_bits", max(precision_bits, 4))

    def __setattr__(self, *a):
        raise AttributeError("BallScalar is immutable")

    @property
    def mpi(self):
        """The endpoints as normalised libmpi tuples."""
        lm, le, hm, he = self.iv
        return _mpf(lm, le), _mpf(hm, he)

    def __neg__(self) -> "BallScalar":
        return _ball(_iv_neg(self.iv, self.precision_bits), self.precision_bits)

    def _inverse(self) -> "BallScalar":
        s = self.sign()
        if s == Sign.ZERO:
            raise ZeroDivisionError("division by exact zero ball")
        if s == Sign.UNDETERMINED:
            raise SignUndeterminedError("division by a ball whose enclosure straddles zero")
        # 1/x falls on a ball of one sign: [1/hi, 1/lo], each the directed
        # rounding of an exact quotient, as mpi_div((fone, fone), mpi) gives
        # it; u moves the sign to the numerator, as _quo divides by m2 > 0
        lm, le, hm, he = self.iv
        p, u = self.precision_bits, 1 if s == Sign.POSITIVE else -1
        return _ball(_quo(u, 0, u * hm, he, p, _down) + _quo(u, 0, u * lm, le, p, _up), p)

    def sign(self) -> Sign:
        lo, _, hi, _ = self.iv
        if lo > 0:
            return Sign.POSITIVE
        if hi < 0:
            return Sign.NEGATIVE
        if not lo and not hi:
            return Sign.ZERO
        return Sign.UNDETERMINED

    def is_zero(self) -> bool:
        return not self.iv[0] and not self.iv[2]

    def to_ball(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BallScalar":
        if precision_bits == self.precision_bits:
            return self
        return _ball(self.iv, max(precision_bits, self.precision_bits))

    def midpoint_str(self, dps: int | None = None) -> str:
        lib = _libmp()
        lo, hi = self.mpi
        mid = lib.mpf_mul(lib.mpf_add(lo, hi, self.precision_bits + 8), lib.fhalf)
        if dps is None:
            dps = max(5, int(self.precision_bits * 0.30103) - 2)
        return lib.to_str(mid, dps)

    def radius_str(self) -> str:
        lib = _libmp()
        lo, hi = self.mpi
        return lib.to_str(lib.mpf_mul(lib.mpf_sub(hi, lo, 32), lib.fhalf), 3)

    def text(self) -> str:
        return self.midpoint_str()

    def __eq__(self, other) -> bool:
        # iv may keep trailing zero bits, so the normalised endpoints compare
        return self is other or (isinstance(other, BallScalar) and self.mpi == other.mpi)

    def __hash__(self):
        return hash(("ball", self.mpi))

    def __repr__(self):
        return f"BallScalar({self.midpoint_str()} ± {self.radius_str()}, bits={self.precision_bits})"


# -- the one arithmetic: raw values and the dot kernel ------------------------
#
# A raw value is what jets store and the kernel computes on, with no object
# per value. A ball is (None, iv, precision_bits) with iv the BallScalar's own
# endpoints (lo_m, lo_e, hi_m, hi_e): each a signed integer mantissa m and an
# exponent e, worth m * 2**e, finite and not normalised (trailing zero bits
# may stay), so _raw and _cook pass them through unconverted. An exact value
# is (ext, nums, den), which stands for sum(nums[j] * theta**j) / den in
# Q(theta) for ext = (degree, radicand), or for the rational nums[0] / den
# when ext is _Q. Exact raws stay in RootScalar.make's normal form (ext is _Q
# once every irrational part is zero), so an exact zero is a rational with
# numerator 0, and a root element whose irrational part cancels is a
# rational, which mixes with any root extension. _raw_add and _raw_mul leave
# exact results unreduced; _norm reduces one to the raw of its Scalar (one
# gcd), as _raw_dot does with its sum.
#
# Ball endpoints are computed as libmpi computes them: each endpoint product
# and sum is formed exactly on the integers and rounded once, outward, to the
# precision (floor for a lower endpoint, ceiling for an upper one). A directed
# rounding of an exact value is unique and libmpf rounds the same exact
# values, so the endpoints are libmpi's bit for bit. mpmath sees them only
# through BallScalar.mpi, for exp, log and decimal printing.

_Q = (1, 1)
_ZERO_IV = (0, 0, 0, 0)


def _iroot(x: int, d: int) -> int | None:
    """The integer y with y**d == x for an integer x >= 1, or None."""
    y = 1 << -(-x.bit_length() // d)  # above the root; Newton steps fall to its floor
    while (z := ((d - 1) * y + x // y ** (d - 1)) // d) < y:
        y = z
    return y if y**d == x else None


def _lift(a: tuple, ext: tuple[int, int]) -> tuple | None:
    """The exact raw a of Q(s**(1/d)) written in Q(theta), ext = (n, r), if d | n
    and s**(1/d) = c * theta**(m*n/d) for a rational c (c**d = s / r**m) and an
    m in [0, d): a_j s**(j/d) is a_j c**j theta**(j*m*n/d), theta**n folded to r."""
    (d, s), nums, den = a
    n, r = ext
    for m in range(0 if n % d else d):
        f = Fraction(s, r**m)
        p, q = _iroot(f.numerator, d), _iroot(f.denominator, d)
        if p and q:
            out = [0] * n
            for j, v in enumerate(nums):
                e, w = divmod(j * m * n // d, n)
                out[w] += v * p**j * q ** (d - 1 - j) * r**e
            return ext, tuple(out), den * q ** (d - 1)
    return None


def _same_field(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Exact raws a and b of two root extensions, both written in the one
    that holds the other's root (see _lift); ExactnessError if neither does."""
    if (la := _lift(a, b[0])) is not None:
        return la, b
    if (lb := _lift(b, a[0])) is not None:
        return a, lb
    (d, s), (n, r) = a[0], b[0]
    raise ExactnessError(f"cannot mix root extensions {s}^(1/{d}) and {r}^(1/{n}); use a ball backend")


def _down(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded down (towards -inf) to prec bits."""
    n = m.bit_length() - prec
    return (m >> n, e + n) if n > 0 else (m, e)


def _up(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded up (towards +inf) to prec bits."""
    n = m.bit_length() - prec
    return (-((-m) >> n), e + n) if n > 0 else (m, e)


def _mpf(m: int, e: int) -> tuple:
    """m * 2**e as libmpf's normalised tuple (sign, odd mantissa, exponent,
    bit count), zero as (0, 0, 0, 0): from_man_exp(m, e), bit for bit."""
    if not m:
        return 0, 0, 0, 0
    sign = 0
    if m < 0:
        sign, m = 1, -m
    t = (m & -m).bit_length() - 1
    m >>= t
    return sign, m, e + t, m.bit_length()


def _lt(m1: int, e1: int, m2: int, e2: int) -> bool:
    """m1 * 2**e1 < m2 * 2**e2, exactly."""
    if e1 >= e2:
        return m1 << (e1 - e2) < m2
    return m1 < m2 << (e2 - e1)


def _end_add(am: int, ae: int, bm: int, be: int, prec: int, up: bool) -> tuple[int, int]:
    """am * 2**ae + bm * 2**be rounded up or down to prec bits, as libmpf's
    mpf_add: exact, except that a term more than prec + 4 bits below the
    other, whose normalised exponent is also more than 100 below, only
    perturbs the larger term by one unit prec + 4 bits below its last bit."""
    if not bm:
        m, e = am, ae
    elif not am:
        m, e = bm, be
    else:
        gap = am.bit_length() + ae - bm.bit_length() - be
        if gap < 0:
            am, ae, bm, be, gap = bm, be, am, ae, -gap
        if gap > prec + 4 and ae + (am & -am).bit_length() - be - (bm & -bm).bit_length() > 100:
            m, e = (am << (prec + 4)) + (1 if bm > 0 else -1), ae - prec - 4
        elif ae >= be:
            m, e = (am << (ae - be)) + bm, be
        else:
            m, e = am + (bm << (be - ae)), ae
    n = m.bit_length() - prec
    if n > 0:
        return (-((-m) >> n) if up else m >> n), e + n
    return m, e


def _iv_add(x: tuple, y: tuple, prec: int) -> tuple:
    """mpi_add of two integer-endpoint intervals."""
    return (_end_add(x[0], x[1], y[0], y[1], prec, False)
            + _end_add(x[2], x[3], y[2], y[3], prec, True))


def _iv_mul(x: tuple, y: tuple, prec: int) -> tuple:
    """mpi_mul of two integer-endpoint intervals [a, b] * [c, d]: its
    case analysis on the endpoint signs picks the two extreme products, and
    where both intervals straddle 0 the exact cross products are compared.
    Each is rounded outward to prec bits."""
    am, ae, bm, be = x
    cm, ce, dm, de = y
    if not (am or bm) or not (cm or dm):
        return _ZERO_IV
    if am >= 0:
        if cm >= 0:
            lm, le, hm, he = am * cm, ae + ce, bm * dm, be + de
        elif dm <= 0:
            lm, le, hm, he = bm * cm, be + ce, am * dm, ae + de
        else:
            lm, le, hm, he = bm * cm, be + ce, bm * dm, be + de
    elif bm <= 0:
        if cm >= 0:
            lm, le, hm, he = am * dm, ae + de, bm * cm, be + ce
        elif dm <= 0:
            lm, le, hm, he = bm * dm, be + de, am * cm, ae + ce
        else:
            lm, le, hm, he = am * dm, ae + de, am * cm, ae + ce
    elif cm >= 0:
        lm, le, hm, he = am * dm, ae + de, bm * dm, be + de
    elif dm <= 0:
        lm, le, hm, he = bm * cm, be + ce, am * cm, ae + ce
    else:
        lm, le, hm, he = am * dm, ae + de, am * cm, ae + ce
        if _lt(bm * cm, be + ce, lm, le):
            lm, le = bm * cm, be + ce
        if _lt(hm, he, bm * dm, be + de):
            hm, he = bm * dm, be + de
    n = lm.bit_length() - prec
    if n > 0:
        lm >>= n
        le += n
    n = hm.bit_length() - prec
    if n > 0:
        hm = -((-hm) >> n)
        he += n
    return lm, le, hm, he


def _iv_neg(x: tuple, prec: int) -> tuple:
    """mpi_neg of an integer-endpoint interval (it rounds to prec too)."""
    return _down(-x[2], x[3], prec) + _up(-x[0], x[1], prec)


def _quo(m1: int, e1: int, m2: int, e2: int, prec: int, rnd) -> tuple[int, int]:
    """(m1 * 2**e1) / (m2 * 2**e2) for m2 > 0, rounded by rnd to prec bits:
    the quotient is first floored (or ceiled) with at least prec + 2 bits,
    which the second rounding in the same direction leaves exact."""
    s = max(0, prec + m2.bit_length() - m1.bit_length() + 2)
    q = (m1 << s) // m2 if rnd is _down else -((-m1 << s) // m2)
    return rnd(q, e1 - e2 - s, prec)


def _ball(iv: tuple, prec: int) -> BallScalar:
    """The ball with the integer endpoints iv at prec, built with no conversion."""
    b = object.__new__(BallScalar)
    object.__setattr__(b, "iv", iv)
    object.__setattr__(b, "precision_bits", prec)
    return b


def _libmp():
    """mpmath's libmp package, loaded at first use as the top-level package
    _radialtyz_libmp without mpmath/__init__, which builds the mp, fp and iv
    contexts: libmp's modules import only each other. A process that has
    imported mpmath gets its mpmath.libmp instead of a second copy."""
    lib = sys.modules.get("mpmath.libmp") or sys.modules.get("_radialtyz_libmp")
    if lib is None:
        path = os.path.join(os.path.dirname(find_spec("mpmath").origin), "libmp")
        spec = spec_from_file_location("_radialtyz_libmp", os.path.join(path, "__init__.py"),
                                       submodule_search_locations=[path])
        lib = sys.modules["_radialtyz_libmp"] = module_from_spec(spec)
        spec.loader.exec_module(lib)
    return lib


def _root_ball(b: BallScalar, n: int) -> BallScalar:
    """exp(log(b) / n) on libmpi for a positive ball b, n promoted at b's precision."""
    lib = _libmp()
    p = b.precision_bits
    n_mpi = _ball(_ball_of(_raw(n), p), p).mpi
    return BallScalar(lib.mpi_exp(lib.mpi_div(lib.mpi_log(b.mpi, p), n_mpi, p), p), p)


def _raw(v) -> tuple:
    t = type(v)
    if t is BallScalar:
        return None, v.iv, v.precision_bits
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
        return _ball(nums, den)
    if ext is _Q:
        return RationalScalar(Fraction(nums[0], den))
    return RootScalar.make(ext[0], ext[1], tuple(Fraction(c, den) for c in nums))


def _norm(r: tuple) -> tuple:
    """The raw of the Scalar r stands for, _raw(_cook(r)) up to the trailing
    zero bits of ball endpoints: an exact value over one gcd of its
    denominator and numerators, a ball as it is."""
    ext, nums, den = r
    if ext is None:
        return r
    g = math.gcd(den, *nums)
    if g == 1:
        return r
    return ext, tuple(v // g for v in nums), den // g


def _raw_is_zero(r: tuple) -> bool:
    ext, nums, _ = r
    if ext is None:
        return not nums[0] and not nums[2]
    return not any(nums)


def _exact(ext: tuple[int, int], nums: tuple[int, ...], den: int) -> tuple:
    if ext is not _Q and not any(nums[1:]):
        return _Q, nums[:1], den
    return ext, nums, den


def _subfield(r: tuple) -> tuple:
    """The exact raw r in lowest terms in the smallest field that holds it: if
    the powers j of theta = t**(1/d) in r share g = gcd(d, j, ...) > 1, in
    Q(theta**g), theta**g = t**(g/d) = c * s**(1/e) by _canonical_root. One
    field has d > 2 canonical generators theta**j, gcd(j, d) = 1 (4**(1/3) and
    2**(1/3)), so r is then written in the one of least radicand."""
    ext, nums, den = r = _norm(_exact(*r))
    if ext is _Q or ext[0] == 2:
        return r
    d, t = ext
    if (g := math.gcd(d, *(j for j, v in enumerate(nums) if v))) == 1:
        s = min(_canonical_root(Fraction(t**j), d)[2] for j in range(1, d) if math.gcd(j, d) == 1)
        return r if s == t else _norm(_lift(r, (d, s)))
    k = d // g
    c, e, s = _canonical_root(Fraction(t), k)
    p, q, out = c.numerator, c.denominator, [0] * e
    for i in range(k):
        out[i % e] += nums[i * g] * p**i * q ** (k - 1 - i) * s ** (i // e)
    return _subfield(((e, s) if e > 1 else _Q, tuple(out), den * q ** (k - 1)))


def _ball_of(r: tuple, prec: int) -> tuple:
    """The integer endpoints of the exact raw r promoted to a ball at prec, as
    its Scalar's to_ball(prec) gives them: an integer rounded outward (exact
    when it has at most prec bits), p/q as libmpi's mpi_div of p and q, each
    first rounded outward."""
    ext, nums, den = r
    if ext is not _Q:
        return _cook(r).to_ball(prec).iv
    if den == 1 and nums[0].bit_length() <= prec:
        return nums[0], 0, nums[0], 0
    g = math.gcd(nums[0], den)
    p, q = nums[0] // g, den // g
    pl, ph = _down(p, 0, prec), _up(p, 0, prec)
    if q == 1:
        return pl + ph
    ql, qh = _down(q, 0, prec), _up(q, 0, prec)
    if p > 0:
        return _quo(*pl, *qh, prec, _down) + _quo(*ph, *ql, prec, _up)
    return _quo(*pl, *ql, prec, _down) + _quo(*ph, *qh, prec, _up)


def _raw_mul(a: tuple, b: tuple) -> tuple:
    """a * b (on balls, nums is the interval and den the precision)."""
    ea, na, da = a
    eb, nb, db = b
    if ea is None:
        if eb is None:
            p = da if da >= db else db
            return None, _iv_mul(na, nb, p), p
        if not any(nb):
            return None, _ZERO_IV, da
        return None, _iv_mul(na, _ball_of(b, da), da), da
    if eb is None:
        if not any(na):
            return None, _ZERO_IV, db
        return None, _iv_mul(_ball_of(a, db), nb, db), db
    if ea is _Q:
        if eb is _Q:
            return _Q, (na[0] * nb[0],), da * db
        c = na[0]
        return _exact(eb, tuple(c * v for v in nb), da * db)
    if eb is _Q:
        c = nb[0]
        return _exact(ea, tuple(v * c for v in na), da * db)
    if ea != eb:
        (ea, na, da), (_, nb, db) = _same_field(a, b)
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
            p = da if da >= db else db
            return None, _iv_add(na, nb, p), p
        if not any(na):
            return b
        return None, _iv_add(_ball_of(a, db), nb, db), db
    if not any(nb):
        return a
    if ea is None:
        return None, _iv_add(na, _ball_of(b, da), da), da
    if not any(na):
        return b
    if ea != eb:
        if ea is _Q:
            ea, na = eb, na + (0,) * (len(nb) - 1)
        elif eb is _Q:
            nb = nb + (0,) * (len(na) - 1)
        else:
            (ea, na, da), (_, nb, db) = _same_field(a, b)
    if da == db:
        return _exact(ea, tuple(u + v for u, v in zip(na, nb)), da)
    g = math.gcd(da, db)
    ma, mb = db // g, da // g
    return _exact(ea, tuple(u * ma + v * mb for u, v in zip(na, nb)), da * ma)


def _raw_neg(a: tuple) -> tuple:
    ext, nums, den = a
    if ext is None:
        return None, _iv_neg(nums, den), den
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


def _raw_dot(
    acc: tuple,
    xs: Sequence[tuple],
    ys: Sequence[tuple],
    ws: Sequence[tuple] | None = None,
    neg: bool = False,
) -> tuple:
    """acc + x0*y0*w0 + x1*y1*w1 + ... on raws (each term negated when neg),
    normalised once: the raw of the Scalar that the left fold of Scalar
    operations gives, bit for bit.

    Exact values are summed as integer numerators over a running denominator.
    Balls get the endpoints mpi_mul / mpi_add / mpi_neg would give, at the
    wider of the two operands' precisions: an exact zero term leaves the sum
    as it is, an exact zero times a ball is [0, 0] at the ball's precision,
    and any other exact operand meeting a ball is promoted as to_ball would at
    the ball's precision. Two root extensions mix as in _raw_mul.

    A term with an exact-zero factor x or y is exact 0, or the ball [0, 0] at
    the widest precision q of its ball factors. It is skipped where the fold
    would leave the sum as it is: when it is exact, or when the sum is a ball
    of precision at least q whose endpoints fit that precision. Otherwise it
    is added, so it still raises the sum's precision or promotes an exact sum.
    """
    for i, (x, y) in enumerate(zip(xs, ys)):
        # ball * ball and ball + ball inline
        if x[0] is None and y[0] is None:
            p = x[2] if x[2] >= y[2] else y[2]
            t = None, _iv_mul(x[1], y[1], p), p
        else:
            if x[0] is not None and not any(x[1]) or y[0] is not None and not any(y[1]):
                q = 0
                for f in (x, y) if ws is None else (x, y, ws[i]):
                    if f[0] is None and f[2] > q:
                        q = f[2]
                if not q:
                    continue
                if acc[0] is None:
                    (lo, _, hi, _), p = acc[1], acc[2]
                    if q <= p and lo.bit_length() <= p and hi.bit_length() <= p:
                        continue
            t = _raw_mul(x, y)
        if ws is not None:
            t = _raw_mul(t, ws[i])
        if neg:
            t = _raw_neg(t)
        if acc[0] is None and t[0] is None:
            p = acc[2] if acc[2] >= t[2] else t[2]
            acc = None, _iv_add(acc[1], t[1], p), p
        else:
            acc = _raw_add(acc, t)
    return _norm(acc)


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
        e >>= 1
        if e:  # no square after the base's last bit is used
            base = base * base
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
        return _root_ball(value, n)
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
        log = BallScalar(_libmp().mpi_log(value.mpi, p), p)
        return scalar_exp(_ball(_iv_mul(_ball_of(_raw(exponent), p), log.iv, p), p))
    return nth_root(int_pow(value, exponent.numerator), exponent.denominator)


def scalar_exp(value: Scalar) -> Scalar:
    if isinstance(value, BallScalar):
        return BallScalar(_libmp().mpi_exp(value.mpi, value.precision_bits), value.precision_bits)
    if isinstance(value, RationalScalar) and value.value == 0:
        return ONE
    raise ExactnessError("exp of a nonzero exact scalar is transcendental")


def scalar_log(value: Scalar) -> Scalar:
    if isinstance(value, BallScalar):
        if value.require_sign("log argument") != Sign.POSITIVE:
            raise DomainError("log of a non-positive ball")
        return BallScalar(_libmp().mpi_log(value.mpi, value.precision_bits), value.precision_bits)
    if isinstance(value, RationalScalar) and value.value == 1:
        return ZERO
    if value.require_sign("log argument") != Sign.POSITIVE:
        raise DomainError("log of a non-positive scalar")
    raise ExactnessError("log of an exact scalar other than 1 is transcendental")


def certified_lt(a: Scalar, b: ScalarLike) -> bool:
    return (a - as_scalar(b)).sign() == Sign.NEGATIVE


def require_gt(a: Scalar, b: ScalarLike, message: str) -> None:
    """DomainError(message) unless a > b is certified, but where a is a ball
    that reaches b, SignUndeterminedError: a higher precision may place it."""
    s = (a - as_scalar(b)).sign()
    if s == Sign.UNDETERMINED:
        raise SignUndeterminedError(f"{message}: the ball of x reaches {b}; raise the precision")
    if s != Sign.POSITIVE:
        raise DomainError(message)


def abs_le(a: Scalar, bound: ScalarLike) -> bool:
    """Certified |a| <= bound."""
    bound = as_scalar(bound)
    s = a.sign()
    if s == Sign.ZERO:
        return True
    if s == Sign.UNDETERMINED:
        # fall back to endpoint reasoning for balls
        if isinstance(a, BallScalar):
            return certified_lt(a, bound) and certified_lt(-bound, a)
        return False
    mag = a if s == Sign.POSITIVE else -a
    d = (bound - mag).sign()
    return d in (Sign.POSITIVE, Sign.ZERO)
