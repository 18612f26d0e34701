"""Radial Kahler potential families and their f' jets.

Families are described through f(x), x = |z|^2, and only ever used through
the jet of f' at an admissible base point; the antiderivative constant of f
is anchored to 0 at the base point, which every downstream quantity is
invariant under.

* EpsilonFamily(eps, lam, n): f' = lam * (eps * x**-n + 1)**(1/n), the
  Ricci-flat family (det g == lam**n identically).
* Simanca: f = x + log x on x > 0, so f' = 1 + 1/x (scalar-flat, n = 2).
* EguchiHanson: the explicit potential sqrt(x^2+1) + log x - log(1+sqrt(x^2+1)),
  differentiated through jet arithmetic; coefficient-identical to
  EpsilonFamily(1, 1, 2).
* CustomPotential: Taylor coefficients of f' supplied directly.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .jets import Jet
from .records import Record
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DomainError,
    RationalScalar,
    Scalar,
    ScalarLike,
    Sign,
    as_scalar,
    require_gt,
)


class EpsilonFamily(Record):
    eps: int
    lam: Fraction
    n: int

    def __init__(self, eps: int, lam: Fraction, n: int):
        if eps not in (-1, 0, 1):
            raise ValueError("eps must be -1, 0 or 1")
        if n < 1:
            raise ValueError("n must be a positive integer")
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        super().__init__(eps, lam, n)


class Simanca(Record):
    pass


class EguchiHanson(Record):
    pass


class CustomPotential(Record):
    x0: Scalar
    fprime_coeffs: tuple[Scalar, ...]

    @staticmethod
    def make(x0: ScalarLike, coeffs: Sequence[ScalarLike]) -> "CustomPotential":
        x0 = as_scalar(x0)
        coeffs = tuple(as_scalar(c) for c in coeffs)
        if not coeffs:
            raise ValueError("custom potential needs at least f'(x0)")
        if coeffs[0].require_sign("f'(x0)") != Sign.POSITIVE:
            raise DomainError("custom potential needs certified f'(x0) > 0")
        return CustomPotential(x0, coeffs)


PotentialFamily = Union[EpsilonFamily, Simanca, EguchiHanson, CustomPotential]


def family_label(fam: PotentialFamily) -> str:
    if isinstance(fam, EpsilonFamily):
        return f"epsilon(eps={fam.eps},lambda={fam.lam},n={fam.n})"
    if isinstance(fam, Simanca):
        return "simanca"
    if isinstance(fam, EguchiHanson):
        return "eguchi-hanson"
    return f"custom(x0={fam.x0.text()},order={len(fam.fprime_coeffs) - 1})"


def check_admissible(fam: PotentialFamily, x0: Scalar) -> None:
    """Strict-inequality domain checks with certified signs: DomainError for
    a point certified outside, SignUndeterminedError for a ball of x0 that
    reaches the domain's edge."""
    if isinstance(fam, EpsilonFamily):
        if fam.eps == -1:
            require_gt(x0, 1, "eps=-1 family needs x > 1")
        else:
            require_gt(x0, 0, "epsilon family needs x > 0")
    elif isinstance(fam, (Simanca, EguchiHanson)):
        require_gt(x0, 0, f"{family_label(fam)} needs x > 0")
    elif isinstance(fam, CustomPotential):
        if x0 != fam.x0:
            raise DomainError("custom potential is only defined at its own base point")
    else:
        raise TypeError(f"unknown family {fam!r}")


def fprime_jet(fam: PotentialFamily, x0: ScalarLike, order: int) -> Jet:
    """Jet of f' at x0 to the requested order."""
    x0 = as_scalar(x0)
    check_admissible(fam, x0)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(fam, EpsilonFamily):
        if fam.eps == 0:
            return Jet.constant(x0, RationalScalar(fam.lam), order)
        x = Jet.variable(x0, order)
        radicand = (x ** (-fam.n)) * fam.eps + 1
        return radicand.pow(Fraction(1, fam.n)) * RationalScalar(fam.lam)
    if isinstance(fam, Simanca):
        x = Jet.variable(x0, order)
        return 1 + Jet.constant(x0, 1, order) / x
    if isinstance(fam, EguchiHanson):
        # d/dx of sqrt(x^2+1) + log x - log(1 + sqrt(x^2+1)), via jet arithmetic
        x = Jet.variable(x0, order)
        u = (x * x + 1).pow(Fraction(1, 2))
        return x / u + 1 / x - (x / u) / (u + 1)
    if isinstance(fam, CustomPotential):
        if order > len(fam.fprime_coeffs) - 1:
            raise ValueError(
                f"custom potential holds order {len(fam.fprime_coeffs) - 1}, "
                f"requested {order}"
            )
        return Jet.make(fam.x0, fam.fprime_coeffs[: order + 1])
    raise TypeError(f"unknown family {fam!r}")


def f_jet(fam: PotentialFamily, x0: ScalarLike, order: int) -> Jet:
    """Jet of f anchored to f(x0) = 0; order >= 1."""
    if order < 1:
        raise ValueError("f jet needs order >= 1")
    return fprime_jet(fam, x0, order - 1).antiderive(0)


def det_jet_from_fprime(fp: Jet, n: int) -> Jet:
    """det g = (f')**(n-1) * (f' + x f'') in dimension n, one order below the f' jet."""
    fpp = fp.derive()
    fp = fp.truncate(fpp.order)
    x = Jet.variable(fp.x0, fpp.order)
    return fp ** (n - 1) * (fp + x * fpp)


def ricci_flat_residual(
    fam: PotentialFamily, samples: Sequence[ScalarLike], n: int | None = None
) -> list[Scalar]:
    """d/dx log det g at each sample; all zero iff the radial metric is
    Ricci-flat along the samples. n defaults to the family's own dimension."""
    if isinstance(fam, EpsilonFamily) and n is None:
        n = fam.n
    if isinstance(fam, (Simanca, EguchiHanson)) and n is None:
        n = 2
    if n is None:
        raise ValueError("dimension n required for a custom potential")
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, not {n}")
    out = []
    for x0 in samples:
        d0, d1 = det_jet_from_fprime(fprime_jet(fam, as_scalar(x0), 2), n).coeffs
        out.append(d1 / d0)
    return out


def prepare_point(
    fam: PotentialFamily,
    x0: ScalarLike,
    *,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Scalar:
    """Backend selection: returns x0 as the Scalar the pipeline should run on.

    Default rule: exact rationals / single-root extensions whenever n <= 2
    (all radicals are at worst square roots), big floats otherwise. exact=True
    forces the exact route for any n (single n-th-root extension); exact=False
    forces balls at the given precision.
    """
    x0 = as_scalar(x0)
    if exact is False:
        return x0.to_ball(precision_bits)
    if exact is True:
        if isinstance(x0, RationalScalar):
            return x0
        raise DomainError("exact mode needs a rational evaluation point")
    if isinstance(fam, EpsilonFamily) and fam.n > 2 and fam.eps != 0:
        return x0.to_ball(precision_bits)
    return x0


def load_custom_potential(path: str | Path) -> CustomPotential:
    """Ingest {x0: "p/q", coefficients: ["p/q", ...]} as Taylor data of f'."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "coefficients" not in data or "x0" not in data:
        raise ValueError(f"custom potential {path} needs the keys \"x0\" and \"coefficients\"")
    if not isinstance(data["coefficients"], list):
        raise ValueError(f"custom potential {path}: \"coefficients\" must be a JSON list")
    return CustomPotential.make(str(data["x0"]), [str(c) for c in data["coefficients"]])
