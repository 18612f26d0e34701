"""Diastasis germs, the minor matrix of the resolvability criterion, and the
flat-embedding coefficient identity.

For a radial potential and the axis point p = (s, 0, ..., 0) the diastasis
restricted to the z1-axis is

    D_p(z1) = f(z1 z̄1) + f(s^2) - f(s z1) - f(s z̄1),

whose additive f-constant cancels by construction. Germs are carried in the
scaled offsets u_hat = (z1 - s)/s, v_hat = (z̄1 - s)/s: every coefficient then
lives in the field of x0 = s^2 (no square root of x0 appears), and the minor
determinant in the scaled variables equals the true minor times the exact
positive factor x0**(l(l+1)/2), which the code divides back out. Signs are
unaffected either way.

A certified-negative minor proves the metric is not projectively induced; a
certificate with every minor positive is only a finite-order necessary
condition and is labeled as such.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .jets import HermitianBiJet, Jet, bijet_compose_univariate, bijet_exp
from .obstruction import gh_jets, gh_sequence
from .potentials import PotentialFamily, family_label, fprime_jet, prepare_point
from .scalars import (
    DEFAULT_PRECISION_BITS,
    Scalar,
    ScalarLike,
    Sign,
    as_scalar,
    int_pow,
)

SCOPE_NOTE = (
    "necessary-condition check up to order (lmax, hmax): positivity of these "
    "finitely many minors does not certify projective inducedness"
)


@dataclass(frozen=True)
class DiastasisGerm:
    family: str
    s: Scalar | None
    x0: Scalar
    order: int
    bijet: HermitianBiJet  # in scaled offsets u_hat, v_hat


def _inner_bijet(x0: Scalar, order: int) -> HermitianBiJet:
    """x = s^2 (1 + u_hat)(1 + v_hat) as a bivariate jet: x0(1 + u + v + uv)."""
    zero = as_scalar(0)
    rows = [[zero] * (order + 1) for _ in range(order + 1)]
    rows[0][0] = x0
    if order >= 1:
        rows[0][1] = x0
        rows[1][0] = x0
        rows[1][1] = x0
    return HermitianBiJet.make(x0, rows)


def diastasis_germ_at_x(fam: PotentialFamily, fp: Jet, order: int) -> DiastasisGerm:
    """The germ at x0 = fp.x0 from the f' jet fp, of order >= 2 * order - 1."""
    x0 = fp.x0
    fj = fp.antiderive(0).truncate(2 * order)  # f anchored to f(x0) = 0
    inner = _inner_bijet(x0, order)
    radial_part = bijet_compose_univariate(fj, inner)
    # f(s z1) = f(x0 (1 + u_hat)): univariate row/column contributions
    axis = fj.scale_var(x0)
    rows = [list(r) for r in radial_part.coeffs]
    for k in range(1, order + 1):
        rows[k][0] = rows[k][0] - axis.coeffs[k]
        rows[0][k] = rows[0][k] - axis.coeffs[k]
    # the constants f(x0) + f(s^2) - f(s*s) ... cancel: fj is anchored to 0
    germ = HermitianBiJet.make(x0, rows)
    return DiastasisGerm(
        family=family_label(fam), s=None, x0=x0, order=order, bijet=germ
    )


def diastasis_germ(fam: PotentialFamily, s: ScalarLike, order: int) -> DiastasisGerm:
    s = as_scalar(s)
    if s.sign() == Sign.ZERO:
        raise ValueError("diastasis germ needs s != 0")
    x0 = s * s
    g = diastasis_germ_at_x(fam, fprime_jet(fam, x0, max(2 * order - 1, 0)), order)
    return DiastasisGerm(family=g.family, s=s, x0=g.x0, order=order, bijet=g.bijet)


def det_scalar(matrix: list[list[Scalar]]) -> Scalar:
    """Division-free determinant (Laplace expansion with column-subset memo)."""
    m = len(matrix)
    memo: dict[frozenset, Scalar] = {}

    def rec(cols: frozenset) -> Scalar:
        if not cols:
            return as_scalar(1)
        got = memo.get(cols)
        if got is not None:
            return got
        row = m - len(cols)
        acc: Scalar | None = None
        for pos, c in enumerate(sorted(cols)):
            term = matrix[row][c] * rec(cols - {c})
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        memo[cols] = acc
        return acc

    return rec(frozenset(range(m)))


@dataclass(frozen=True)
class ResolvabilityCertificate:
    family: str
    x0: Scalar
    s: Scalar | None
    lmax: int
    hmax: int
    minors: tuple[tuple[Scalar, ...], ...]  # minors[l][h]
    signs: tuple[tuple[Sign, ...], ...]
    verdict: str  # "all-positive" | "obstructed" | "inconclusive"
    first_flag: tuple[int, int] | None  # (l, h) of the verdict witness
    scope_note: str = field(default=SCOPE_NOTE)


def minor_matrix(
    fam: PotentialFamily,
    s: ScalarLike | None = None,
    lmax: int = 2,
    hmax: int = 4,
    *,
    x: ScalarLike | None = None,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ResolvabilityCertificate:
    """Minors M(l, h) = det[(1/(i!j!)) d^{i+j}(e^{D_p} g_h)/dz1^i dz̄1^j]_{0<=i,j<=l}.

    Scan order for the verdict is l ascending, then h ascending. A certified
    negative anywhere yields "obstructed" (at the first such position); exact
    zeros or undetermined signs yield "inconclusive" when nothing is negative.
    """
    if (x is None) == (s is None):
        raise ValueError("give exactly one of s or x (= s^2)")
    if lmax < 0 or hmax < 0:
        raise ValueError("lmax and hmax must be >= 0")
    s_scalar: Scalar | None = None
    if x is None:
        s_scalar = as_scalar(s)
        x0 = s_scalar * s_scalar
    else:
        x0 = as_scalar(x)
    x0 = prepare_point(fam, x0, exact=exact, precision_bits=precision_bits)

    # one f' jet serves the germ (order 2*lmax - 1) and the g_h jets at x0 of
    # order >= 2*lmax (order hmax + 2*lmax - 1); g_0 = 1 needs none
    fp = fprime_jet(fam, x0, max(hmax + 2 * lmax - 1, 0))
    germ = diastasis_germ_at_x(fam, fp, lmax)
    expd = bijet_exp(germ.bijet)
    inner = _inner_bijet(x0, lmax)
    gh = gh_jets(fp, hmax) if hmax else [Jet.constant(x0, 1, 2 * lmax)]

    minors: list[list[Scalar]] = [[None] * (hmax + 1) for _ in range(lmax + 1)]
    signs: list[list[Sign]] = [[None] * (hmax + 1) for _ in range(lmax + 1)]
    for h in range(hmax + 1):
        gh_bij = bijet_compose_univariate(gh[h].truncate(2 * lmax), inner)
        entries = expd * gh_bij  # scaled-variable coefficients
        for l in range(lmax + 1):
            sub = [[entries.coeff(i, j) for j in range(l + 1)] for i in range(l + 1)]
            det = det_scalar(sub)
            # undo the u_hat = u/s scaling: det picks up s^(l(l+1)) = x0^(l(l+1)/2)
            minors[l][h] = det / int_pow(x0, l * (l + 1) // 2)
            signs[l][h] = minors[l][h].sign()

    verdict, first = "all-positive", None
    for l, h in product(range(lmax + 1), range(hmax + 1)):
        if signs[l][h] == Sign.NEGATIVE:
            verdict, first = "obstructed", (l, h)
            break
        if first is None and signs[l][h] in (Sign.ZERO, Sign.UNDETERMINED):
            verdict, first = "inconclusive", (l, h)

    return ResolvabilityCertificate(
        family=family_label(fam),
        x0=x0,
        s=s_scalar,
        lmax=lmax,
        hmax=hmax,
        minors=tuple(tuple(r) for r in minors),
        signs=tuple(tuple(r) for r in signs),
        verdict=verdict,
        first_flag=first,
    )


@dataclass(frozen=True)
class EmbeddingCheckReport:
    max_degree: int
    checked: int
    mismatches: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def simanca_embedding_check(max_degree: int) -> EmbeddingCheckReport:
    """Verify coeff of a^j b^k in (a+b) e^(a+b) equals (j+k)/(j! k!), exactly.

    This is the coefficient identity behind the flat-to-projective immersion
    of the Simanca potential; checked for all 1 <= j+k <= max_degree by
    brute-force bivariate expansion over rationals.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    D = max_degree
    # build (a+b) * exp(a+b) truncated to total degree D, over Fractions
    poly: dict[tuple[int, int], Fraction] = {}
    fact = Fraction(1)
    for m in range(D):  # (a+b)^(m+1) / m!
        if m:
            fact /= m
        for j in range(m + 2):
            k = m + 1 - j
            c = Fraction(math.comb(m + 1, j)) * fact
            poly[(j, k)] = poly.get((j, k), Fraction(0)) + c
    mism = []
    checked = 0
    for j in range(D + 1):
        for k in range(D + 1 - j):
            if j + k == 0:
                continue
            checked += 1
            expected = Fraction(j + k, math.factorial(j) * math.factorial(k))
            if poly.get((j, k), Fraction(0)) != expected:
                mism.append((j, k))
    return EmbeddingCheckReport(max_degree=D, checked=checked, mismatches=tuple(mism))


def first_row_matches_gh(
    cert: ResolvabilityCertificate, fam: PotentialFamily
) -> bool:
    """M(0, h) must equal gh_sequence exactly (first-row consistency)."""
    seq = gh_sequence(fam, cert.x0, cert.hmax)
    return all(
        (cert.minors[0][h] - seq[h]).sign() == Sign.ZERO for h in range(cert.hmax + 1)
    )
