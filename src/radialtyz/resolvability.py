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

In the scaled offsets x = x0 (1 + u_hat)(1 + v_hat), so f and every g_h
compose as jets in t = x/x0 - 1 with integer weights (see jets): x0 enters
each coefficient once, through Jet.scale_var. The germ's row 0 and column 0
are the exact zeros D(u_hat, 0) = D(0, v_hat) = 0, and det_scalar runs on
kernel raws and builds one Scalar. Results are bit for bit those of the same
steps taken one Scalar operation at a time.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .jets import HermitianBiJet, Jet, bijet_compose_univariate, bijet_exp
from .obstruction import gh_jets, gh_sequence
from .potentials import PotentialFamily, family_label, fprime_jet, prepare_point
from .records import Record
from .scalars import (
    DEFAULT_PRECISION_BITS,
    Scalar,
    ScalarLike,
    Sign,
    _cook,
    _norm,
    _raw,
    _raw_add,
    _raw_mul,
    _raw_neg,
    as_scalar,
    int_pow,
)

_ZERO, _ONE = _raw(0), _raw(1)

SCOPE_NOTE = (
    "necessary-condition check up to order (lmax, hmax): positivity of these "
    "finitely many minors does not certify projective inducedness"
)


def diastasis_germ_at_x(fp: Jet, order: int) -> HermitianBiJet:
    """The germ of order L = order at x0 = fp.x0, in the scaled offsets u_hat,
    v_hat, from the f' jet fp, of order >= 2L - 1."""
    # D = F((1 + u)(1 + v)) - F(1 + u) - F(1 + v), F(1 + t) = f(x0 (1 + t)) - f(x0):
    # the last two terms are the first's row 0 and column 0, so those are 0
    fj = fp.antiderive(0).truncate(2 * order).scale_var(fp.x0)
    c = bijet_compose_univariate(fj, order).raws
    rows = [(_ZERO,) * (order + 1)] + [(_ZERO,) + r[1:] for r in c[1:]]
    return HermitianBiJet(fp.x0, tuple(rows))


def det_scalar(matrix: list[list[Scalar]]) -> Scalar:
    """Division-free determinant: Laplace expansion along the rows, memoised
    on the set of columns left, on kernel raws as the Scalar operators
    compute them, so it is bit for bit the expansion in Scalar operations."""
    m = len(matrix)
    raws = [[_raw(v) for v in row] for row in matrix]
    memo: dict[int, tuple] = {}

    def rec(cols: int) -> tuple:
        # cols: bit c set while column c is left; the row is the next one down
        if not cols:
            return _ONE
        got = memo.get(cols)
        if got is not None:
            return got
        row = raws[m - cols.bit_count()]
        acc = None
        pos = 0
        for c in range(m):
            if cols >> c & 1:
                term = _norm(_raw_mul(row[c], rec(cols & ~(1 << c))))
                if pos % 2:
                    term = _raw_neg(term)
                acc = term if acc is None else _norm(_raw_add(acc, term))
                pos += 1
        memo[cols] = acc
        return acc

    return _cook(rec((1 << m) - 1))


class ResolvabilityCertificate(Record):
    family: str
    x0: Scalar
    lmax: int
    hmax: int
    minors: tuple[tuple[Scalar, ...], ...]  # minors[l][h]
    signs: tuple[tuple[Sign, ...], ...]
    verdict: str  # "all-positive" | "obstructed" | "inconclusive"
    first_flag: tuple[int, int] | None  # (l, h) of the verdict witness
    scope_note: str = SCOPE_NOTE


def minor_matrix(
    fam: PotentialFamily,
    x: ScalarLike,
    lmax: int = 2,
    hmax: int = 4,
    *,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ResolvabilityCertificate:
    """Minors M(l, h) = det[(1/(i!j!)) d^{i+j}(e^{D_p} g_h)/dz1^i dz̄1^j]_{0<=i,j<=l}.

    Scan order for the verdict is l ascending, then h ascending. A certified
    negative anywhere yields "obstructed" (at the first such position); exact
    zeros or undetermined signs yield "inconclusive" when nothing is negative.
    """
    if lmax < 0 or hmax < 0:
        raise ValueError("lmax and hmax must be >= 0")
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=precision_bits)

    # one f' jet serves the germ (order 2*lmax - 1) and the g_h jets at x0 of
    # order >= 2*lmax (order hmax + 2*lmax - 1)
    fp = fprime_jet(fam, x0, max(hmax + 2 * lmax - 1, 0))
    expd = bijet_exp(diastasis_germ_at_x(fp, lmax))
    gh = gh_jets(fp, hmax)

    # undo the u_hat = u/s scaling: the order-l minor picks up
    # s^(l(l+1)) = x0^(l(l+1)/2), one divisor per l
    scale = [int_pow(x0, l * (l + 1) // 2) for l in range(lmax + 1)]
    minors: list[list[Scalar]] = [[None] * (hmax + 1) for _ in range(lmax + 1)]
    signs: list[list[Sign]] = [[None] * (hmax + 1) for _ in range(lmax + 1)]
    for h in range(hmax + 1):
        gh_bij = bijet_compose_univariate(gh[h].truncate(2 * lmax).scale_var(x0), lmax)
        entries = expd * gh_bij  # scaled-variable coefficients
        for l in range(lmax + 1):
            sub = [[entries.coeff(i, j) for j in range(l + 1)] for i in range(l + 1)]
            minors[l][h] = det_scalar(sub) / scale[l]
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
        lmax=lmax,
        hmax=hmax,
        minors=tuple(tuple(r) for r in minors),
        signs=tuple(tuple(r) for r in signs),
        verdict=verdict,
        first_flag=first,
    )


class EmbeddingCheckReport(Record):
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
