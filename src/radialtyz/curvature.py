"""Curvature tensors, contraction invariants and TYZ coefficients at radial points.

The potential is Phi(z) = f(|z|^2). Its mixed partials d_I dbar_J Phi at the
radial point p = (s, 0, ..., 0), I and J the indices differentiated in z and
in zbar, come from a closed formula in the derivatives of f (PhiPartialTable):
by U(n-1) symmetry they vanish there unless I and J hold each of z_2..z_n
equally often, and g is diagonal, so every contraction with g^-1 runs over
its diagonal. Evaluated quantities live in the ring R[s]/(s^2 = x) over
x-jets. By the U(1) phase rule each of them is even or odd in s, so a value
(RV) is c(x) * s^eps, held as the coefficient raws of the jet c and its
parity eps, and its arithmetic calls the jet kernel (jets._jet_mul, ...) on
the raws, with no Jet built per operation: no square root of x is ever taken,
a sum does its jet work once, and a sum of a non-zero even and a non-zero odd
value raises ArithmeticError, so the rule is checked rather than assumed. A
frame over jets in x of order m holds m x-derivatives of every tensor entry.

A frame (frame_at_x) computes the diagonal of g^-1, one jet quotient 1/g_ii
each, when it is built, and Gamma, R, the log det table, Ric and the
covariant Ricci block Ric_{ij̄,k}, Ric_{ij̄,kl̄} when each is first read, all
at the frame's jet order; |R|^2 (curvature_norm2) reads Gamma and R only. The block's
dbar Gamma term is read off R: Gamma^p_{ki} = g^{pq̄} d_k g_{iq̄}, and by
dbar g^-1 = -g^-1 (dbar g) g^-1 and the Kähler symmetry of d dbar g,
dbar_l Gamma^p_{ki} = g^{pq̄} R_{iq̄kl̄}, which is g^{pp̄} R_{ip̄kl̄} here.

Each quantity lives at the jet order Lu's formula reads it to. lu_coefficients
takes Delta Delta rho, so rho is a jet of order jet_order (4 by default).
|R|^2 - 4|Ric|^2 + 8 rho^2 enters one Laplacian, read at its value, so Gamma,
R, |R|^2 and |Ric|^2 are jets of order jet_order - 2, and the one frame is
built at that order. rho is the radial Laplacian of log det g, from the log
det table's u' jet, which the table holds three orders above the frame's; the
Laplacian reads u'' and so loses one, and rho comes out two orders above the
frame. The covariant Ricci block, nabla R and the contractions that use them
are read at their value alone and are computed on the frame's cut to order 0
(_value_frame), whose two partials tables, g^-1, Gamma and R are cuts of the
frame's, so det g and u' are formed once. Jet arithmetic is causal, so every
value on the cut is the leading part of the same quantity at the frame's
order, bit for bit, and a frame of order 2 gives the leading part of an
order-4 frame's values. A product of jets takes 6 scalar products at order 2
and one at order 0.

A frame of lower order, or a cut, tests an entry for zero on fewer
coefficients, so it could skip a term whose leading coefficients are zero
where a higher order, seeing a non-zero coefficient further on, adds it. No
bit moves. On exact values (every rational or root point, and every custom
potential) that term's leading coefficients are exact zeros, and adding an
exact zero returns the other operand. Balls run on the built-in families only.
For the eps family and Eguchi-Hanson every coefficient of Gamma, R and Ric is
a ball of non-zero width (an n-th root enters f'), unless the entry is an
exact U(n-1) zero; the flat family's entries are zero at every order;
Simanca's non-zero entries of d g, R and Ric are products of powers of 1/x and
1/(x+1), non-zero at every x > 0, and its other entries vanish identically. So
there no entry is zero to a lower order and non-zero beyond, and the zero
tests agree at every order.

The tensor loops (Gamma, R, the covariant Ricci block, nabla R and the
contractions) visit only the terms whose factors are all non-zero: each
partial is looked up once, outside the loops it does not depend on, and each
factor is tested with is_zero() before its product is built. The values are
bit for bit those of the dense loops. An RV product with a zero factor is the
ring's exact zero, and adding an exact rational zero, or a zero of the other
parity, returns the other operand, so a skipped term changed no coefficient;
the non-zero terms are added in the dense loops' lexicographic order. A term
whose own sum is zero is still added, because a ball [0, 0] is not the exact
zero.

Each entry is computed once per symmetry class and the one RV is stored under
every index tuple of the class: entries built from the same operands by the
same operations in the same order have the same bits. The partials table keys
a value by (min(p, q), max(p, q), M, prod alpha_a!), all its formula reads, so
transposes, reorderings of an index tuple, permutations of z_2..z_n (the
U(n-1) classes) and all mismatched pairs share one RV; g^{aā} is one RV for
a >= 2, and a weight g^{iī} g^{jj̄} ... depends only on which indices are 1.
Then R_{ij̄kl̄} depends on {i, k} and {j, l} only, Gamma^p_{ki} and
Ric_{ij̄,k} on {i, k}, and nabla R on {i, k} and {j, l}: for i != k at most
one of Gamma^q_{mi}, Gamma^q_{mk} is non-zero, so swapping i and k reorders
no subtraction. Ric_{ij̄,kl̄} depends on {i, k}, but its commutator term
g^{pp̄} R_{ip̄kl̄} Ric_{pj̄} is not symmetric in (j, l), so j and l stay
dense. Sums still visit every index tuple in order.

Ricci and its plain derivatives are partials of one more radial function,
U(z) = u(|z|^2) with u = log det g = (n-1) log f' + log(f' + x f''): since
Ric_{ij̄} = -d_i dbar_j U, a second partials table built from the jet of
u' = (det g)' / det g gives Ric, d Ric, dbar Ric and d dbar Ric at p, and
the trace g^{jī} Ric_{ij̄} is -Delta u, a radial Laplacian of the same u' jet.
No log is taken, so no transcendental constant enters. Covariant derivatives follow
the displayed five-term formula.

Sign conventions, pinned against the displayed Simanca component values:
    R_{ij̄kl̄} = d^2 g_{il̄}/dz_k dz̄_j - g^{pq̄} (dg_{ip̄}/dz_k)(dg_{ql̄}/dz̄_j)
    Ric_{ij̄}  = -d^2 log det g / dz_i dz̄_j   ( = minus the g-contraction of R)
    rho       = g^{jī} Ric_{ij̄} = -Delta log det g   (so a1 = rho / 2)
    Delta u   = g^{11̄}(u' + u''x) + (n-1) g^{aā} u'   for radial u(x), a >= 2
"""
from __future__ import annotations

from copy import copy
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from math import comb, factorial, perm, prod

from .jets import _ONE, _ZERO, Jet, _jet_add, _jet_mul, _jet_neg, _jet_scale, _jet_sub
from .potentials import PotentialFamily, det_jet_from_fprime, fprime_jet, prepare_point
from .records import Record
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DomainError,
    Scalar,
    ScalarLike,
    Sign,
    _Q,
    _cook,
    _raw,
    _raw_is_zero,
    as_scalar,
    int_pow,
    scalar_pow,
)

TABLE_ORDER = 5  # highest total order of Phi mixed partials the frame needs (for nabla R)


class RadialRing:
    """Values c(x) * s**odd with s**2 = x, over jets in x at x0, with the raws of 0 and x**k."""

    def __init__(self, x_jet: Jet):
        self.x = x_jet
        self.zero_raws = (_ZERO,) * len(x_jet.raws)
        self._xpow = [(_ONE,) + self.zero_raws[1:]]

    @property
    def zero(self) -> "RV":
        """The exact zero, a new RV on each read: an RV stored on the ring would
        point back at it, a cycle that only the cyclic collector frees."""
        return RV(self, self.zero_raws, 0)

    def x_power(self, k: int) -> tuple:
        """The raws of x**k, cached: every partials table on this ring shares them."""
        while len(self._xpow) <= k:
            self._xpow.append(_jet_mul(self._xpow[-1], self.x.raws))
        return self._xpow[k]


class RV:
    """The value c(x) * s**odd (see the module docstring); the values of one
    ring share its base point, so no operation on their raws checks it."""

    __slots__ = ("ring", "raws", "odd", "_z")

    def __init__(self, ring: RadialRing, raws: tuple, odd: int):
        self.ring = ring
        self.raws = raws
        self.odd = odd
        self._z = None  # whether c is zero, tested on first read

    @property
    def jet(self) -> Jet:
        return Jet(self.ring.x.x0, self.raws)

    def is_zero(self) -> bool:
        if self._z is None:  # most accumulator intermediates are never tested
            # the common zero is known without a scan
            self._z = self.raws is self.ring.zero_raws or all(map(_raw_is_zero, self.raws))
        return self._z

    def __neg__(self) -> "RV":
        return RV(self.ring, _jet_neg(self.raws), self.odd)

    def __add__(self, other: "RV") -> "RV":
        if self.odd == other.odd:
            return RV(self.ring, _jet_add(self.raws, other.raws), self.odd)
        return self._mixed(other)

    def __sub__(self, other: "RV") -> "RV":
        if self.odd == other.odd:
            return RV(self.ring, _jet_sub(self.raws, other.raws), self.odd)
        return self._mixed(-other)

    def _mixed(self, other: "RV") -> "RV":
        """self + other where the parities differ, which the phase rule allows
        only when one of them is zero."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        raise ArithmeticError("an even and an odd value in s meet in a sum")

    def __mul__(self, other) -> "RV":
        if not isinstance(other, RV):  # an int, Fraction or Scalar
            return RV(self.ring, _jet_scale(self.raws, _raw(other)), self.odd)
        if self.is_zero() or other.is_zero():
            return self.ring.zero
        raws = _jet_mul(self.raws, other.raws)
        if self.odd and other.odd:
            return RV(self.ring, _jet_mul(raws, self.ring.x.raws), 0)
        return RV(self.ring, raws, self.odd | other.odd)

    def inverse(self) -> "RV":
        # only g's diagonal is inverted, and it is even in s
        return RV(self.ring, (1 / self.even_jet("an inverted value")).raws, 0)

    def even_jet(self, what: str = "invariant") -> Jet:
        if self.odd and not self.is_zero():
            raise ArithmeticError(f"{what} has a nonvanishing odd-in-s part")
        return self.jet

    def truncate(self, ring: RadialRing) -> "RV":
        """This value on a ring over jets of lower order (its leading coefficients)."""
        return RV(ring, self.raws[: len(ring.zero_raws)], self.odd)

    def full_value(self, s: Scalar) -> Scalar:
        """c(x0) * s**odd; may require a ball backend for irrational s."""
        v = _cook(self.raws[0])
        return v * s if self.odd else v


# -- mixed partials of Phi = f(|z|^2) at the radial point --------------------


class PhiPartialTable:
    """Evaluated mixed partials d_hol dbar_anti U at (s, 0, ..., 0) as RVs, for
    a radial function U(z) = u(|z|^2) given by the jet du of u' at x0 = s^2;
    hol and anti list the indices differentiated in z and in zbar, 0 for z_1.

    Let p and q count the 0s in hol and in anti, M the other indices of hol,
    and alpha_a how often hol holds a >= 1. Each z_a with a >= 1 enters U only
    through z_a zbar_a, which vanishes at the point, so the partial is zero
    unless anti holds each a >= 1 as often as hol (the U(n-1) zero rule); each
    such index contributes alpha_a! and alpha_a more derivatives of u. In z_1,
    dbar^q u = u^(q) z_1^q, and Leibniz gives

        prod_{a>=1} alpha_a! * sum_{j=0}^{min(p,q)} C(p, j) q!/(q-j)!
                                  * s^(p+q-2j) * u^(p+q-j+M)(x),

    which depends on (min(p, q), max(p, q), M, prod alpha_a!) alone, its
    class, and not on the dimension n: the table takes none.

    s^m is x^(m//2), times s when m is odd; m = p+q-2j has the parity of p+q,
    so every term lands in one jet of that parity. The terms are added in
    ascending j, which is descending derivative order k = p+q-j+M, each as
    u^(k) * c * x^(m//2) added to an exact zero: on balls a sum's endpoints
    depend on that order, and this is the order the pinned ball digests were
    taken in.

    The frame builds one for the potential (u = f) and one for log det g; both
    live on the frame's ring. du must have order ring jet order + max_order - 1.
    """

    def __init__(self, du: Jet, max_order: int, ring: RadialRing):
        jet_order = ring.x.order
        need = jet_order + max(max_order - 1, 0)
        if du.order < need:
            raise ValueError(
                f"partials to total order {max_order} over jets of order {jet_order} "
                f"need a u' jet of order {need}, got {du.order}"
            )
        self.max_order = max_order
        self.ring = ring
        self.du = du
        uderiv, d = [du.truncate(max(jet_order - 1, 0)).antiderive(0), du], du
        for _ in range(2, max_order + 1):
            uderiv.append(d := d.derive())
        self._uderiv = [u.raws[: jet_order + 1] for u in uderiv]  # u, u', u'', ... on the ring
        self._val: dict[tuple, RV] = {}

    def partial(self, hol: tuple[int, ...], anti: tuple[int, ...]) -> RV:
        """d_hol dbar_anti U, one RV per class (see the module docstring);
        only requests within max_order are cached, so every other one raises."""
        rv = self._val.get((hol, anti))
        if rv is not None:
            return rv
        total = len(hol) + len(anti)
        if total > self.max_order:
            raise ValueError(
                f"table built to total order {self.max_order}, requested {total}"
            )
        p, q = hol.count(0), anti.count(0)
        m = len(hol) - p
        key = None  # the class of every mismatched pair, the exact zero
        if m == len(anti) - q:
            rest = sorted(hol)[p:]  # the indices a >= 1, as a multiset
            if rest == sorted(anti)[q:]:
                distinct = set(rest)
                weight = 1 if len(distinct) == m else prod(
                    factorial(rest.count(a)) for a in distinct)
                key = (p, q, m, weight) if p <= q else (q, p, m, weight)
        rv = self._val.get(key)
        if rv is None:
            rv = self._val[key] = self.ring.zero if key is None else self._value(*key)
        self._val[hol, anti] = rv
        return rv

    def _value(self, p: int, q: int, m_rest: int, weight: int) -> RV:
        ring, top = self.ring, p + q + m_rest  # top: the j = 0 term's derivative order
        acc = ring.zero_raws
        for j in range(p + 1):
            m = p + q - 2 * j
            term = _jet_scale(self._uderiv[top - j], (_Q, (weight * comb(p, j) * perm(q, j),), 1))
            if m >= 2:
                term = _jet_mul(term, ring.x_power(m // 2))
            acc = _jet_add(acc, term)
        return RV(ring, acc, (p + q) % 2)

    def truncate(self, ring: RadialRing) -> "PhiPartialTable":
        """This table on a ring over jets of lower order: its u-derivative jets
        cut to that order, its entries computed there on first request."""
        cut = copy(self)
        cut.ring, cut._val = ring, {}
        cut._uderiv = [d[: len(ring.zero_raws)] for d in self._uderiv]
        return cut


# -- the tensor frame --------------------------------------------------------


def _pairs(n: int) -> list[tuple[int, int]]:
    """(i, k) with i <= k: one index pair per symmetry class {i, k}."""
    return [(i, k) for i in range(n) for k in range(i, n)]


def _map_once(f, t, memo: dict):
    """f over the leaves of a nested list, called once per distinct leaf object
    (memo maps id to result; the leaves outlive it): aliases stay aliases."""
    if isinstance(t, list):
        return [_map_once(f, u, memo) for u in t]
    v = memo.get(id(t))
    if v is None:
        v = memo[id(t)] = f(t)
    return v


def _nz(v: RV) -> RV | None:
    """v, or None where v is zero, so that a loop tests each factor once."""
    return None if v.is_zero() else v


def _sum(ring: RadialRing, items) -> RV:
    acc = ring.zero
    for v in items:
        acc = acc + v
    return acc


def _entries(t: list, idx: tuple = ()) -> list:
    """(index tuple, value) of every non-zero entry of a nested tensor, in
    lexicographic index order."""
    if isinstance(t, list):
        return [e for i, u in enumerate(t) for e in _entries(u, idx + (i,))]
    return [] if t.is_zero() else [(idx, t)]


class RadialTensorFrame(Record):
    n: int
    ring: RadialRing  # its x jet's order is the frame's jet order
    table: PhiPartialTable
    gi: list  # gi[i] = g^{iī}, the diagonal of g^-1 (g is diagonal at radial points)

    @cached_property
    def log_det(self) -> PhiPartialTable:
        """Partials of U = log det g(|z|^2), from u' = (det g)' / det g.

        Ric_{ij̄} = -d_i dbar_j U for this radial U, so Ric and its plain
        derivatives are partials of U; no log is taken. A cut frame
        (_value_frame) holds a cut of its source frame's table instead.
        """
        det = det_jet_from_fprime(self.table.du, self.n)
        return PhiPartialTable(det.derive() / det.truncate(det.order - 1), 4, self.ring)

    @cached_property
    def _curvature(self) -> tuple[list, list]:
        """(gamma, R) at the frame's order, built on first read."""
        return _attach_curvature(self)

    gamma = property(lambda self: self._curvature[0])  # gamma[p][k][i] = Gamma^p_{ki}
    R = property(lambda self: self._curvature[1])  # R[i][j][k][l] ~ R_{i j̄ k l̄}

    @cached_property
    def ric(self) -> list:
        """ric[i][j] ~ Ric_{ij̄}."""
        partial = self.log_det.partial
        return [[-partial((i,), (j,)) for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def _ricci_cov(self) -> tuple[list, list]:
        """The covariant Ricci block at the frame's order, built on first read."""
        return _attach_ricci_cov(self)

    ric_cov1 = property(lambda self: self._ricci_cov[0])  # ric_cov1[i][j][k] = Ric_{ij̄,k}
    ric_cov2 = property(lambda self: self._ricci_cov[1])  # ric_cov2[i][j][k][l] = Ric_{ij̄,kl̄}


def frame_at_x(
    fam: PotentialFamily, n: int, x0: ScalarLike, jet_order: int = 0
) -> RadialTensorFrame:
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, not {n}")
    x0 = as_scalar(x0)
    ring = RadialRing(Jet.variable(x0, jet_order))
    # one order above what the Phi table needs: det g reads f'' off it
    fp = fprime_jet(fam, x0, jet_order + TABLE_ORDER)
    table = PhiPartialTable(fp, TABLE_ORDER, ring)
    # g_{ij̄} for i != j is zero by the table's U(n-1) rule
    g = [table.partial((i,), (i,)) for i in range(n)]
    for v in g:
        if v.jet.value().require_sign("metric diagonal") != Sign.POSITIVE:
            raise DomainError("singular metric: a diagonal entry is not certified positive")
    return RadialTensorFrame(n=n, ring=ring, table=table, gi=_map_once(RV.inverse, g, {}))


def _attach_curvature(frame: RadialTensorFrame) -> tuple[list, list]:
    """(gamma, R) at the frame's jet order, the frame's tensors on their first read."""
    n, ring, gi = frame.n, frame.ring, frame.gi
    partial = frame.table.partial
    # dg[i][k][q] = d_k g_{iq̄}, one list per {i, k}; the table keeps one entry
    # per transpose, so dg[j][l][q] is also dbar_j g_{ql̄}
    dg = [[None] * n for _ in range(n)]
    for i, k in _pairs(n):
        dg[i][k] = dg[k][i] = [_nz(partial((i, k), (q,))) for q in range(n)]

    # Christoffels: Gamma^p_{ki} = g^{pp̄} d_k g_{ip̄} (g^-1 is diagonal)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for i, k in _pairs(n):
            b = dg[i][k][p]
            gamma[p][k][i] = gamma[p][i][k] = ring.zero if b is None else gi[p] * b

    # curvature: R_{ij̄kl̄} = d^2 g_{il̄}/dz_k dz̄_j - g^{pp̄} (d_k g_{ip̄})(dbar_j g_{pl̄}),
    # where g^{pp̄} d_k g_{ip̄} is the product Gamma^p_{ki} already holds
    R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, k in _pairs(n):
        gb = [(p, gamma[p][k][i]) for p, b in enumerate(dg[i][k]) if b is not None]
        for j, l in _pairs(n):
            acc = partial((i, k), (j, l))
            c = dg[j][l]
            for q, t in gb:
                if c[q] is not None:
                    acc = acc - t * c[q]
            R[i][j][k][l] = R[k][j][i][l] = R[i][l][k][j] = R[k][l][i][j] = acc
    return gamma, R


def _attach_ricci_cov(frame: RadialTensorFrame) -> tuple[list, list]:
    """(ric_cov1, ric_cov2) at the frame's jet order, the frame's block on its
    first read; dbar_l Gamma^p_{ki} is g^{pp̄} R_{ip̄kl̄} (see the module docstring)."""
    n, ring, ric, R, gi = frame.n, frame.ring, frame.ric, frame.R, frame.gi
    upartial = frame.log_det.partial
    # dric[k][i][j] = d_k Ric_{ij̄}, one list per {i, k}; the table keeps one
    # entry per transpose, so dric[l][j][i] is also dbar_l Ric_{ij̄}
    dric = [[None] * n for _ in range(n)]
    for i, k in _pairs(n):
        dric[i][k] = dric[k][i] = [-upartial((i, k), (j,)) for j in range(n)]

    # gam[k][i] = [(p, Gamma^p_{ki}) for each non-zero Gamma^p_{ki}]
    gamma = frame.gamma
    gam = [[[(p, gamma[p][k][i]) for p in range(n) if not gamma[p][k][i].is_zero()]
            for i in range(n)] for k in range(n)]
    # both are symmetric in (i, k) only (see the module docstring)
    ric_cov1 = [[[None] * n for _ in range(n)] for _ in range(n)]
    ric_cov2 = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, k in _pairs(n):
        gki = gam[k][i]
        for j in range(n):
            ric_cov1[i][j][k] = ric_cov1[k][j][i] = dric[k][i][j] - _sum(
                ring, (ric[p][j] * gp for p, gp in gki if not ric[p][j].is_zero()))
            for l in range(n):
                glj = gam[l][j]
                ric_cov2[i][j][k][l] = ric_cov2[k][j][i][l] = (
                    -upartial((i, k), (j, l))  # dbar_l d_k Ric_{ij̄}
                    + _sum(ring, (gq * gp * ric[q][p] for q, gq in gki for p, gp in glj
                                  if not ric[q][p].is_zero()))
                    - _sum(ring, (gp * dric[l][j][p] for p, gp in gki
                                  if not dric[l][j][p].is_zero()))
                    - _sum(ring, (gi[p] * R[i][p][k][l] * ric[p][j] for p in range(n)
                                  if not (R[i][p][k][l].is_zero() or ric[p][j].is_zero())))
                    - _sum(ring, (gp * dric[k][i][p] for p, gp in glj
                                  if not dric[k][i][p].is_zero()))
                )
    return ric_cov1, ric_cov2


def _value_frame(frame: RadialTensorFrame) -> RadialTensorFrame:
    """The frame cut to jet order 0, its value frame: both partials tables,
    g^-1 and any Gamma and R already built are cuts of the frame's; Gamma and R
    if not yet built, Ric and the covariant Ricci block are built at order 0
    when first read.

    Jet arithmetic is causal: the constant term of a sum, product or quotient
    comes from the constant terms alone, by the same scalar operations. So
    every value computed on the cut is the leading part of the same quantity
    computed over the frame's jets, bit for bit (the zero tests read fewer
    coefficients here; see the module docstring). Each distinct entry is cut
    once, so the tensors keep their aliases.
    """
    ring = RadialRing(frame.ring.x.truncate(0))
    trunc, memo = (lambda v: v.truncate(ring)), {}
    cut = RadialTensorFrame(
        n=frame.n, ring=ring, table=frame.table.truncate(ring), gi=_map_once(trunc, frame.gi, memo),
    )
    built = vars(cut)  # the cached properties' slots
    built["log_det"] = frame.log_det.truncate(ring)
    if "_curvature" in vars(frame):
        built["_curvature"] = tuple(_map_once(trunc, t, memo) for t in frame._curvature)
    return cut


def _dginv(gi: list, d: list) -> list:
    """-g^{pp̄} d[q][p] g^{qq̄}: a derivative of g^{pq̄} from the same derivative
    d[a][b] of g_{ab̄}. g^-1 is diagonal at radial points, so the general
    -g^{pb̄} d[a][b] g^{aq̄} has this one term. Zero entries, of d and of the
    result, are None."""
    n = len(gi)
    return [
        [None if d[q][p] is None else _nz(-(gi[p] * d[q][p] * gi[q])) for q in range(n)]
        for p in range(n)
    ]


def _nabla_R(frame: RadialTensorFrame) -> list:
    """R_{ij̄kl̄,m} = d_m R_{ij̄kl̄} - Gamma^q_{mi} R_{qj̄kl̄} - Gamma^q_{mk} R_{ij̄ql̄},
    with d_m R differentiated term by term from the formula for R; out[m][i][j][k][l],
    one entry per {i, k} and {j, l} (see the module docstring)."""
    n, table = frame.n, frame.table
    gi, gamma, R = frame.gi, frame.gamma, frame.R
    partial = table.partial
    Rz = [[[[_nz(v) for v in r3] for r3 in r2] for r2 in r1] for r1 in R]
    # dbar[j, l][q] = dbar_j g_{ql̄}, for the pairs j <= l the loop below reads
    dbar = {(j, l): [_nz(partial((q,), (j, l))) for q in range(n)] for j, l in _pairs(n)}
    out = [[[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m in range(n):
        # d_m g^{pq̄}, built from partial((a, m), (b,)): this is transposed
        # against the contraction below, which makes DR2 wrong; a1-a3 do not read it
        d = [[_nz(partial((a, m), (b,))) for b in range(n)] for a in range(n)]
        dgz = _dginv(gi, d)
        # dmdbar[j, l][q] = d_m dbar_j g_{ql̄}
        dmdbar = {(j, l): [_nz(partial((q, m), (j, l))) for q in range(n)] for j, l in _pairs(n)}
        o = out[m]
        for i, k in _pairs(n):
            # (q, (d_m g^{pq̄}) d_k g_{ip̄}, g^{pq̄}, d_k g_{ip̄}, d_m d_k g_{ip̄}),
            # in (p, q) order
            terms = []
            for p in range(n):
                bp, dbp = _nz(partial((i, k), (p,))), _nz(partial((i, k, m), (p,)))
                if bp is None and dbp is None:
                    continue
                for q in range(n):
                    dgb = None if bp is None or dgz[p][q] is None else _nz(dgz[p][q] * bp)
                    gpq = gi[p] if p == q else None
                    if dgb is not None or gpq is not None:
                        terms.append((q, dgb, gpq, bp, dbp))
            gam = [(q, _nz(gamma[q][m][i]), _nz(gamma[q][m][k])) for q in range(n)]
            gam = [t for t in gam if t[1] is not None or t[2] is not None]
            for j, l in _pairs(n):
                acc = partial((i, k, m), (j, l))
                c, dc = dbar[j, l], dmdbar[j, l]
                for q, dgb, gpq, bp, dbp in terms:
                    cq = c[q]
                    if dgb is not None and cq is not None:
                        acc = acc - dgb * cq
                    if gpq is not None:
                        t = None if dbp is None or cq is None else dbp * cq
                        if bp is not None and dc[q] is not None:
                            u = bp * dc[q]
                            t = u if t is None else t + u
                        if t is not None and not t.is_zero():
                            acc = acc - gpq * t
                for q, gmi, gmk in gam:
                    if gmi is not None and Rz[q][j][k][l] is not None:
                        acc = acc - gmi * Rz[q][j][k][l]
                    if gmk is not None and Rz[i][j][q][l] is not None:
                        acc = acc - gmk * Rz[i][j][q][l]
                o[i][j][k][l] = o[k][j][i][l] = o[i][l][k][j] = o[k][l][i][j] = acc
    return out


# -- invariants and the Lu report -------------------------------------------


class _Weights:
    """w(i, j, ...) = g^{iī} g^{jj̄} ... as the left-associated product, one table
    per frame, shared by its contractions and memoised by which indices are 0,
    as gi[a] is one RV for a >= 1. (A class, not a recursive closure, so the
    table is freed by reference counting.)"""

    def __init__(self, frame: RadialTensorFrame):
        self.gi = frame.gi
        self.memo = {}

    def __call__(self, *idx: int) -> RV:
        key = tuple(i == 0 for i in idx)
        v = self.memo.get(key)
        if v is None:
            last = self.gi[idx[-1]]
            v = self.memo[key] = self(*idx[:-1]) * last if len(idx) > 1 else last
        return v


def _norm2(ring: RadialRing, entries, w: _Weights) -> RV:
    """The sum of w(*idx) * v * v over (idx, v) in the order given: a squared
    norm, g^-1 being diagonal. An aliased entry and a memoised weight are one
    RV each, so each product is formed once per distinct (weight, entry) pair
    and added once per index tuple."""
    acc, memo = ring.zero, {}  # id pairs; the table and the tensor keep both alive
    for idx, v in entries:
        wv = w(*idx)
        t = memo.get((id(wv), id(v)))
        if t is None:
            t = memo[id(wv), id(v)] = wv * v * v
        acc = acc + t
    return acc


def _norm2_R(frame: RadialTensorFrame, w: _Weights) -> RV:
    """|R|^2 = sum of g^{iī} g^{jj̄} g^{kk̄} g^{ll̄} R_{ij̄kl̄}^2; w is the
    frame's weight table."""
    return _norm2(frame.ring, _entries(frame.R), w)


def invariants_from_frame(frame: RadialTensorFrame) -> dict[str, Jet]:
    """All contraction invariants of the TYZ coefficient formulas (no
    Laplacian-of-invariant fields), as even jets in x.

    rho = -Delta log det g is the radial Laplacian of the frame's u' jet, two
    orders above the frame's. R2 and Ric2 are jets of the frame's order, built
    on the frame. Every other invariant is read at its value alone and is an
    order-0 jet, computed on the frame's order-0 cut (_value_frame): there R
    is cut, and the covariant Ricci block and nabla R are built at order 0
    only. Each value is the leading part the frame's order would give, bit for
    bit.

    g^-1 is diagonal (by the U(n-1) rule), so contractions run over the
    non-zero entries in index order with weights from one table per frame.
    """
    n = frame.n
    rho = -radial_laplacian_jet(frame.log_det.du, frame.table.du, n)
    w = _Weights(frame)
    r2 = _norm2_R(frame, w)
    ric2 = _norm2(frame.ring, _entries(frame.ric), w)

    # from here on, values only
    value = _value_frame(frame)
    ring = value.ring
    w = _Weights(value)
    R, ric = value.R, value.ric
    ric_entries, R_entries = _entries(ric), _entries(R)

    sigma3 = ring.zero
    for (i, j), rij in ric_entries:
        for k in range(n):
            if ric[j][k].is_zero() or ric[k][i].is_zero():
                continue
            term = rij * ric[j][k] * ric[k][i]
            if not term.is_zero():
                sigma3 = sigma3 + w(i, j, k) * term

    r_ric_ric = ring.zero
    for (i, j, k, l), v in R_entries:
        if not (ric[j][i].is_zero() or ric[l][k].is_zero()):
            r_ric_ric = r_ric_ric + w(i, j, k, l) * (v * ric[j][i] * ric[l][k])

    R_by_first = [[] for _ in range(n)]
    for (j, k, p, q), v in R_entries:
        R_by_first[j].append((k, p, q, v))
    ric_r_r = ring.zero
    for (i, j), rij in ric_entries:
        for k, p, q, t1 in R_by_first[j]:
            t2 = R[k][i][q][p]
            if not t2.is_zero():
                ric_r_r = ric_r_r + w(i, j, k, p, q) * rij * t1 * t2

    dric2 = _norm2(ring, _entries(value.ric_cov1), w)
    # nabla R is stored out[m][i][j][k][l]; its weight reads the index m last
    nabla = _entries(_nabla_R(value))
    dr2 = _norm2(ring, (((i, j, k, l, m), v) for (m, i, j, k, l), v in nabla), w)

    rho_x = rho.derive()
    rho_x, rho_xx = rho_x.raws[:1], rho_x.derive().raws[:1]
    drho = RV(ring, rho_x, 1)
    drho2 = ring.zero if drho.is_zero() else w(0) * drho * drho
    # complex Hessian of a radial function: u'' zbar_a z_b + u' delta_ab
    hess = [[ring.zero] * n for _ in range(n)]
    hess[0][0] = RV(ring, _jet_add(_jet_mul(rho_xx, ring.x.raws), rho_x), 0)
    for i in range(1, n):
        hess[i][i] = RV(ring, rho_x, 0)
    ric_hess = ring.zero
    for (i, j), rij in ric_entries:
        if not hess[j][i].is_zero():
            ric_hess = ric_hess + w(i, j) * rij * hess[j][i]

    ric_cov2_r = ring.zero
    for (i, j, k, l), a in _entries(value.ric_cov2):
        b = R[j][i][l][k]
        if not b.is_zero():
            ric_cov2_r = ric_cov2_r + w(i, j, k, l) * a * b

    names = {
        "R2": r2,
        "Ric2": ric2,
        "sigma3Ric": sigma3,
        "RRicRic": r_ric_ric,
        "RicRR": ric_r_r,
        "DRic2": dric2,
        "DR2": dr2,
        "DRho2": drho2,
        "ricHessRho": ric_hess,
        "ricCov2R": ric_cov2_r,
    }
    return {"rho": rho, **{k: v.even_jet(k) for k, v in names.items()}}


def radial_laplacian_jet(du: Jet, fp: Jet, n: int) -> Jet:
    """Delta u for a radial u(|z|^2), from the jet du of u' and the jet fp of
    f' at the same point, of order at least du.order: a jet of order
    du.order - 1. Delta reads only u' and u'', so u itself is never formed."""
    if du.order < 1:
        raise ValueError("radial Laplacian needs a u' jet of order >= 1")
    ddu = du.derive()
    fp = fp.truncate(du.order)
    fpp = fp.derive()
    x = Jet.variable(du.x0, ddu.order)
    # g^{11̄} = 1/(f' + x f''), certified positive for admissible families, and g^{aā} = 1/f'
    return 1 / (fp + x * fpp) * (du + ddu * x) + 1 / fp * du * (n - 1)


# a dataclass, unlike the package's other records: callers derive reports from
# it with dataclasses.replace
@dataclass(frozen=True)
class LuReport:
    a1: Scalar
    a2: Scalar
    a3: Scalar
    rho: Scalar
    R2: Scalar
    Ric2: Scalar
    DRho2: Scalar
    DRic2: Scalar
    DR2: Scalar
    sigma3Ric: Scalar
    RRicRic: Scalar
    RicRR: Scalar
    divdivRRic: Scalar
    divdivRhoRic: Scalar
    lapRho: Scalar
    laplapRho: Scalar
    lapCombo8: Scalar

    def as_dict(self) -> dict[str, Scalar]:
        """The fields in their declared order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def lu_coefficients(
    fam: PotentialFamily,
    n: int,
    x: ScalarLike,
    jet_order: int = 4,
    *,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> LuReport:
    """a1, a2, a3 and every contraction intermediate at a radial point.

    jet_order >= 4 so that Delta Delta rho closes. rho is a jet of order
    jet_order, and |R|^2, |Ric|^2 and rho^2, which enter one Laplacian, of
    order jet_order - 2: the one frame is built at that order, and rho comes
    out two orders above it. The f' jet the engine pulls has order
    jet_order - 2 + TABLE_ORDER >= 7: the Phi table needs order jet_order + 2,
    and the f'' in det g one more.
    """
    if jet_order < 4:
        raise ValueError("lu_coefficients needs jet_order >= 4 for the double Laplacian")
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=precision_bits)
    frame = frame_at_x(fam, n, x0, jet_order - 2)
    inv = invariants_from_frame(frame)

    rho, fp = inv["rho"], frame.table.du
    lap_rho = radial_laplacian_jet(rho.derive(), fp, n)
    laplap_rho = radial_laplacian_jet(lap_rho.derive(), fp, n)
    # rho^2, formed once for its three uses, is read to order jet_order - 2,
    # the order of R2 and Ric2
    r = rho.truncate(jet_order - 2)
    rho2 = r * r
    combo8 = inv["R2"] - inv["Ric2"] * 4 + rho2 * 8
    lap_combo8 = radial_laplacian_jet(combo8.derive(), fp, n)

    divdiv_rho_ric = inv["DRho2"] * 2 + inv["ricHessRho"] + rho * lap_rho
    divdiv_r_ric = (
        -inv["ricHessRho"]
        - inv["DRic2"] * 2
        + inv["ricCov2R"]
        - inv["RRicRic"]
        - inv["sigma3Ric"]
    )

    a1 = rho * Fraction(1, 2)
    a2 = lap_rho * Fraction(1, 3) + (inv["R2"] - inv["Ric2"] * 4 + rho2 * 3) * Fraction(1, 24)
    a3 = (
        laplap_rho * Fraction(1, 8)
        + divdiv_r_ric * Fraction(1, 24)
        - divdiv_rho_ric * Fraction(1, 6)
        + lap_combo8 * Fraction(1, 48)
        + rho * (rho2 - inv["Ric2"] * 4 + inv["R2"]) * Fraction(1, 48)
        + (inv["sigma3Ric"] - inv["RicRR"] - inv["RRicRic"]) * Fraction(1, 24)
    )

    # every field's jet by name: the invariants keep theirs (two are not fields)
    out = dict(inv, a1=a1, a2=a2, a3=a3, divdivRRic=divdiv_r_ric,
               divdivRhoRic=divdiv_rho_ric, lapRho=lap_rho, laplapRho=laplap_rho,
               lapCombo8=lap_combo8)
    return LuReport(**{f.name: out[f.name].value() for f in fields(LuReport)})


def curvature_norm2(
    fam: PotentialFamily,
    n: int,
    x: ScalarLike,
    *,
    jet_order: int = 0,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Jet:
    """|R|^2 as a jet in x, from the frame's g^-1 and R alone: Ric, rho, the
    covariant Ricci block and nabla R are built on first read, and none is read
    here."""
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=precision_bits)
    frame = frame_at_x(fam, n, x0, jet_order)
    return _norm2_R(frame, _Weights(frame)).even_jet("|R|^2")


def closed_forms_eps(n: int, eps: int, x: ScalarLike) -> dict[str, Scalar]:
    """Displayed closed forms for the Ricci-flat family at lam = 1:

    R2 = n(n-1)(n+1)(n+2) eps^2 (x^n + eps)^(-2(n+1)/n)
    a3_proportional = 2n(n-1)(n+2)(n+1)^2 eps^2 (x^n+eps)^(-3(n+1)/n) (x^n(n+3) - n eps)
    """
    x = as_scalar(x)
    if eps == 0 or n == 1:
        return {"R2": as_scalar(0), "a3_proportional": as_scalar(0)}
    base = int_pow(x, n) + eps
    r2 = (
        scalar_pow(base, Fraction(-2 * (n + 1), n))
        * (n * (n - 1) * (n + 1) * (n + 2) * eps * eps)
    )
    a3 = (
        scalar_pow(base, Fraction(-3 * (n + 1), n))
        * (int_pow(x, n) * (n + 3) - n * eps)
        * (2 * n * (n - 1) * (n + 2) * (n + 1) * (n + 1) * eps * eps)
    )
    return {"R2": r2, "a3_proportional": a3}
