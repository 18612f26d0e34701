"""Curvature tensors, contraction invariants and TYZ coefficients at radial points.

The potential is Phi(z) = f(|z|^2). Mixed partials of Phi are differentiated
symbolically (terms c * f^(k) * z^a * zbar^b are closed under d/dz_j and
d/dzbar_j) and evaluated at the radial point p = (s, 0, ..., 0). Evaluated
quantities live in the ring R[s]/(s^2 = x) over x-jets: a value is
`even(x) + odd(x) * s`, so no square root of x is ever taken and running the
whole engine over jets in x of order m yields m x-derivatives of every
tensor entry, hence radial Laplacians of every invariant.

Ricci and its plain derivatives are partials of one more radial function,
U(z) = u(|z|^2) with u = log det g = (n-1) log f' + log(f' + x f''): since
Ric_{ij̄} = -d_i dbar_j U, a second partials table built from the jet of
u' = (det g)' / det g gives Ric, d Ric, dbar Ric and d dbar Ric at p. No log
is taken, so no transcendental constant enters. Covariant derivatives follow
the displayed five-term formula.

Sign conventions, pinned against the displayed Simanca component values:
    R_{ij̄kl̄} = d^2 g_{il̄}/dz_k dz̄_j - g^{pq̄} (dg_{ip̄}/dz_k)(dg_{ql̄}/dz̄_j)
    Ric_{ij̄}  = -d^2 log det g / dz_i dz̄_j   ( = minus the g-contraction of R)
    rho       = 2 g^{jī} Ric_{ij̄}             (so a1 = rho / 2)
    Delta u   = g^{11̄}(u' + u''x) + (n-1) g^{iī} u'   for radial u(x)
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .jets import Jet
from .potentials import PotentialFamily, det_jet_from_fprime, fprime_jet, prepare_point
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DomainError,
    Scalar,
    ScalarLike,
    Sign,
    as_scalar,
    int_pow,
    scalar_pow,
)

TABLE_ORDER = 5  # highest total order of Phi mixed partials the frame needs (for nabla R)


def _jet_is_zero(j: Jet) -> bool:
    return all(c.sign() == Sign.ZERO for c in j.coeffs)


class RadialRing:
    """Values even(x) + odd(x)*s with s**2 = x, over jets in x at x0."""

    def __init__(self, x_jet: Jet):
        self.x = x_jet
        self.zero_jet = Jet.constant(x_jet.x0, 0, x_jet.order)
        self.one_jet = Jet.constant(x_jet.x0, 1, x_jet.order)
        self.zero = RV(self, self.zero_jet, self.zero_jet)
        self.one = RV(self, self.one_jet, self.zero_jet)
        self._xpow = [self.one_jet]

    def x_power(self, k: int) -> Jet:
        """x**k, cached: every partials table on this ring shares the powers."""
        while len(self._xpow) <= k:
            self._xpow.append(self._xpow[-1] * self.x)
        return self._xpow[k]

    def even(self, jet: Jet) -> "RV":
        return RV(self, jet, self.zero_jet)

    def odd(self, jet: Jet) -> "RV":
        return RV(self, self.zero_jet, jet)


class RV:
    __slots__ = ("ring", "ev", "od", "_ev_zero", "_od_zero")

    def __init__(self, ring: RadialRing, ev: Jet, od: Jet):
        self.ring = ring
        self.ev = ev
        self.od = od
        self._ev_zero = _jet_is_zero(ev)
        self._od_zero = _jet_is_zero(od)

    def is_zero(self) -> bool:
        return self._ev_zero and self._od_zero

    def __neg__(self) -> "RV":
        return RV(self.ring, -self.ev, -self.od)

    def __add__(self, other: "RV") -> "RV":
        return RV(self.ring, self.ev + other.ev, self.od + other.od)

    def __sub__(self, other: "RV") -> "RV":
        return RV(self.ring, self.ev - other.ev, self.od - other.od)

    def __mul__(self, other) -> "RV":
        if isinstance(other, (int, Fraction)) or isinstance(other, Scalar):
            return RV(self.ring, self.ev * other, self.od * other)
        if self.is_zero() or other.is_zero():
            return self.ring.zero
        r = self.ring
        ev = self.ev * other.ev
        if not (self._od_zero or other._od_zero):
            ev = ev + (self.od * other.od) * r.x
        od = r.zero_jet
        if not (self._ev_zero or other._od_zero):
            od = od + self.ev * other.od
        if not (self._od_zero or other._ev_zero):
            od = od + self.od * other.ev
        return RV(r, ev, od)

    __rmul__ = __mul__

    def inverse(self) -> "RV":
        # (e + o s)^-1 = (e - o s) / (e^2 - o^2 x)
        den = self.ev * self.ev - (self.od * self.od) * self.ring.x
        inv = self.ring.one_jet / den
        return RV(self.ring, self.ev * inv, -(self.od * inv))

    def __truediv__(self, other: "RV") -> "RV":
        return self * other.inverse()

    def even_jet(self, what: str = "invariant") -> Jet:
        if not self._od_zero:
            raise ArithmeticError(f"{what} has a nonvanishing odd-in-s part")
        return self.ev

    def full_value(self, s: Scalar) -> Scalar:
        """even(x0) + odd(x0) * s; may require a ball backend for irrational s."""
        v = self.ev.value()
        if self._od_zero:
            return v
        return v + self.od.value() * s


# -- symbolic mixed partials of Phi = f(|z|^2) -----------------------------

TermKey = tuple[int, tuple[int, ...], tuple[int, ...]]  # (k, a, b)


def _diff_terms(terms: Mapping[TermKey, Fraction], var: int, barred: bool, n: int):
    out: dict[TermKey, Fraction] = {}

    def bump(key: TermKey, c: Fraction):
        out[key] = out.get(key, Fraction(0)) + c

    for (k, a, b), c in terms.items():
        if barred:
            # d/dzbar_var: f^(k) -> f^(k+1) * z_var ; power rule on zbar
            bump((k + 1, _inc(a, var), b), c)
            if b[var]:
                bump((k, a, _dec(b, var)), c * b[var])
        else:
            bump((k + 1, a, _inc(b, var)), c)
            if a[var]:
                bump((k, _dec(a, var), b), c * a[var])
    return out


def _inc(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    return t[:i] + (t[i] + 1,) + t[i + 1 :]


def _dec(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    return t[:i] + (t[i] - 1,) + t[i + 1 :]


class PhiPartialTable:
    """Evaluated mixed partials d^alpha dbar^beta U at (s, 0, ..., 0) as RVs, for
    a radial function U(z) = u(|z|^2) given by the jet du of u' at x0 = s^2.

    The frame builds one for the potential (u = f) and one for log det g; both
    live on the frame's ring. du must have order ring jet order + max_order - 1.
    """

    def __init__(self, du: Jet, n: int, max_order: int, ring: RadialRing):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        jet_order = ring.x.order
        need = jet_order + max(max_order - 1, 0)
        if du.order < need:
            raise ValueError(
                f"partials to total order {max_order} over jets of order {jet_order} "
                f"need a u' jet of order {need}, got {du.order}"
            )
        self.n = n
        self.max_order = max_order
        self.ring = ring
        self.du = du
        u0 = du.truncate(max(jet_order - 1, 0)).antiderive(0)
        uderiv = [u0.truncate(jet_order), du.truncate(jet_order)]
        d = du
        for _ in range(2, max_order + 1):
            d = d.derive()
            uderiv.append(d.truncate(jet_order))
        self._uderiv = uderiv
        self._sym: dict[tuple, Mapping[TermKey, Fraction]] = {}
        self._val: dict[tuple, RV] = {}

    def _terms(self, alpha: tuple[int, ...], beta: tuple[int, ...]):
        key = (alpha, beta)
        cached = self._sym.get(key)
        if cached is not None:
            return cached
        if not any(alpha) and not any(beta):
            z = (0,) * self.n
            terms: Mapping[TermKey, Fraction] = {(0, z, z): Fraction(1)}
        else:
            for i, e in enumerate(alpha):
                if e:
                    prev = self._terms(_dec(alpha, i), beta)
                    terms = _diff_terms(prev, i, False, self.n)
                    break
            else:
                for i, e in enumerate(beta):
                    if e:
                        prev = self._terms(alpha, _dec(beta, i))
                        terms = _diff_terms(prev, i, True, self.n)
                        break
        self._sym[key] = terms
        return terms

    def partial(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> RV:
        key = (alpha, beta)
        cached = self._val.get(key)
        if cached is not None:
            return cached
        total = sum(alpha) + sum(beta)
        if total > self.max_order:
            raise ValueError(
                f"table built to total order {self.max_order}, requested {total}"
            )
        ev = self.ring.zero_jet
        od = self.ring.zero_jet
        for (k, a, b), c in self._terms(alpha, beta).items():
            if any(a[i] or b[i] for i in range(1, self.n)):
                continue  # vanishes at z_i = 0, i >= 2
            m = a[0] + b[0]
            contrib = self._uderiv[k] * c
            if m // 2:
                contrib = contrib * self.ring.x_power(m // 2)
            if m % 2:
                od = od + contrib
            else:
                ev = ev + contrib
        rv = RV(self.ring, ev, od)
        self._val[key] = rv
        return rv


# -- the tensor frame --------------------------------------------------------


def _e(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


@dataclass
class RadialTensorFrame:
    fam: PotentialFamily
    n: int
    x0: Scalar
    s: Scalar | None
    jet_order: int
    ring: RadialRing
    table: PhiPartialTable
    g: list  # metric entries as RVs, diagonal at radial points
    ginv: list
    gamma: list  # gamma[p][k][i]
    R: list  # R[i][j][k][l] ~ R_{i j̄ k l̄}
    ric: list | None = None
    ric_cov1: list | None = None  # Ric_{ij̄,k}
    ric_cov2: list | None = None  # Ric_{ij̄,kl̄}
    rho: RV | None = None

    def ensure_ricci(self) -> None:
        if self.ric is None:
            _attach_ricci(self)

    def curvature_symmetry_violations(self) -> list[tuple]:
        """Index tuples violating R_{ij̄kl̄} = R_{kj̄il̄} = R_{il̄kj̄}."""
        bad = []
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        a = self.R[i][j][k][l]
                        for other in (self.R[k][j][i][l], self.R[i][l][k][j]):
                            if not (a - other).is_zero():
                                bad.append((i, j, k, l))
        return bad


def build_frame(
    fam: PotentialFamily,
    n: int,
    s: ScalarLike,
    jet_order: int = 0,
    *,
    with_ricci: bool = True,
) -> RadialTensorFrame:
    s = as_scalar(s)
    if s.sign() == Sign.ZERO:
        raise DomainError("radial point needs s != 0")
    frame = frame_at_x(fam, n, s * s, jet_order, with_ricci=with_ricci)
    frame.s = s
    return frame


def frame_at_x(
    fam: PotentialFamily,
    n: int,
    x0: ScalarLike,
    jet_order: int = 0,
    *,
    with_ricci: bool = True,
) -> RadialTensorFrame:
    x0 = as_scalar(x0)
    ring = RadialRing(Jet.variable(x0, jet_order))
    # one order above what the Phi table needs: the Ricci block reads f'' off it
    fp = fprime_jet(fam, x0, jet_order + TABLE_ORDER)
    table = PhiPartialTable(fp, n, TABLE_ORDER, ring)
    e = lambda i: _e(n, i)

    g = [[table.partial(e(i), e(j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and not g[i][j].is_zero():
                raise ArithmeticError("radial metric must be diagonal at a radial point")
        if g[i][i].ev.value().require_sign("metric diagonal") != Sign.POSITIVE:
            raise DomainError("singular metric: a diagonal entry is not certified positive")
    ginv = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        ginv[i][i] = g[i][i].inverse()

    # Christoffels: Gamma^p_{ki} = g^{pq̄} d_k g_{iq̄}
    gamma = [
        [
            [
                _sum(
                    ring,
                    (
                        ginv[p][q] * table.partial(_add(e(i), e(k)), e(q))
                        for q in range(n)
                        if not ginv[p][q].is_zero()
                    ),
                )
                for i in range(n)
            ]
            for k in range(n)
        ]
        for p in range(n)
    ]

    # curvature: R_{ij̄kl̄} = d^2 g_{il̄}/dz_k dz̄_j - g^{pq̄} (d_k g_{ip̄})(dbar_j g_{ql̄})
    R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = _add(e(i), e(k))
            for j in range(n):
                for l in range(n):
                    acc = table.partial(aik, _add(e(j), e(l)))
                    for p in range(n):
                        for q in range(n):
                            if ginv[p][q].is_zero():
                                continue
                            b = table.partial(aik, e(p))
                            if b.is_zero():
                                continue
                            c = table.partial(e(q), _add(e(l), e(j)))
                            if c.is_zero():
                                continue
                            acc = acc - ginv[p][q] * b * c
                    R[i][j][k][l] = acc

    frame = RadialTensorFrame(
        fam=fam, n=n, x0=x0, s=None, jet_order=jet_order,
        ring=ring, table=table, g=g, ginv=ginv, gamma=gamma, R=R,
    )
    if with_ricci:
        _attach_ricci(frame)
    return frame


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _sum(ring: RadialRing, items) -> RV:
    acc = ring.zero
    for v in items:
        acc = acc + v
    return acc


def _attach_ricci(frame: RadialTensorFrame) -> None:
    n, ring, table = frame.n, frame.ring, frame.table
    e = lambda i: _e(n, i)

    # Ric_{ij̄} = -d_i dbar_j U for the radial U = u(|z|^2), u = log det g, so
    # Ric and its plain derivatives are partials of U; u' = (det g)' / det g
    det = det_jet_from_fprime(table.du, n)
    U = PhiPartialTable(det.derive() / det.truncate(det.order - 1), n, 4, ring)
    ric = [[-U.partial(e(i), e(j)) for j in range(n)] for i in range(n)]
    dric = [
        [[-U.partial(_add(e(i), e(k)), e(j)) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]  # dric[k][i][j] = d_k Ric_{ij̄}
    dric_bar = [
        [[-U.partial(e(i), _add(e(j), e(l))) for j in range(n)] for i in range(n)]
        for l in range(n)
    ]  # dric_bar[l][i][j] = dbar_l Ric_{ij̄}
    ddric = [
        [
            [[-U.partial(_add(e(i), e(k)), _add(e(j), e(l))) for l in range(n)] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]  # ddric[i][j][k][l] = dbar_l d_k Ric_{ij̄}

    ginv, gamma = frame.ginv, frame.gamma
    # dbar_l g^{pq̄} = - g^{pb̄} (dbar_l g_{ab̄}) g^{aq̄}
    dginv_bar = [
        [
            [
                -_sum(
                    ring,
                    (
                        ginv[p][b] * table.partial(e(a), _add(e(b), e(l))) * ginv[a][q]
                        for a in range(n)
                        for b in range(n)
                        if not (ginv[p][b].is_zero() or ginv[a][q].is_zero())
                    ),
                )
                for q in range(n)
            ]
            for p in range(n)
        ]
        for l in range(n)
    ]
    # dbar_l Gamma^p_{ki}
    dgamma_bar = [
        [
            [
                [
                    _sum(
                        ring,
                        (
                            dginv_bar[l][p][q] * table.partial(_add(e(i), e(k)), e(q))
                            + ginv[p][q] * table.partial(_add(e(i), e(k)), _add(e(q), e(l)))
                            for q in range(n)
                        ),
                    )
                    for i in range(n)
                ]
                for k in range(n)
            ]
            for p in range(n)
        ]
        for l in range(n)
    ]

    ric_cov1 = [
        [
            [
                dric[k][i][j]
                - _sum(
                    ring,
                    (
                        ric[p][j] * gamma[p][k][i]
                        for p in range(n)
                        if not ric[p][j].is_zero()
                    ),
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]  # ric_cov1[i][j][k] = Ric_{ij̄,k}

    ric_cov2 = [
        [
            [
                [
                    ddric[i][j][k][l]
                    + _sum(
                        ring,
                        (
                            gamma[q][k][i] * gamma[p][l][j] * ric[q][p]
                            for q in range(n)
                            for p in range(n)
                            if not ric[q][p].is_zero()
                        ),
                    )
                    - _sum(
                        ring,
                        (
                            gamma[p][k][i] * dric_bar[l][p][j]
                            for p in range(n)
                            if not gamma[p][k][i].is_zero()
                        ),
                    )
                    - _sum(
                        ring,
                        (
                            dgamma_bar[l][p][k][i] * ric[p][j]
                            for p in range(n)
                            if not ric[p][j].is_zero()
                        ),
                    )
                    - _sum(
                        ring,
                        (
                            gamma[p][l][j] * dric[k][i][p]
                            for p in range(n)
                            if not gamma[p][l][j].is_zero()
                        ),
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]  # ric_cov2[i][j][k][l] = Ric_{ij̄,kl̄}

    rho = _sum(
        ring,
        (
            ginv[j][i] * ric[i][j]
            for i in range(n)
            for j in range(n)
            if not ginv[j][i].is_zero()
        ),
    ) * 2

    frame.ric = ric
    frame.ric_cov1 = ric_cov1
    frame.ric_cov2 = ric_cov2
    frame.rho = rho


def _nabla_R(frame: RadialTensorFrame) -> list:
    """R_{ij̄kl̄,p} = d_p R_{ij̄kl̄} - Gamma^q_{pi} R_{qj̄kl̄} - Gamma^q_{pk} R_{ij̄ql̄}."""
    n, ring, table = frame.n, frame.ring, frame.table
    ginv, gamma, R = frame.ginv, frame.gamma, frame.R
    e = lambda i: _e(n, i)
    dginv = [
        [
            [
                -_sum(
                    ring,
                    (
                        ginv[p][b] * table.partial(_add(e(a), e(m)), e(b)) * ginv[a][q]
                        for a in range(n)
                        for b in range(n)
                        if not (ginv[p][b].is_zero() or ginv[a][q].is_zero())
                    ),
                )
                for q in range(n)
            ]
            for p in range(n)
        ]
        for m in range(n)
    ]
    out = [[[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for i in range(n):
            for k in range(n):
                aik = _add(e(i), e(k))
                aikm = _add(aik, e(m))
                for j in range(n):
                    for l in range(n):
                        dlj = _add(e(l), e(j))
                        acc = table.partial(aikm, dlj)
                        for p in range(n):
                            bp = table.partial(aik, e(p))
                            dbp = table.partial(aikm, e(p))
                            for q in range(n):
                                cq = table.partial(e(q), dlj)
                                dcq = table.partial(_add(e(q), e(m)), dlj)
                                if not dginv[m][p][q].is_zero():
                                    acc = acc - dginv[m][p][q] * bp * cq
                                if not ginv[p][q].is_zero():
                                    acc = acc - ginv[p][q] * (dbp * cq + bp * dcq)
                        for q in range(n):
                            if not gamma[q][m][i].is_zero():
                                acc = acc - gamma[q][m][i] * R[q][j][k][l]
                            if not gamma[q][m][k].is_zero():
                                acc = acc - gamma[q][m][k] * R[i][j][q][l]
                        out[m][i][j][k][l] = acc
    return out


# -- invariants and the Lu report -------------------------------------------


def _norm2_R(frame: RadialTensorFrame) -> RV:
    """|R|^2 = sum of g^{iī} g^{jj̄} g^{kk̄} g^{ll̄} R_{ij̄kl̄}^2 (g^-1 is diagonal)."""
    n, R = frame.n, frame.R
    gi = [frame.ginv[i][i] for i in range(n)]
    acc = frame.ring.zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = R[i][j][k][l]
                    if v.is_zero():
                        continue
                    acc = acc + gi[i] * gi[j] * gi[k] * gi[l] * v * v
    return acc


def invariants_from_frame(frame: RadialTensorFrame) -> dict[str, Jet]:
    """All contraction invariants of the TYZ coefficient formulas, as jets in x
    (no Laplacian-of-invariant fields).

    The inverse metric is diagonal at radial points (asserted at build time),
    so contractions run over the free tensor indices with diagonal weights.
    """
    frame.ensure_ricci()
    n, ring = frame.n, frame.ring
    gi = [frame.ginv[i][i] for i in range(n)]
    R, ric, rho = frame.R, frame.ric, frame.rho

    def quad_weight(i, j, k, l):
        return gi[i] * gi[j] * gi[k] * gi[l]

    r2 = _norm2_R(frame)

    ric2 = ring.zero
    for i in range(n):
        for j in range(n):
            v = ric[i][j]
            if v.is_zero():
                continue
            ric2 = ric2 + gi[i] * gi[j] * v * v

    sigma3 = ring.zero
    for i in range(n):
        for j in range(n):
            if ric[i][j].is_zero():
                continue
            for k in range(n):
                term = ric[i][j] * ric[j][k] * ric[k][i]
                if term.is_zero():
                    continue
                sigma3 = sigma3 + gi[i] * gi[j] * gi[k] * term

    r_ric_ric = ring.zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if R[i][j][k][l].is_zero() or ric[j][i].is_zero() or ric[l][k].is_zero():
                        continue
                    r_ric_ric = r_ric_ric + quad_weight(i, j, k, l) * (
                        R[i][j][k][l] * ric[j][i] * ric[l][k]
                    )

    ric_r_r = ring.zero
    for i in range(n):
        for j in range(n):
            if ric[i][j].is_zero():
                continue
            for k in range(n):
                for p in range(n):
                    for q in range(n):
                        t1 = R[j][k][p][q]
                        t2 = R[k][i][q][p]
                        if t1.is_zero() or t2.is_zero():
                            continue
                        ric_r_r = ric_r_r + (
                            gi[i] * gi[j] * gi[k] * gi[p] * gi[q] * ric[i][j] * t1 * t2
                        )

    dric2 = ring.zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = frame.ric_cov1[i][j][k]
                if v.is_zero():
                    continue
                dric2 = dric2 + gi[i] * gi[j] * gi[k] * v * v

    nabla = _nabla_R(frame)
    dr2 = ring.zero
    for p in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        v = nabla[p][i][j][k][l]
                        if v.is_zero():
                            continue
                        dr2 = dr2 + (
                            gi[i] * gi[j] * gi[k] * gi[l] * gi[p] * v * v
                        )

    # radial-function derivatives of rho; these genuinely need x-jets
    if frame.jet_order < 2:
        raise ValueError(
            "invariants_from_frame needs jet_order >= 2 for |D'rho|^2 and the "
            "rho Hessian; build the frame over jets in x"
        )
    rho_jet = rho.even_jet("scalar curvature")
    rho_x = rho_jet.derive()
    drho = ring.odd(rho_x)
    drho2 = gi[0] * drho * drho
    # complex Hessian of a radial function: u'' zbar_a z_b + u' delta_ab
    rho_xx = rho_x.derive()
    hess = [[ring.zero] * n for _ in range(n)]
    hess[0][0] = ring.even(rho_xx * ring.x.truncate(rho_xx.order) + rho_x.truncate(rho_xx.order))
    for i in range(1, n):
        hess[i][i] = ring.even(rho_x)
    ric_hess = ring.zero
    for i in range(n):
        for j in range(n):
            if ric[i][j].is_zero() or hess[j][i].is_zero():
                continue
            ric_hess = ric_hess + gi[i] * gi[j] * ric[i][j] * hess[j][i]

    ric_cov2_r = ring.zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a = frame.ric_cov2[i][j][k][l]
                    b = R[j][i][l][k]
                    if a.is_zero() or b.is_zero():
                        continue
                    ric_cov2_r = ric_cov2_r + quad_weight(i, j, k, l) * a * b

    names = {
        "rho": rho,
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
    return {k: v.even_jet(k) for k, v in names.items()}


def radial_laplacian_jet(u: Jet, fam: PotentialFamily, n: int) -> Jet:
    """Delta u as a jet of order u.order - 2 (radial Laplacian formula)."""
    if u.order < 2:
        raise ValueError("radial Laplacian needs a jet of order >= 2")
    x0 = u.x0
    du = u.derive()
    ddu = du.derive()
    fp = fprime_jet(fam, x0, u.order - 1)
    fpp = fp.derive()
    x = Jet.variable(x0, u.order - 2)
    g11 = fp + x * fpp  # g_{11̄}; certified positive for admissible families
    return (du + ddu * x) / g11 + (du * (n - 1)) / fp


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

    FIELD_ORDER = (
        "a1", "a2", "a3", "rho", "R2", "Ric2", "DRho2", "DRic2", "DR2",
        "sigma3Ric", "RRicRic", "RicRR", "divdivRRic", "divdivRhoRic",
        "lapRho", "laplapRho", "lapCombo8",
    )

    def as_dict(self) -> dict[str, Scalar]:
        return {k: getattr(self, k) for k in self.FIELD_ORDER}


def lu_coefficients(
    fam: PotentialFamily,
    n: int,
    x: ScalarLike | None = None,
    s: ScalarLike | None = None,
    jet_order: int = 4,
    *,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> LuReport:
    """a1, a2, a3 and every contraction intermediate at a radial point.

    jet_order >= 4 so that Delta Delta rho closes. The f' jet the engine pulls
    has order jet_order + TABLE_ORDER >= 9: the Phi table needs order
    jet_order + 4, and the f'' in det g one more.
    """
    if jet_order < 4:
        raise ValueError("lu_coefficients needs jet_order >= 4 for the double Laplacian")
    if (x is None) == (s is None):
        raise ValueError("give exactly one of x or s")
    if x is None:
        s = as_scalar(s)
        x = s * s
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=precision_bits)
    frame = frame_at_x(fam, n, x0, jet_order)
    inv = invariants_from_frame(frame)

    rho = inv["rho"]
    lap_rho = radial_laplacian_jet(rho, fam, n)
    laplap_rho = radial_laplacian_jet(lap_rho, fam, n)
    combo8 = inv["R2"] - inv["Ric2"] * 4 + rho * rho * 8
    lap_combo8 = radial_laplacian_jet(combo8, fam, n)

    divdiv_rho_ric = inv["DRho2"] * 2 + inv["ricHessRho"] + rho * lap_rho
    divdiv_r_ric = (
        -inv["ricHessRho"]
        - inv["DRic2"] * 2
        + inv["ricCov2R"]
        - inv["RRicRic"]
        - inv["sigma3Ric"]
    )

    a1 = rho * Fraction(1, 2)
    a2 = lap_rho * Fraction(1, 3) + (inv["R2"] - inv["Ric2"] * 4 + rho * rho * 3) * Fraction(1, 24)
    a3 = (
        laplap_rho * Fraction(1, 8)
        + divdiv_r_ric * Fraction(1, 24)
        - divdiv_rho_ric * Fraction(1, 6)
        + lap_combo8 * Fraction(1, 48)
        + rho * (rho * rho - inv["Ric2"] * 4 + inv["R2"]) * Fraction(1, 48)
        + (inv["sigma3Ric"] - inv["RicRR"] - inv["RRicRic"]) * Fraction(1, 24)
    )

    val = lambda j: j.value()
    return LuReport(
        a1=val(a1), a2=val(a2), a3=val(a3), rho=val(rho),
        R2=val(inv["R2"]), Ric2=val(inv["Ric2"]),
        DRho2=val(inv["DRho2"]), DRic2=val(inv["DRic2"]), DR2=val(inv["DR2"]),
        sigma3Ric=val(inv["sigma3Ric"]), RRicRic=val(inv["RRicRic"]),
        RicRR=val(inv["RicRR"]),
        divdivRRic=val(divdiv_r_ric), divdivRhoRic=val(divdiv_rho_ric),
        lapRho=val(lap_rho), laplapRho=val(laplap_rho), lapCombo8=val(lap_combo8),
    )


def curvature_norm2(
    fam: PotentialFamily,
    n: int,
    x: ScalarLike,
    *,
    jet_order: int = 0,
    exact: bool | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Jet:
    """|R|^2 as a jet in x, without building the Ricci block (fast path)."""
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=precision_bits)
    frame = frame_at_x(fam, n, x0, jet_order, with_ricci=False)
    return _norm2_R(frame).even_jet("|R|^2")


def closed_forms_eps(n: int, eps: int, x: ScalarLike, lam: Fraction = Fraction(1)) -> dict[str, Scalar]:
    """Displayed closed forms for the Ricci-flat family at lam = 1:

    R2 = n(n-1)(n+1)(n+2) eps^2 (x^n + eps)^(-2(n+1)/n)
    a3_proportional = 2n(n-1)(n+2)(n+1)^2 eps^2 (x^n+eps)^(-3(n+1)/n) (x^n(n+3) - n eps)
    """
    if Fraction(lam) != 1:
        raise ValueError("the displayed closed forms are stated for lambda = 1")
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
