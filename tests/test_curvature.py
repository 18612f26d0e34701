import dataclasses
import gc
import itertools
import time
from fractions import Fraction as F

import pytest
import sympy as sp
from sympy.combinatorics import Permutation
from hypothesis import given, settings
from hypothesis import strategies as st

from radialtyz import curvature
from radialtyz.curvature import (
    LuReport,
    PhiPartialTable,
    RadialRing,
    closed_forms_eps,
    curvature_norm2,
    frame_at_x,
    invariants_from_frame,
    lu_coefficients,
    radial_laplacian_jet,
)
from radialtyz.jets import Jet
from radialtyz.potentials import (
    CustomPotential,
    EguchiHanson,
    EpsilonFamily,
    Simanca,
    fprime_jet,
    prepare_point,
    ricci_flat_residual,
)
from radialtyz.scalars import DomainError, Sign, abs_le, as_scalar, nth_root

from helpers import (
    assert_exact_zero,
    assert_within,
    count_fprime_calls,
    scalars_digest,
)


def test_mixed_partials_metric_entries():
    fam = EpsilonFamily(1, F(1), 2)
    s = as_scalar(F(1, 2))
    fp = fprime_jet(fam, F(1, 4), 1)
    table = PhiPartialTable(fp, 2, RadialRing(Jet.variable(F(1, 4), 0)))
    want_11 = fp.coeffs[0] + fp.coeffs[1] * F(1, 4)  # f' + f'' x
    assert (table.partial((0,), (0,)).full_value(s) - want_11).sign() == Sign.ZERO
    assert (table.partial((1,), (1,)).full_value(s) - fp.coeffs[0]).sign() == Sign.ZERO


def test_mixed_partial_flat_fourth_order():
    s = as_scalar(F(2, 3))
    fp = fprime_jet(EpsilonFamily(0, F(1), 2), s * s, 3)
    table = PhiPartialTable(fp, 4, RadialRing(Jet.variable(s * s, 0)))
    assert_exact_zero(table.partial((0, 1), (0, 1)).full_value(s), "flat 4th mixed partial")
    with pytest.raises(ValueError, match="total order 4"):
        table.partial((0, 0, 0), (0, 0))


def test_phi_partial_transposes_share_one_entry():
    # the closed formula is symmetric in (hol, anti), so the table keeps one
    # entry per unordered pair; a transpose computed first on a fresh table has
    # the same ball endpoints, and a reordered index tuple is the same entry
    x0 = prepare_point(Simanca(), as_scalar(F(9, 4)), exact=False, precision_bits=64)
    ring = RadialRing(Jet.variable(x0, 2))
    fp = fprime_jet(Simanca(), x0, 6)
    table, fresh = PhiPartialTable(fp, 4, ring), PhiPartialTable(fp, 4, ring)
    idx = [t for r in range(3) for t in itertools.product(range(2), repeat=r)]
    for a, b in itertools.product(idx, repeat=2):
        v = table.partial(a, b)
        assert table.partial(b, a) is v
        assert table.partial(a[::-1], b[::-1]) is v
        w = fresh.partial(b, a)
        assert v.odd == w.odd
        assert scalars_digest(v.jet.coeffs) == scalars_digest(w.jet.coeffs)


def test_phi_partials_match_sympy():
    # Simanca f = x + log x at n = 3, s = 3/2: every mixed partial of
    # f(sum z_i w_i), w_i standing for zbar_i, up to total order 4, zeros included
    n, s = 3, F(3, 2)
    ring = RadialRing(Jet.variable(s * s, 0))
    table = PhiPartialTable(fprime_jet(Simanca(), s * s, 3), 4, ring)
    z, w = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"w1:{n + 1}")
    x = sum(zi * wi for zi, wi in zip(z, w))
    phi = x + sp.log(x)
    at = {v: (sp.Rational(s.numerator, s.denominator) if i == 0 else 0)
          for vs in (z, w) for i, v in enumerate(vs)}
    cases = 0
    for total in range(1, 5):
        for exps in itertools.product(range(total + 1), repeat=2 * n):
            if sum(exps) != total:
                continue
            # the indices differentiated in z and in zbar, each as often as
            # its exponent says
            hol = tuple(i for i, k in enumerate(exps[:n]) for _ in range(k))
            anti = tuple(i for i, k in enumerate(exps[n:]) for _ in range(k))
            d = phi.diff(*[(v, k) for v, k in zip(z + w, exps) if k])
            want = sp.Rational(d.subs(at))
            got = table.partial(hol, anti).full_value(as_scalar(s))
            assert_exact_zero(got - F(int(want.p), int(want.q)), f"partial {hol}, {anti}")
            cases += 1
    assert cases == 209


def test_frame_rejects_origin():
    with pytest.raises(DomainError, match="x > 0"):
        lu_coefficients(Simanca(), 2, x=0)


def test_eps_family_curvature_components():
    # displayed: R_iiii = 2 R_iijj = 2 f'' (i, j >= 2), and the R_11ii entry
    fam = EpsilonFamily(1, F(1), 2)
    x = F(3, 4)
    fr = frame_at_x(fam, 3, x, 0)
    fp = fprime_jet(fam, x, 3)
    f1, f2, f3 = fp.coeffs[0], fp.derive().coeffs[0], fp.derive().derive().coeffs[0]
    # R_2222 = 2 f''
    assert (fr.R[1][1][1][1].jet.value() - f2 * 2).sign() == Sign.ZERO
    # R_2233 = f''
    assert (fr.R[1][1][2][2].jet.value() - f2).sign() == Sign.ZERO
    # R_1122 = f'' + f''' x - (f'')^2 x / f'
    want = f2 + f3 * x - f2 * f2 * F(3, 4) / f1
    assert (fr.R[0][0][1][1].jet.value() - want).sign() == Sign.ZERO


@pytest.mark.parametrize("fam, fprime, n, s", [
    (Simanca(), lambda x: 1 + 1 / x, 2, sp.Rational(3, 2)),
    (Simanca(), lambda x: 1 + 1 / x, 3, sp.Rational(3, 2)),
    (EpsilonFamily(1, F(1), 2), lambda x: sp.sqrt(x**-2 + 1), 2, sp.sqrt(3) / 2),  # f' = 5/3
], ids=["simanca-n2", "simanca-n3", "eps+1-n2"])
def test_curvature_matches_sympy(fam, fprime, n, s):
    # every R_{ij̄kl̄} and Ric_{ij̄} at (s, 0, ..., 0), and rho, against sympy:
    # g_{ij̄} = f' delta_ij + f'' zbar_i z_j (w stands for zbar), differentiated
    # with the module docstring's sign conventions; R and Ric have no odd part
    # at a radial point
    z, w = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"w1:{n + 1}")
    t = sp.Symbol("t")
    x = sum(a * b for a, b in zip(z, w))
    f1, f2 = (d.subs(t, x) for d in (fprime(t), sp.diff(fprime(t), t)))
    g = [[(f1 if i == j else 0) + f2 * w[i] * z[j] for j in range(n)] for i in range(n)]
    at = {v: (s if i == 0 else 0) for vs in (z, w) for i, v in enumerate(vs)}
    ginv = sp.Matrix(n, n, lambda i, j: g[i][j].subs(at)).inv()
    dz = [[[sp.diff(g[i][p], z[k]).subs(at) for p in range(n)] for k in range(n)] for i in range(n)]
    dw = [[[sp.diff(g[q][l], w[j]).subs(at) for l in range(n)] for j in range(n)] for q in range(n)]
    x0 = s * s
    fr = frame_at_x(fam, n, F(int(x0.p), int(x0.q)), 0)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        want = sp.diff(g[i][l], z[k], w[j]).subs(at) - sum(
            ginv[p, q] * dz[i][k][p] * dw[q][j][l] for p in range(n) for q in range(n))
        want = sp.nsimplify(sp.simplify(want))
        assert want.is_Rational, (i, j, k, l, want)
        got = fr.R[i][j][k][l]
        assert not got.odd, f"R{i}{j}{k}{l} is odd in s"
        assert_exact_zero(got.jet.value() - F(int(want.p), int(want.q)), f"R{i}{j}{k}{l}")
    # Ric_{ij̄} = -d_i dbar_j log det g, and rho = g^{jī} Ric_{ij̄}; det g by
    # Leibniz's formula (Matrix.det simplifies as it goes, for minutes at n = 3),
    # with every variable but z_i and w_j set to its value before differentiating
    det = sum(Permutation(list(p)).signature() * sp.prod(g[i][p[i]] for i in range(n))
              for p in itertools.permutations(range(n)))

    def ric_entry(i, j):
        rest = {v: c for v, c in at.items() if v not in (z[i], w[j])}
        return sp.nsimplify(sp.simplify(-sp.diff(sp.log(det.subs(rest)), z[i], w[j]).subs(at)))

    ric = sp.Matrix(n, n, ric_entry)
    for i, j in itertools.product(range(n), repeat=2):
        want, got = ric[i, j], fr.ric[i][j]
        assert want.is_Rational and not got.odd, (i, j, want)
        assert_exact_zero(got.jet.value() - F(int(want.p), int(want.q)), f"Ric{i}{j}")
    rho = sp.nsimplify(sp.simplify((ginv * ric).trace()))
    assert_exact_zero(invariants_from_frame(fr)["rho"].value() - F(int(rho.p), int(rho.q)), "rho")
    # Delta u = g^{jī} d_i dbar_j u on the whole function u(sum z_k w_k),
    # against the radial Laplacian of the jet of u' on the frame's inverses
    xj = Jet.variable(fr.ring.x.x0, 1)
    for u, du in ((t**2, xj * 2), (t**3, xj * xj * 3), (sp.log(t), 1 / xj)):
        ux = u.subs(t, x)
        want = sp.nsimplify(sp.simplify(sum(
            ginv[j, i] * sp.diff(ux, z[i], w[j]).subs(at)
            for i in range(n) for j in range(n))))
        assert want.is_Rational, (u, want)
        got = radial_laplacian_jet(du, fr.ginv, n).value()
        assert_exact_zero(got - F(int(want.p), int(want.q)), f"Delta {u}")


# f' Taylor data at x0 = 1/2, enough for frames over jets of order 2; its
# det g is not constant, so its Ricci tensor is not zero
CUSTOM = CustomPotential.make(
    F(1, 2), [F(2), F(1), F(-1, 3), F(1, 5), F(0), F(1, 7), F(-1), F(1, 2)]
)


def test_ricci_consistency_contraction():
    # Ric from -dd̄ log det g equals minus the g-contraction of R entry-wise,
    # in every coefficient of the x-jets
    for fam, n, x in (
        (Simanca(), 2, F(1)),
        (EguchiHanson(), 2, F(3, 4)),
        (EpsilonFamily(-1, F(3, 2), 3), 3, F(3, 2)),
        (CUSTOM, 2, F(1, 2)),
    ):
        fr = frame_at_x(fam, n, x, 2)
        gi = [fr.gi[i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                contr = fr.ring.zero
                for k in range(n):
                    contr = contr + gi[k] * fr.R[i][j][k][k]
                diff = fr.ric[i][j] + contr
                assert diff.is_zero(), (i, j)


def test_transverse_ricci_is_minus_log_det_derivative():
    # Ric_{kk̄} = -(log det g)' for k >= 2: the curvature frame against the
    # residual the potentials module reports. The eps family built for n = 2
    # and framed at n = 3 is not Ricci-flat there.
    for fam, n, x in (
        (EpsilonFamily(1, F(1), 2), 2, F(3, 4)),
        (EpsilonFamily(1, F(1), 2), 3, F(3, 4)),
        (EpsilonFamily(-1, F(3, 2), 3), 3, F(3, 2)),
        (EpsilonFamily(0, F(2), 3), 3, F(5, 4)),
        (Simanca(), 2, F(2)),
        (EguchiHanson(), 2, F(3, 4)),
        (CUSTOM, 2, F(1, 2)),
    ):
        fr = frame_at_x(fam, n, x, 0)
        (residual,) = ricci_flat_residual(fam, [x], n=n)
        for k in range(1, n):
            assert not fr.ric[k][k].odd
            assert_exact_zero(fr.ric[k][k].jet.value() + residual, f"Ric_{k}{k} {fam} n={n}")


def _ricci_block_text(fr) -> dict:
    """Every non-zero jet of ric, ric_cov1 and ric_cov2, as text, keyed by its
    parity in s ("ev" or "od")."""
    out = {}
    for name, rank in (("ric", 2), ("ric_cov1", 3), ("ric_cov2", 4)):
        for idx in itertools.product(range(fr.n), repeat=rank):
            rv = getattr(fr, name)
            for i in idx:
                rv = rv[i]
            text = [c.text() for c in rv.jet.coeffs]
            if any(t != "0" for t in text):
                out[(name, *idx, "od" if rv.odd else "ev")] = text
    return out


SIMANCA_RICCI_X2 = {
    ("ric", 0, 0, "ev"): ["-1/9", "2/27", "-1/27"],
    ("ric", 1, 1, "ev"): ["1/6", "-5/36", "19/216"],
    ("ric_cov1", 0, 0, 0, "od"): ["2/27", "-2/27", "4/81"],
    ("ric_cov1", 0, 1, 1, "od"): ["-1/9", "7/54", "-11/108"],
    ("ric_cov1", 1, 1, 0, "od"): ["-1/9", "7/54", "-11/108"],
    ("ric_cov2", 0, 0, 0, 0, "ev"): ["-2/27", "4/81", "-4/243"],
    ("ric_cov2", 0, 0, 1, 1, "ev"): ["4/27", "-4/27", "8/81"],
    ("ric_cov2", 0, 1, 1, 0, "ev"): ["1/9", "-5/54", "5/108"],
    ("ric_cov2", 1, 0, 0, 1, "ev"): ["4/27", "-4/27", "8/81"],
    ("ric_cov2", 1, 1, 0, 0, "ev"): ["1/9", "-5/54", "5/108"],
    ("ric_cov2", 1, 1, 1, 1, "ev"): ["-2/9", "7/27", "-11/54"],
}

CUSTOM_RICCI = {
    ("ric", 0, 0, "ev"): ["-671/1800", "739/1080", "-19073069/3780000"],
    ("ric", 1, 1, "ev"): ["-7/6", "1429/900", "-13453/5400"],
    ("ric_cov1", 0, 0, 0, "od"): ["1679/1800", "-20642917/1890000", "102912727/2835000"],
    ("ric_cov1", 0, 1, 1, "od"): ["977/450", "-8717/1350", "2461901/315000"],
    ("ric_cov1", 1, 1, 0, "od"): ["977/450", "-8717/1350", "2461901/315000"],
    ("ric_cov2", 0, 0, 0, 0, "ev"): ["-6097439/1260000", "101741147/5670000", "24232244881/68040000"],
    ("ric_cov2", 0, 0, 1, 1, "ev"): ["-1603/900", "-1040507/315000", "26847719/945000"],
    ("ric_cov2", 0, 1, 1, 0, "ev"): ["-8641/5400", "-7440119/1890000", "1869187/63000"],
    ("ric_cov2", 1, 0, 0, 1, "ev"): ["-1603/900", "-1040507/315000", "26847719/945000"],
    ("ric_cov2", 1, 1, 0, 0, "ev"): ["-8641/5400", "-7440119/1890000", "1869187/63000"],
    ("ric_cov2", 1, 1, 1, 1, "ev"): ["977/225", "-8717/675", "2461901/157500"],
}


def test_ricci_block_pinned_exact():
    # exact Taylor coefficients of Ric, Ric_{ij̄,k} and Ric_{ij̄,kl̄} over jets
    # of order 2; every entry not listed is exactly zero
    assert _ricci_block_text(frame_at_x(Simanca(), 2, F(2), 2)) == SIMANCA_RICCI_X2
    assert _ricci_block_text(frame_at_x(CUSTOM, 2, F(1, 2), 2)) == CUSTOM_RICCI


def test_tensor_symmetry_classes_share_one_entry():
    # each index tuple of a symmetry class holds its representative's RV, the
    # same object, on a 64-bit ball frame and on its order-0 value frame
    n = 3
    fam = EpsilonFamily(1, F(1), n)
    frame = frame_at_x(fam, n, prepare_point(fam, as_scalar(F(3, 4)), exact=False,
                                             precision_bits=64), 2)
    value = curvature._value_frame(frame)
    nabla = curvature._nabla_R(value)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        (a, c), (b, d) = sorted((i, k)), sorted((j, l))
        for R in (frame.R, value.R):
            assert R[i][j][k][l] is R[a][b][c][d]
        assert frame.ric_cov2[i][j][k][l] is frame.ric_cov2[a][j][c][l]
        assert all(nabla[m][i][j][k][l] is nabla[m][a][b][c][d] for m in range(n))
        assert frame.gamma[j][i][k] is frame.gamma[j][a][c]
        assert frame.ric_cov1[i][j][k] is frame.ric_cov1[a][j][c]
    # U(n-1): z_2 and z_3 enter alike
    table = frame.table
    assert table.partial((1,), (1,)) is table.partial((2,), (2,))
    assert frame.gi[1] is frame.gi[2] and value.gi[1] is value.gi[2]
    # a request beyond the table's order raises, also once its class is cached
    assert table.partial((0,), (2,)).is_zero()
    with pytest.raises(ValueError, match="total order 5, requested 6"):
        table.partial((0, 0, 0), (2, 2, 2))
    # where Ricci is not zero, Ric_{ij̄,kl̄} is not symmetric in (j, l)
    custom = frame_at_x(CUSTOM, 2, F(1, 2), 2)
    assert not (custom.ric_cov2[0][0][1][1] - custom.ric_cov2[0][1][1][0]).is_zero()


def test_eps_family_is_ricci_flat_in_frame():
    for n in (2, 3):
        fr = frame_at_x(EpsilonFamily(1, F(1), n), n, F(1, 2), 0)
        assert all(fr.ric[i][j].is_zero() for i in range(n) for j in range(n))
        assert invariants_from_frame(fr)["rho"].value().sign() == Sign.ZERO


def test_simanca_displayed_components_exact():
    x = F(2)
    fr = frame_at_x(Simanca(), 2, x, 0)
    assert_exact_zero(fr.R[0][0][0][0].jet.value())
    assert (fr.R[0][0][1][1].jet.value() - as_scalar(F(1, 6))).sign() == Sign.ZERO
    assert (fr.R[1][1][1][1].jet.value() - as_scalar(F(-1, 2))).sign() == Sign.ZERO
    assert (fr.ric[0][0].jet.value() - as_scalar(F(-1, 9))).sign() == Sign.ZERO
    assert (fr.ric[1][1].jet.value() - as_scalar(F(1, 6))).sign() == Sign.ZERO
    # Ric_11,1 = 2 zbar_1 / (x+1)^3: odd cofactor 2/27
    c = fr.ric_cov1[0][0][0]
    assert c.odd
    assert (c.jet.value() - as_scalar(F(2, 27))).sign() == Sign.ZERO
    # Ric_22,1 = Ric_12,2 = -2 zbar_1/(x (x+1)^2)
    want = as_scalar(F(-2, 18))
    for rv in (fr.ric_cov1[1][1][0], fr.ric_cov1[0][1][1]):
        assert rv.odd and (rv.jet.value() - want).sign() == Sign.ZERO


def test_flat_frame_everything_zero():
    rep = lu_coefficients(EpsilonFamily(0, F(2), 3), 3, x=F(5, 4))
    for name, v in rep.as_dict().items():
        assert_exact_zero(v, name)


def test_curvature_norm_closed_form_exact_n2():
    for x in (F(1), F(1, 2), F(7, 3)):
        engine = curvature_norm2(EpsilonFamily(1, F(1), 2), 2, x).value()
        closed = closed_forms_eps(2, 1, x)["R2"]
        assert (engine - closed).sign() == Sign.ZERO
    assert closed_forms_eps(2, 1, F(1))["R2"].text() == "3"


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("x", [F(3, 4), F(5, 2)])
def test_exact_report_meets_closed_forms_in_nested_root_extensions(n, x):
    # the engine's values live in Q(c**(1/n)) and the closed forms' in a
    # subfield, such as 337**(1/2) against 337**(1/4) at n = 4, x = 3/4
    rep = lu_coefficients(EpsilonFamily(1, F(1), n), n, x, exact=True)
    closed = closed_forms_eps(n, 1, x)
    assert_exact_zero(rep.R2 - closed["R2"], "R2")
    assert_exact_zero(rep.a3 * 48 - closed["a3_proportional"], "48 a3")


def test_closed_forms_trivial_and_sign():
    out = closed_forms_eps(4, 0, F(2))
    assert out["R2"].text() == "0" and out["a3_proportional"].text() == "0"
    # eps = -1: a3 factor (x^n (n+3) - n eps) > 0 on x > 1, never zero
    for x in (F(2), F(3, 2), F(9)):
        assert closed_forms_eps(3, -1, x)["a3_proportional"].sign() == Sign.POSITIVE


def test_radial_laplacian_examples():
    # the Laplacian reads u': a constant u has u' = 0, and u = x has u' = 1
    fam = EpsilonFamily(1, F(1), 2)
    ginv = frame_at_x(fam, 2, F(2, 3), 0).ginv
    assert radial_laplacian_jet(Jet.constant(F(2, 3), 0, 3), ginv, 2).value().text() == "0"
    flat_ginv = frame_at_x(EpsilonFamily(0, F(1), 2), 2, F(1, 2), 0).ginv
    assert radial_laplacian_jet(Jet.constant(F(1, 2), 1, 1), flat_ginv, 2).value().text() == "2"
    with pytest.raises(ValueError, match="order >= 1"):
        radial_laplacian_jet(Jet.constant(F(1, 2), 1, 0), flat_ginv, 2)
    # an order-0 frame's inverses, of order 2, serve u' jets up to order 3
    with pytest.raises(ValueError, match="needs ginv of order 3"):
        radial_laplacian_jet(Jet.constant(F(1, 2), 1, 4), flat_ginv, 2)


def test_laplacian_of_r2_matches_closed_form():
    fam = EpsilonFamily(1, F(1), 2)
    for x in (F(1), F(2, 5)):
        r2 = curvature_norm2(fam, 2, x, jet_order=2)
        lap = radial_laplacian_jet(r2.derive(), frame_at_x(fam, 2, x, 0).ginv, 2).value()
        closed = closed_forms_eps(2, 1, x)["a3_proportional"]
        assert (lap - closed).sign() == Sign.ZERO


def test_a3_proportional_to_laplacian_r2():
    fam = EpsilonFamily(1, F(1), 2)
    for x in (F(1, 2), F(1), F(2)):
        rep = lu_coefficients(fam, 2, x=x)
        closed = closed_forms_eps(2, 1, x)["a3_proportional"]
        ratio = rep.a3 / closed
        assert ratio.text() == "1/48"


def test_norms_are_nonnegative():
    for fam, n, x in ((EguchiHanson(), 2, F(1)), (Simanca(), 2, F(1, 2))):
        fr = frame_at_x(fam, n, x, 4)
        inv = invariants_from_frame(fr)
        for name in ("R2", "Ric2", "DRho2", "DRic2", "DR2"):
            v = inv[name].value()
            assert v.sign() in (Sign.POSITIVE, Sign.ZERO), name


def test_plus_minus_s_consistency():
    # a value c(x) s^odd at x = s^2: an odd one flips sign with s, an even one
    # does not
    s = as_scalar(F(6, 5))
    fr = frame_at_x(Simanca(), 2, s * s)
    odd, even = fr.ric_cov1[0][0][0], fr.ric[0][0]
    assert (odd.odd, even.odd) == (1, 0)
    assert odd.full_value(s).sign() == Sign.POSITIVE
    assert (odd.full_value(s) + odd.full_value(-s)).sign() == Sign.ZERO
    assert even.full_value(s).sign() == Sign.NEGATIVE
    assert (even.full_value(s) - even.full_value(-s)).sign() == Sign.ZERO


def test_simanca_full_value_at_irrational_s():
    x = F(1, 2)
    xb = as_scalar(x).to_ball(256)
    s = nth_root(xb, 2)
    fr = frame_at_x(Simanca(), 2, xb, 0)
    got = fr.ric_cov1[0][0][0].full_value(s)
    want = s * 2 / ((xb + 1) ** 3)
    assert abs_le(got - want, F(1, 10**30))


# f' = 1/(1+x) (Fubini-Study, f = log(1+x)) as Taylor data at x0 = 1/2: its
# TYZ density is (m+1)...(m+n)/m^n exactly, so a_j = e_j(1, ..., n)
FUBINI_STUDY = CustomPotential.make(F(1, 2), [F((-2) ** k, 3 ** (k + 1)) * 2 for k in range(10)])


@pytest.mark.parametrize("fam, n, x, a", [
    (FUBINI_STUDY, 2, F(1, 2), (3, 2, 0)),
    (FUBINI_STUDY, 3, F(1, 2), (6, 11, 6)),
    (FUBINI_STUDY, 4, F(1, 2), (10, 35, 50)),
    # a fit of Simanca's TYZ density in 1/m, from its monomial sum, gives
    # 0.326530612245, -0.213244481466 and -0.0348154255455
    (Simanca(), 3, F(3, 4), (F(16, 49), F(-512, 2401), F(-4096, 117649))),
], ids=["fubini-study-2", "fubini-study-3", "fubini-study-4", "simanca-3"])
def test_lu_coefficients_are_the_tyz_coefficients(fam, n, x, a):
    # rho != 0 at each point, so each a_j reads Lu's normalisation of rho
    rep = lu_coefficients(fam, n, x=x)
    for name, want in zip(("a1", "a2", "a3"), a):
        assert_exact_zero(getattr(rep, name) - want, name)
    assert rep.rho.sign() == Sign.POSITIVE


def test_lu_dimension_one_is_flat():
    rep = lu_coefficients(EpsilonFamily(1, F(1), 1), 1, x=F(2))
    for name in ("a1", "a2", "a3", "R2", "Ric2"):
        assert_exact_zero(getattr(rep, name), name)


def test_lu_rejects_low_jet_order():
    with pytest.raises(ValueError):
        lu_coefficients(Simanca(), 2, x=F(1), jet_order=2)


@pytest.mark.parametrize("n", [0, -2])
def test_a_dimension_below_1_is_rejected_before_any_jet(n, monkeypatch):
    calls = count_fprime_calls(monkeypatch)
    for compute in (frame_at_x, lu_coefficients, curvature_norm2):
        with pytest.raises(ValueError, match=f"^dimension n must be at least 1, not {n}$"):
            compute(Simanca(), n, F(1))
    assert calls == []


def test_lu_ball_backend_matches_exact():
    exact = lu_coefficients(EguchiHanson(), 2, x=F(3, 4))
    ball = lu_coefficients(EguchiHanson(), 2, x=F(3, 4), exact=False, precision_bits=256)
    for name, v in exact.as_dict().items():
        assert_within(getattr(ball, name), 0, F(10**40), name)  # sanity: finite
        diff = getattr(ball, name) - v.to_ball(256)
        assert abs_le(diff, F(1, 10**40)), name


def test_lu_report_balls_pinned():
    """Every LuReport field on 256-bit balls, bit for bit (digest re-taken when
    g^-1 came to be 1/g rather than g (1/g^2), which made every field tighter,
    when rho came to be -Delta log det g, which tightened a3 and laplapRho,
    when rho lost a stray factor 2, which halved the rho and a1 balls, and when
    each contraction weight came to be (g^{11̄})^a (g^{aā})^b from two power
    chains: a2, a3, R2, DR2 and lapCombo8 moved, each at most 0.08% wider,
    meeting the ball before and containing a 1024-bit enclosure)."""
    rep = lu_coefficients(EpsilonFamily(1, F(1), 3), 3, x=F(3, 4), precision_bits=256)
    assert all(v.backend == "ball" for v in rep.as_dict().values())
    # the order every output lists the fields in
    assert list(rep.as_dict()) == [
        "a1", "a2", "a3", "rho", "R2", "Ric2", "DRho2", "DRic2", "DR2", "sigma3Ric",
        "RRicRic", "RicRR", "divdivRRic", "divdivRhoRic", "lapRho", "laplapRho", "lapCombo8",
    ]
    assert scalars_digest(rep.as_dict().values()) == (
        "b4a72c2b2007baf5a5000c33496541678a038ca419ff6ce8ef420610edaa478f"
    )


@pytest.mark.parametrize("fam, x, exact, digest", [
    (EpsilonFamily(1, F(1), 2), F(3, 4), None,
     "dd47f3f03fb75669fd336b8e9e2d0866bdb867858f66a4918b0f60a870efc9ca"),
    (EpsilonFamily(-1, F(1), 2), F(3, 2), False,
     "c5d53552e44b31759f0d270bbe397dc54555733c419b7d28c997349e5832d11f"),
    # Eguchi-Hanson's f' is that of eps=1, n=2, so its report is the same
    (EguchiHanson(), F(3, 4), None,
     "dd47f3f03fb75669fd336b8e9e2d0866bdb867858f66a4918b0f60a870efc9ca"),
    (Simanca(), F(2), None,
     "0377aecd62d79588c06ddc5d9a012b08772c3dd5d3d50a1837f135a1ad360911"),
], ids=["eps+1-exact", "eps-1-ball", "eguchi-hanson-exact", "simanca-exact"])
def test_lu_report_pinned_at_dimension_two(fam, x, exact, digest):
    # every LuReport field bit for bit, backends and ball endpoints included,
    # on each dim-2 lane of the benchmark's lu-sweep; with the n=3 ball case
    # above, every lane is pinned
    rep = lu_coefficients(fam, 2, x=x, exact=exact, precision_bits=256)
    assert all(v.backend == ("ball" if exact is False else "rational")
               for v in rep.as_dict().values())
    assert scalars_digest(rep.as_dict().values()) == digest


# f' Taylor data to order 9, for frames over jets of order 4
CUSTOM_9 = CustomPotential.make(
    F(1, 2), [F(2), F(1), F(-1, 3), F(1, 5), F(0), F(1, 7), F(-1), F(1, 2), F(3), F(-2)]
)


def _leaves(t):
    return [v for u in t for v in _leaves(u)] if isinstance(t, list) else [t]


def _constant_terms(rvs) -> tuple:
    return [rv.odd for rv in rvs], scalars_digest([rv.jet.value() for rv in rvs])


# each family on exact values and on 256-bit balls
BACKEND_CASES = [
    (EpsilonFamily(1, F(1), 2), F(3, 4), True),
    (EpsilonFamily(1, F(1), 2), F(3, 4), False),
    (EpsilonFamily(-1, F(1), 2), F(3, 2), True),
    (EpsilonFamily(-1, F(1), 2), F(3, 2), False),
    (Simanca(), F(2), True),
    (Simanca(), F(2), False),
    (EguchiHanson(), F(3, 4), True),
    (EguchiHanson(), F(3, 4), False),
    (CUSTOM_9, F(1, 2), True),  # a custom potential has no ball point
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fam, x, exact", BACKEND_CASES)
def test_value_frame_matches_constant_terms(fam, n, x, exact):
    # the order-0 Ricci block and nabla R equal the constant terms of the
    # order-4 ones, bit for bit, backends and ball endpoints included
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=256)
    full = frame_at_x(fam, n, x0, 4)
    value = curvature._value_frame(full)
    assert value.ring.x.order == 0
    for name in ("ric_cov1", "ric_cov2"):
        assert _constant_terms(_leaves(getattr(value, name))) == _constant_terms(
            _leaves(getattr(full, name))
        ), name
    assert _constant_terms(_leaves(curvature._nabla_R(value))) == _constant_terms(
        _leaves(curvature._nabla_R(full))
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fam, x, exact", BACKEND_CASES)
def test_frame_gi_is_the_leading_part_of_ginv(fam, n, x, exact):
    # g^{11̄} and the one g^{aā} are cuts of the frame's inverse-metric jets,
    # two orders above it, and equal 1/g_{iī} formed from the Phi table's
    # metric entries over the frame's jets, bit for bit
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=256)
    frame = frame_at_x(fam, n, x0, 2)
    assert [v.order for v in frame.ginv] == [4, 4]
    assert all(frame.gi[a] is frame.gi[1] for a in range(2, n))
    for i, gi in enumerate(frame.gi):
        assert gi.odd == 0 and gi.raws == frame.ginv[min(i, 1)].raws[:3], i
        g = frame.table.partial((i,), (i,)).jet
        assert scalars_digest(gi.jet.coeffs) == scalars_digest((1 / g).coeffs), i
    assert curvature._value_frame(frame).ginv is frame.ginv


@pytest.mark.parametrize("fam, n, x", [
    (Simanca(), 2, F(2)),
    (EpsilonFamily(1, F(1), 3), 3, F(3, 4)),
], ids=["simanca-n2", "eps+1-n3"])
def test_lu_coefficients_divides_four_jets(monkeypatch, fam, n, x):
    # f' (a quotient for both families), g^{11̄}, g^{aā} and
    # u' = (det g)' / det g; no radial Laplacian divides
    counts, inside = {"all": 0, "laplacian": 0}, []
    divide, laplacian = Jet.__truediv__, curvature.radial_laplacian_jet

    def counted_divide(self, other):
        counts["all"] += 1
        counts["laplacian"] += bool(inside)
        return divide(self, other)

    def counted_laplacian(*args):
        inside.append(1)
        try:
            return laplacian(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Jet, "__truediv__", counted_divide)
    monkeypatch.setattr(curvature, "radial_laplacian_jet", counted_laplacian)
    lu_coefficients(fam, n, x=x)
    assert counts == {"all": 4, "laplacian": 0}


def _per_call_laplacian(du: Jet, fp: Jet, n: int) -> Jet:
    """The radial Laplacian with its own reciprocals of f' + x f'' and f',
    from the f' jet fp: a second route to radial_laplacian_jet."""
    fp = fp.truncate(du.order)
    fpp, ddu = fp.derive(), du.derive()
    x = Jet.variable(du.x0, ddu.order)
    return 1 / (fp + x * fpp) * (du + ddu * x) + 1 / fp * du * (n - 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fam, x, exact", BACKEND_CASES)
def test_lu_laplacians_match_per_call_reciprocals(monkeypatch, fam, n, x, exact):
    # rho, Delta rho, Delta Delta rho and Delta(|R|^2 - 4|Ric|^2 + 8 rho^2),
    # each from the frame's shared inverses, equal the Laplacian that forms
    # its own, bit for bit, backends and ball endpoints included
    calls, laplacian = [], curvature.radial_laplacian_jet
    monkeypatch.setattr(curvature, "radial_laplacian_jet", lambda du, ginv, n: calls.append(
        (du, laplacian(du, ginv, n))) or calls[-1][1])
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=256)
    lu_coefficients(fam, n, x0)
    fp = fprime_jet(fam, x0, 2 + curvature.TABLE_ORDER)
    assert [got.order for _, got in calls] == [4, 2, 0, 0]
    for du, got in calls:
        assert scalars_digest(got.coeffs) == scalars_digest(
            _per_call_laplacian(du, fp, n).coeffs), du.order


# f' = 2 + t^4 + ... at x0 = 1/2: f'' vanishes to order 2 and not to order 3,
# so d_a g_{1ā} = s f'' and Gamma^a_{1a} are zero on a frame of order 2 and
# not over jets of order 4
FLAT_TO_ORDER_3 = CustomPotential.make(
    F(1, 2), [F(2), F(0), F(0), F(0), F(1), F(1, 3), F(-1), F(1, 2), F(3), F(-2)]
)


def _leading(rvs, order: int) -> tuple:
    return [rv.odd for rv in rvs], scalars_digest(
        [c for rv in rvs for c in rv.jet.coeffs[: order + 1]]
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fam, x, exact", [
    (EpsilonFamily(1, F(1), 2), F(3, 4), True),
    (EpsilonFamily(1, F(1), 2), F(3, 4), False),
    (EpsilonFamily(-1, F(1), 2), F(3, 2), True),
    (EpsilonFamily(-1, F(1), 2), F(3, 2), False),
    (Simanca(), F(2), True),
    (Simanca(), F(2), False),
    (EguchiHanson(), F(3, 4), True),
    (EguchiHanson(), F(3, 4), False),
    (CUSTOM_9, F(1, 2), True),  # a custom potential has no ball point
    (FLAT_TO_ORDER_3, F(1, 2), True),
])
def test_order_two_cut_matches_leading_terms(fam, n, x, exact):
    # on a frame of order 2, R, Ric and |R|^2 are coefficients 0..2 of the
    # order-4 frame's, and rho, two orders above the frame, coefficients 0..4,
    # bit for bit, backends and ball endpoints included
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=256)
    full, cut = frame_at_x(fam, n, x0, 4), frame_at_x(fam, n, x0, 2)
    for name in ("R", "ric"):
        assert _leading(_leaves(getattr(cut, name)), 2) == _leading(
            _leaves(getattr(full, name)), 2
        ), name
    rhos = [invariants_from_frame(f)["rho"] for f in (full, cut)]
    assert [r.order for r in rhos] == [6, 4]
    assert scalars_digest(rhos[1].coeffs) == scalars_digest(rhos[0].coeffs[:5])
    norms = [curvature._norm2_R(f, curvature._Weights(f)) for f in (full, cut)]
    assert _leading(norms[1:], 2) == _leading(norms[:1], 2)
    if fam is FLAT_TO_ORDER_3:
        # a term order 2 skips and order 4 adds
        assert cut.gamma[1][0][1].is_zero() and not full.gamma[1][0][1].is_zero()


def test_lu_builds_covariant_blocks_at_order_zero_only(monkeypatch):
    # one frame is built, two orders below jet_order, with its Gamma and R,
    # which are cut to order 0; the covariant Ricci block and nabla R are
    # built at order 0 only
    orders = []
    for name in ("_attach_curvature", "_attach_ricci_cov", "_nabla_R"):
        original = getattr(curvature, name)
        monkeypatch.setattr(
            curvature, name,
            lambda frame, name=name, f=original: orders.append((name, frame.ring.x.order)) or f(frame),
        )
    build = curvature.frame_at_x
    monkeypatch.setattr(curvature, "frame_at_x", lambda fam, n, x0, jet_order: orders.append(
        ("frame_at_x", jet_order)) or build(fam, n, x0, jet_order))
    for jet_order in (4, 5):
        orders.clear()
        lu_coefficients(EpsilonFamily(1, F(1), 2), 2, x=F(3, 4), jet_order=jet_order)
        assert orders == [
            ("frame_at_x", jet_order - 2), ("_attach_curvature", jet_order - 2),
            ("_attach_ricci_cov", 0), ("_nabla_R", 0),
        ], jet_order


def test_lu_coefficients_leaves_no_reference_cycles():
    # every frame, ring and jet of a call is freed by reference counting, so
    # nothing waits for the cyclic collector
    def run():
        lu_coefficients(EpsilonFamily(1, F(1), 3), 3, x=F(3, 4), precision_bits=256)

    run()  # warm-up: one-time setup, such as the interval contexts, is not per call
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_lu_coefficients_builds_fprime_once(monkeypatch):
    # the radial Laplacians read truncations of the frame's f' jet
    calls = count_fprime_calls(monkeypatch)
    lu_coefficients(EpsilonFamily(1, F(1), 2), 2, x=F(3, 4))
    assert len(calls) == 1


def test_lu_coefficients_forms_det_g_once(monkeypatch):
    # the value frame's two partials tables are cuts of the full frame's, so
    # det g and u' are formed once and two tables are built: Phi and log det g
    counts = {"det": 0, "table": 0}
    det, init = curvature.det_jet_from_fprime, PhiPartialTable.__init__

    def counted_det(*args):
        counts["det"] += 1
        return det(*args)

    def counted_init(self, *args):
        counts["table"] += 1
        init(self, *args)

    monkeypatch.setattr(curvature, "det_jet_from_fprime", counted_det)
    monkeypatch.setattr(PhiPartialTable, "__init__", counted_init)
    lu_coefficients(EpsilonFamily(1, F(1), 2), 2, x=F(3, 4))
    assert counts == {"det": 1, "table": 2}


def test_sum_of_even_and_odd_values_raises():
    # the U(1) phase rule is checked: a value is even or odd in s, and only a
    # zero may meet a value of the other parity in a sum
    ring = RadialRing(Jet.variable(F(1, 2), 1))
    even, odd = curvature.RV(ring, ring.x_power(0), 0), curvature.RV(ring, ring.x.raws, 1)
    with pytest.raises(ArithmeticError, match="an even and an odd value"):
        even + odd
    with pytest.raises(ArithmeticError, match="an even and an odd value"):
        odd - even
    zero_odd = curvature.RV(ring, ring.zero_raws, 1)
    assert even + zero_odd is even
    assert (zero_odd - even).odd == 0 and (zero_odd - even).jet == -Jet.constant(F(1, 2), 1, 1)
    assert (odd * odd).odd == 0 and (even * odd).odd == 1


_rv_rationals = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=30)
_SQRT5 = nth_root(as_scalar(5), 2)
_RV_LANES = {  # one coefficient from two rationals, in Q, Q(sqrt 5) and on 64-bit balls
    "Q": lambda a, b: as_scalar(a),
    "sqrt5": lambda a, b: _SQRT5 * b + a,
    "ball64": lambda a, b: (as_scalar(a) + F(b, 7)).to_ball(64),
}


@st.composite
def _rv_pairs(draw):
    """Two RVs of random parities on one ring of 1 to 7 coefficients, and
    their jets: on exact lanes a length of 6 or 7 runs the product through
    the integer convolution."""
    lane = draw(st.sampled_from(sorted(_RV_LANES)))
    size = draw(st.integers(1, 7))
    x0 = as_scalar(F(3, 4)) if lane != "ball64" else as_scalar(F(3, 4)).to_ball(64)
    ring = RadialRing(Jet.variable(x0, size - 1))
    coeffs = st.lists(st.builds(_RV_LANES[lane], _rv_rationals, _rv_rationals),
                      min_size=size, max_size=size)
    a, b = Jet.make(x0, draw(coeffs)), Jet.make(x0, draw(coeffs))
    pa, pb = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return ring, (curvature.RV(ring, a.raws, pa), a), (curvature.RV(ring, b.raws, pb), b)


def _same(rv: "curvature.RV", jet: Jet, odd: int) -> bool:
    return rv.odd == odd and scalars_digest(rv.jet.coeffs) == scalars_digest(jet.coeffs)


@given(_rv_pairs(), st.integers(-5, 5), _rv_rationals)
@settings(max_examples=100, deadline=None)
def test_rv_arithmetic_is_jet_arithmetic_bit_for_bit(pair, k, q):
    # an RV is its jet's raws and a parity: every operation is the Jet
    # operation on those raws, with odd * odd picking up x = s**2
    ring, (a, ja), (b, jb) = pair
    assert _same(-a, -ja, a.odd)
    assert _same(a * k, ja * k, a.odd) and _same(a * q, ja * q, a.odd)
    if a.odd == b.odd:
        assert _same(a + b, ja + jb, a.odd) and _same(a - b, ja - jb, a.odd)
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    elif a.odd and b.odd:
        assert _same(a * b, ja * jb * ring.x, 0)
    else:
        assert _same(a * b, ja * jb, a.odd | b.odd)
    # a zero of the other parity leaves a non-zero operand as it is
    zero = curvature.RV(ring, ring.zero_raws, 1 - a.odd)
    if not a.is_zero():
        assert a + zero is a and a - zero is a and zero + a is a
        assert _same(zero - a, -ja, a.odd)


def test_frame_rejects_a_metric_not_certified_positive():
    # f' = 1 - 2 (x - 1): g_{11̄} = f' + x f'' = -1 at x0 = 1
    fam = CustomPotential.make(1, [1, -2] + [0] * curvature.TABLE_ORDER)
    with pytest.raises(DomainError, match="singular metric"):
        frame_at_x(fam, 2, F(1), 0)


NABLA_R_TRANSPOSED = pytest.mark.xfail(reason="ROADMAP item 2: _nabla_R transposes d_m g^{pq̄}")


@pytest.mark.parametrize("fam, n, x", [
    pytest.param(EpsilonFamily(1, F(1), 2), 2, F(3, 4), marks=NABLA_R_TRANSPOSED, id="eps+1-n2"),
    pytest.param(EpsilonFamily(1, F(1), 3), 3, F(3, 4), marks=NABLA_R_TRANSPOSED, id="eps+1-n3"),
    pytest.param(EpsilonFamily(-1, F(1), 2), 2, F(3, 2), marks=NABLA_R_TRANSPOSED, id="eps-1-n2"),
    pytest.param(EguchiHanson(), 2, F(3, 4), marks=NABLA_R_TRANSPOSED, id="eguchi-hanson"),
    pytest.param(Simanca(), 2, F(3, 4), id="simanca-n2"),
    pytest.param(Simanca(), 3, F(2), id="simanca-n3"),
])
def test_nabla_R_identities(fam, n, x):
    # at exact points: R_{ij̄kl̄,m} = R_{mj̄kl̄,i} (second Bianchi identity) and
    # Ric_{ij̄,k} + sum_p g^{pp̄} R_{ij̄pp̄,k} = 0, on the order-0 value frame
    value = curvature._value_frame(frame_at_x(fam, n, x, 0))
    nabla, gi, ric_cov1 = curvature._nabla_R(value), value.gi, value.ric_cov1
    bianchi = [(m, i, j, k, l) for m, i, j, k, l in itertools.product(range(n), repeat=5)
               if not (nabla[m][i][j][k][l] - nabla[i][m][j][k][l]).is_zero()]
    contracted = []
    for i, j, k in itertools.product(range(n), repeat=3):
        acc = ric_cov1[i][j][k]
        for p in range(n):
            acc = acc + gi[p] * nabla[k][i][j][p][p]
        if not acc.is_zero():
            contracted.append((i, j, k))
    assert (bianchi, contracted) == ([], [])


def _all_coeffs(t) -> list:
    """Every coefficient in two slots per entry, even then odd: the entry's jet
    in its parity's slot and an exact-zero jet in the other."""
    out = []
    for rv in _leaves(t):
        zero = [as_scalar(0)] * len(rv.jet.raws)
        out += zero + list(rv.jet.coeffs) if rv.odd else list(rv.jet.coeffs) + zero
    return out


# (R, ric_cov1, ric_cov2 of an order-2 frame, order-0 nabla R): the first 16
# hex digits of scalars_digest over every coefficient, taken from the dense
# index loops these replaced; x = 3/4, 3/2, 2, 3/4 and 5/4 per family. The ball
# ric_cov2 digests were re-taken when dbar Gamma came to be read off R: each
# moved ball meets the one before and a 1024-bit enclosure. The ball ric_cov1
# and nabla R digests were re-taken when an RV came to hold one jet: the even
# slot of these odd tensors had held balls [0, 0] from even x odd products, and
# every entry's own-slot coefficients kept their bits. Every ball digest was
# re-taken when g^-1 came to be 1/g rather than g (1/g^2): no moved ball is
# wider than the one before, and each meets a 1024-bit enclosure.
COVARIANT_DIGESTS = {
    ("eps+1", 2, True): ("d4b53ff7b946835c", "b9ebaf6936c079e1", "4f4cb532545f7cea", "9a8fac48311c9372"),
    ("eps+1", 2, False): ("1a958e2e977cb6af", "d86dd7226752de63", "5689fd00b512eaf8", "b4be18bf660cead2"),
    ("eps+1", 3, True): ("286ef07ee437acb0", "81b2b66b4165f647", "3c91455830f759a4", "fbbb571c896e433a"),
    ("eps+1", 3, False): ("1f1d7520b3be28cd", "e466c81f01c5e138", "4463d0c4eab44b43", "44a9379692fcadc0"),
    ("eps+1", 4, True): ("a4a5ff847792303e", "9303b5ecb7676288", "e8ad8b234d1327c0", "97f3ff1b03caaf43"),
    ("eps+1", 4, False): ("763166668034c954", "a42ea25ae95a2621", "23e1fd880bdaaacb", "561e87bb677c1c98"),
    ("eps-1", 2, True): ("9e41587b0f4ccff6", "b9ebaf6936c079e1", "4f4cb532545f7cea", "6839936fb35d5768"),
    ("eps-1", 2, False): ("807e42ac0e8df2b1", "83436a5c4ceda221", "061fe7101c5ee722", "275ec6cc703d140a"),
    ("eps-1", 3, True): ("a6d3d4749076a38c", "81b2b66b4165f647", "3c91455830f759a4", "315a252815135950"),
    ("eps-1", 3, False): ("814113ce402ba9ba", "c87cfb4ed31f0160", "1d35287ece029f53", "a4e27c6c81183cbd"),
    ("eps-1", 4, True): ("460696577294f749", "9303b5ecb7676288", "e8ad8b234d1327c0", "f014bbba31c032ee"),
    ("eps-1", 4, False): ("4003434d3ec917a1", "f4da056de9b2ad3f", "39856bc1e8fa07e6", "00d4290a7f65589d"),
    ("simanca", 3, True): ("2fd5557c42d8edf3", "5a6d68a8213bab90", "1641dbab692d3d2f", "ac71c1fa8e1689a6"),
    ("simanca", 3, False): ("48e2a1f9475c12e4", "c6f453f08e36f979", "b082a03e2c086df4", "9da364cc405a7b08"),
    ("eguchi-hanson", 3, True): ("53b57116417d16d1", "86be6500260fcd94", "3e69d15b6473aa88", "2d0c2ef5b656a1f4"),
    ("eguchi-hanson", 3, False): ("4805e9fbdfda9d22", "a68a80ef4425b0aa", "14dd16a32968de37", "4fb66ff5e34302b1"),
    ("flat", 3, True): ("3c91455830f759a4", "81b2b66b4165f647", "3c91455830f759a4", "3c91455830f759a4"),
    ("flat", 3, False): ("0b20428ad74cf5ce", "5aba24403ac997b0", "7af502960314fe4c", "a788be098e94832f"),
}
COVARIANT_FAMILIES = {
    "eps+1": (lambda n: EpsilonFamily(1, F(1), n), F(3, 4)),
    "eps-1": (lambda n: EpsilonFamily(-1, F(1), n), F(3, 2)),
    "simanca": (lambda n: Simanca(), F(2)),
    "eguchi-hanson": (lambda n: EguchiHanson(), F(3, 4)),
    "flat": (lambda n: EpsilonFamily(0, F(2), n), F(5, 4)),
}


@pytest.mark.parametrize("name, n, exact", list(COVARIANT_DIGESTS))
def test_covariant_tensors_pinned(name, n, exact):
    # every coefficient, backend and ball endpoint of R, the covariant Ricci
    # block and nabla R, bit for bit, exact and on 256-bit balls
    make, x = COVARIANT_FAMILIES[name]
    fam = make(n)
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=256)
    frame = frame_at_x(fam, n, x0, 2)
    nabla = curvature._nabla_R(curvature._value_frame(frame))
    got = tuple(
        scalars_digest(_all_coeffs(t))[:16]
        for t in (frame.R, frame.ric_cov1, frame.ric_cov2, nabla)
    )
    assert got == COVARIANT_DIGESTS[(name, n, exact)]


@pytest.mark.parametrize("fam, x", [
    (EpsilonFamily(1, F(1), 2), F(3, 4)),
    (EpsilonFamily(-1, F(1), 2), F(3, 2)),
    (Simanca(), F(2)),
    (EguchiHanson(), F(3, 4)),
], ids=["eps+1", "eps-1", "simanca", "eguchi-hanson"])
def test_balls_enclose_exact_ricci_block_and_lu_report(fam, x):
    # enclosure, where the digests above pin bits: no coefficient of the
    # order-2 frame's ric_cov2 and no LuReport field, on 64- or 256-bit balls,
    # is certified unequal to its exact value
    def values(exact: bool, bits: int) -> list:
        x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=bits)
        rep = lu_coefficients(fam, 2, x=x, exact=exact, precision_bits=bits)
        return _all_coeffs(frame_at_x(fam, 2, x0, 2).ric_cov2) + list(rep.as_dict().values())

    want = values(True, 256)
    assert len(want) == 16 * 2 * 3 + len(dataclasses.fields(LuReport))
    for bits in (64, 256):
        got = values(False, bits)
        assert got[-1].backend == "ball"
        apart = [i for i, (b, v) in enumerate(zip(got, want))
                 if (b - v).sign() in (Sign.POSITIVE, Sign.NEGATIVE)]
        assert apart == [], (bits, apart)


@pytest.mark.parametrize("fam, n, x, exact", [
    (EpsilonFamily(1, F(1), 3), 3, F(3, 4), False),
    (EpsilonFamily(1, F(1), 2), 2, F(3, 4), True),
    (Simanca(), 2, F(1, 2), True),
    (EguchiHanson(), 3, F(3, 4), False),
    (EpsilonFamily(0, F(1), 4), 4, F(3, 4), False),
])
def test_lu_multiplies_no_zero_factor(monkeypatch, fam, n, x, exact):
    # the tensor loops and contractions test each factor before forming a
    # product, so no RV product in lu_coefficients has a zero operand; the
    # first case covers _nabla_R and _attach_ricci_cov at a Ricci-flat point
    seen = {"products": 0, "zero": [], "scoped": 0}
    scopes = []
    mul = curvature.RV.__mul__

    def counted_mul(self, other):
        if isinstance(other, curvature.RV):
            seen["products"] += 1
            seen["scoped"] += bool(scopes)
            if self.is_zero() or other.is_zero():
                seen["zero"].append(tuple(scopes))
        return mul(self, other)

    def scoped(name, f):
        def run(*args, **kwargs):
            scopes.append(name)
            try:
                return f(*args, **kwargs)
            finally:
                scopes.pop()
        return run

    monkeypatch.setattr(curvature.RV, "__mul__", counted_mul)
    for name in ("_attach_ricci_cov", "_nabla_R"):
        monkeypatch.setattr(curvature, name, scoped(name, getattr(curvature, name)))
    lu_coefficients(fam, n, x=x, exact=exact, precision_bits=256)
    assert seen["zero"] == []
    if n == 3 and not exact:
        assert seen["scoped"] > 0


def test_lu_dimension_six_within_budget():
    # the tensor loops visit non-zero terms only, so cost follows the
    # non-zero entries rather than n^7 index tuples
    start = time.process_time()
    rep = lu_coefficients(EpsilonFamily(1, F(1), 6), 6, x=F(3, 4), exact=False, precision_bits=256)
    elapsed = time.process_time() - start
    assert rep.a3.backend == "ball"
    assert elapsed < 1.5, f"lu_coefficients at n=6 took {elapsed:.2f} s of CPU"


@pytest.mark.parametrize("fam, n, exact, most", [
    (EpsilonFamily(1, F(1), 3), 3, False, 20),
    (EpsilonFamily(1, F(1), 6), 6, False, 20),
    (Simanca(), 2, None, 16),
], ids=["eps+1-n3-ball", "eps+1-n6-ball", "simanca-n2"])
def test_weight_table_forms_two_power_chains(monkeypatch, fam, n, exact, most):
    # a weight g^{i₀ī₀} g^{i₁ī₁} ... depends only on how many indices are 0:
    # W(a, b) = (g^{11̄})^a (g^{aā})^b, from one power chain per entry and one
    # product per mixed class, per frame (one left-associated chain per zero
    # pattern took 55, 55 and 47 products here)
    inside, count = [], [0]
    mul, call = curvature.RV.__mul__, curvature._Weights.__call__

    def counted_mul(self, other):
        count[0] += bool(inside) and isinstance(other, curvature.RV)
        return mul(self, other)

    def scoped_call(self, *args):
        inside.append(1)
        try:
            return call(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(curvature.RV, "__mul__", counted_mul)
    monkeypatch.setattr(curvature._Weights, "__call__", scoped_call)
    lu_coefficients(fam, n, x=F(3, 4), exact=exact, precision_bits=256)
    assert 0 < count[0] <= most


def _dense_invariants(frame) -> dict:
    """The ten contractions of invariants_from_frame by dense loops over every
    index tuple, each weight g^{i₀ī₀} g^{i₁ī₁} ... the left-associated product
    over the tuple's indices in order: a second route to the weight table and
    the one contraction helper. R2 and Ric2 on the frame, the rest on its
    order-0 cut, rho taken from the engine."""
    n, gi = frame.n, frame.gi
    tuples = lambda k: itertools.product(range(n), repeat=k)

    def total(ring, terms):
        acc = ring.zero
        for idx, factors in terms:
            t = gi[idx[0]]
            for i in idx[1:]:
                t = t * gi[i]
            for f in factors:
                t = t * f
            acc = acc + t
        return acc

    R, ric = frame.R, frame.ric
    out = {"R2": total(frame.ring, (((i, j, k, l), (R[i][j][k][l],) * 2)
                                    for i, j, k, l in tuples(4))),
           "Ric2": total(frame.ring, (((i, j), (ric[i][j],) * 2) for i, j in tuples(2)))}
    value = curvature._value_frame(frame)
    ring, R, ric, c1, c2 = value.ring, value.R, value.ric, value.ric_cov1, value.ric_cov2
    nabla = curvature._nabla_R(value)
    rho_x = invariants_from_frame(frame)["rho"].derive()
    drho = curvature.RV(ring, rho_x.raws[:1], 1)
    hess = [[ring.zero] * n for _ in range(n)]  # u'' zbar_a z_b + u' delta_ab
    hess[0][0] = curvature.RV(ring, (rho_x.derive() * ring.x.value() + rho_x).raws[:1], 0)
    for i in range(1, n):
        hess[i][i] = curvature.RV(ring, rho_x.raws[:1], 0)
    out.update(
        sigma3Ric=total(ring, (((i, j, k), (ric[i][j] * ric[j][k] * ric[k][i],))
                               for i, j, k in tuples(3))),
        RRicRic=total(ring, (((i, j, k, l), (R[i][j][k][l] * ric[j][i] * ric[l][k],))
                             for i, j, k, l in tuples(4))),
        RicRR=total(ring, (((i, j, k, p, q), (ric[i][j], R[j][k][p][q], R[k][i][q][p]))
                           for i, j, k, p, q in tuples(5))),
        DRic2=total(ring, (((i, j, k), (c1[i][j][k],) * 2) for i, j, k in tuples(3))),
        DR2=total(ring, (((i, j, k, l, m), (nabla[m][i][j][k][l],) * 2)
                         for i, j, k, l, m in tuples(5))),
        DRho2=total(ring, [((0,), (drho, drho))]),
        ricHessRho=total(ring, (((i, j), (ric[i][j], hess[j][i])) for i, j in tuples(2))),
        ricCov2R=total(ring, (((i, j, k, l), (c2[i][j][k][l], R[j][i][l][k]))
                              for i, j, k, l in tuples(4))),
    )
    return {k: v.even_jet(k) for k, v in out.items()}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name, exact", [
    *((name, exact) for name in ("eps+1", "eps-1", "simanca", "eguchi-hanson")
      for exact in (True, False)),
    ("custom", True),  # a custom potential has no ball point
])
def test_contractions_match_dense_per_tuple_weights(name, exact, n):
    # every contraction invariant equals the dense sum with per-tuple weights
    # exactly on exact frames, and meets it on 256-bit ball frames
    make, x = dict(COVARIANT_FAMILIES, custom=(lambda n: CUSTOM_9, F(1, 2)))[name]
    fam = make(n)
    x0 = prepare_point(fam, as_scalar(x), exact=exact, precision_bits=256)
    got = invariants_from_frame(frame_at_x(fam, n, x0, 2))
    want = _dense_invariants(frame_at_x(fam, n, x0, 2))
    assert len(want) == 10 and set(got) == {"rho", *want}
    for key, jet in want.items():
        assert got[key].order == jet.order, key
        signs = [(a - b).sign() for a, b in zip(got[key].coeffs, jet.coeffs)]
        if exact:
            assert signs == [Sign.ZERO] * len(signs), key
        else:
            assert not {Sign.POSITIVE, Sign.NEGATIVE} & set(signs), key
