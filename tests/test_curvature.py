import itertools
from fractions import Fraction as F

import pytest

from radialtyz.curvature import (
    PhiPartialTable,
    RadialRing,
    build_frame,
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
    ricci_flat_residual,
)
from radialtyz.scalars import Sign, abs_le, as_scalar, nth_root

from helpers import assert_exact_zero, assert_within


def test_mixed_partials_metric_entries():
    fam = EpsilonFamily(1, F(1), 2)
    s = as_scalar(F(1, 2))
    fp = fprime_jet(fam, F(1, 4), 1)
    table = PhiPartialTable(fp, 2, 2, RadialRing(Jet.variable(F(1, 4), 0)))
    want_11 = fp.coeffs[0] + fp.coeffs[1] * F(1, 4)  # f' + f'' x
    assert (table.partial((1, 0), (1, 0)).full_value(s) - want_11).sign() == Sign.ZERO
    assert (table.partial((0, 1), (0, 1)).full_value(s) - fp.coeffs[0]).sign() == Sign.ZERO


def test_mixed_partial_flat_fourth_order():
    s = as_scalar(F(2, 3))
    fp = fprime_jet(EpsilonFamily(0, F(1), 2), s * s, 3)
    table = PhiPartialTable(fp, 2, 4, RadialRing(Jet.variable(s * s, 0)))
    assert_exact_zero(table.partial((1, 1), (1, 1)).full_value(s), "flat 4th mixed partial")
    with pytest.raises(ValueError, match="total order 4"):
        table.partial((3, 0), (2, 0))


def test_frame_rejects_origin():
    with pytest.raises(Exception):
        build_frame(Simanca(), 2, 0)


def test_eps_family_curvature_components():
    # displayed: R_iiii = 2 R_iijj = 2 f'' (i, j >= 2), and the R_11ii entry
    fam = EpsilonFamily(1, F(1), 2)
    x = F(3, 4)
    fr = frame_at_x(fam, 3, x, 0)
    fp = fprime_jet(fam, x, 3)
    f1, f2, f3 = fp.coeffs[0], fp.derive().coeffs[0], fp.derive().derive().coeffs[0]
    # R_2222 = 2 f''
    assert (fr.R[1][1][1][1].ev.value() - f2 * 2).sign() == Sign.ZERO
    # R_2233 = f''
    assert (fr.R[1][1][2][2].ev.value() - f2).sign() == Sign.ZERO
    # R_1122 = f'' + f''' x - (f'')^2 x / f'
    want = f2 + f3 * x - f2 * f2 * F(3, 4) / f1
    assert (fr.R[0][0][1][1].ev.value() - want).sign() == Sign.ZERO


def test_curvature_symmetries():
    for fam, n, x in (
        (EpsilonFamily(1, F(1), 2), 2, F(1)),
        (EpsilonFamily(-1, F(1), 3), 3, F(3, 2)),
        (Simanca(), 2, F(2)),
    ):
        fr = frame_at_x(fam, n, x, 0, with_ricci=False)
        assert fr.curvature_symmetry_violations() == []


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
        gi = [fr.ginv[i][i] for i in range(n)]
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
            assert fr.ric[k][k].od.value().sign() == Sign.ZERO
            assert_exact_zero(fr.ric[k][k].ev.value() + residual, f"Ric_{k}{k} {fam} n={n}")


def _ricci_block_text(fr) -> dict:
    """Every non-zero even / odd jet of ric, ric_cov1 and ric_cov2, as text."""
    out = {}
    for name, rank in (("ric", 2), ("ric_cov1", 3), ("ric_cov2", 4)):
        for idx in itertools.product(range(fr.n), repeat=rank):
            rv = getattr(fr, name)
            for i in idx:
                rv = rv[i]
            for part in ("ev", "od"):
                text = [c.text() for c in getattr(rv, part).coeffs]
                if any(t != "0" for t in text):
                    out[(name, *idx, part)] = text
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


def test_eps_family_is_ricci_flat_in_frame():
    for n in (2, 3):
        fr = frame_at_x(EpsilonFamily(1, F(1), n), n, F(1, 2), 0)
        assert all(fr.ric[i][j].is_zero() for i in range(n) for j in range(n))
        assert fr.rho.ev.value().sign() == Sign.ZERO


def test_simanca_displayed_components_exact():
    x = F(2)
    fr = frame_at_x(Simanca(), 2, x, 0)
    assert_exact_zero(fr.R[0][0][0][0].ev.value())
    assert (fr.R[0][0][1][1].ev.value() - as_scalar(F(1, 6))).sign() == Sign.ZERO
    assert (fr.R[1][1][1][1].ev.value() - as_scalar(F(-1, 2))).sign() == Sign.ZERO
    assert (fr.ric[0][0].ev.value() - as_scalar(F(-1, 9))).sign() == Sign.ZERO
    assert (fr.ric[1][1].ev.value() - as_scalar(F(1, 6))).sign() == Sign.ZERO
    # Ric_11,1 = 2 zbar_1 / (x+1)^3: odd cofactor 2/27
    c = fr.ric_cov1[0][0][0]
    assert_exact_zero(c.ev.value())
    assert (c.od.value() - as_scalar(F(2, 27))).sign() == Sign.ZERO
    # Ric_22,1 = Ric_12,2 = -2 zbar_1/(x (x+1)^2)
    want = as_scalar(F(-2, 18))
    assert (fr.ric_cov1[1][1][0].od.value() - want).sign() == Sign.ZERO
    assert (fr.ric_cov1[0][1][1].od.value() - want).sign() == Sign.ZERO


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


def test_closed_forms_trivial_and_sign():
    out = closed_forms_eps(4, 0, F(2))
    assert out["R2"].text() == "0" and out["a3_proportional"].text() == "0"
    # eps = -1: a3 factor (x^n (n+3) - n eps) > 0 on x > 1, never zero
    for x in (F(2), F(3, 2), F(9)):
        assert closed_forms_eps(3, -1, x)["a3_proportional"].sign() == Sign.POSITIVE


def test_radial_laplacian_examples():
    fam = EpsilonFamily(1, F(1), 2)
    assert radial_laplacian_jet(Jet.constant(F(2, 3), 5, 4), fam, 2).value().text() == "0"
    flat = EpsilonFamily(0, F(1), 2)
    assert radial_laplacian_jet(Jet.variable(F(1, 2), 2), flat, 2).value().text() == "2"
    with pytest.raises(ValueError):
        radial_laplacian_jet(Jet.variable(F(1, 2), 1), flat, 2)


def test_laplacian_of_r2_matches_closed_form():
    fam = EpsilonFamily(1, F(1), 2)
    for x in (F(1), F(2, 5)):
        r2 = curvature_norm2(fam, 2, x, jet_order=2)
        lap = radial_laplacian_jet(r2, fam, 2).value()
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
    fam = Simanca()
    s = F(6, 5)
    fp = build_frame(fam, 2, s, 0)
    fm = build_frame(fam, 2, -s, 0)
    v_plus = fp.ric_cov1[0][0][0].full_value(fp.s)
    v_minus = fm.ric_cov1[0][0][0].full_value(fm.s)
    assert (v_plus + v_minus).sign() == Sign.ZERO  # odd component flips
    assert (fp.ric[0][0].ev.value() - fm.ric[0][0].ev.value()).sign() == Sign.ZERO


def test_simanca_full_value_at_irrational_s():
    x = F(1, 2)
    xb = as_scalar(x).to_ball(256)
    s = nth_root(xb, 2)
    fr = frame_at_x(Simanca(), 2, xb, 0)
    got = fr.ric_cov1[0][0][0].full_value(s)
    want = s * 2 / ((xb + 1) ** 3)
    assert abs_le(got - want, F(1, 10**30))


def test_lu_dimension_one_is_flat():
    rep = lu_coefficients(EpsilonFamily(1, F(1), 1), 1, x=F(2))
    for name in ("a1", "a2", "a3", "R2", "Ric2"):
        assert_exact_zero(getattr(rep, name), name)


def test_lu_rejects_low_jet_order():
    with pytest.raises(ValueError):
        lu_coefficients(Simanca(), 2, x=F(1), jet_order=2)


def test_lu_ball_backend_matches_exact():
    exact = lu_coefficients(EguchiHanson(), 2, x=F(3, 4))
    ball = lu_coefficients(EguchiHanson(), 2, x=F(3, 4), exact=False, precision_bits=256)
    for name, v in exact.as_dict().items():
        assert_within(getattr(ball, name), 0, F(10**40), name)  # sanity: finite
        diff = getattr(ball, name) - v.to_ball(256)
        assert abs_le(diff, F(1, 10**40)), name
