from fractions import Fraction as F

import pytest

from radialtyz.obstruction import (
    g3_closed_eps_minus1,
    g4_at_1_closed,
    gh_reports,
    gh_sequence,
    obstruction_scan,
    rational_grid,
    small_x_divergence_check,
)
from radialtyz.potentials import EpsilonFamily, Simanca, prepare_point
from radialtyz.scalars import (
    DEFAULT_PRECISION_BITS,
    DomainError,
    Scalar,
    Sign,
    abs_le,
    as_scalar,
    int_pow,
    nth_root,
    scalar_pow,
)

from helpers import assert_within, count_fprime_calls


def test_table_value_exact():
    seq = gh_sequence(EpsilonFamily(1, F(1), 2), F(3, 4), 7)
    assert seq[7].text() == "-12294367331/2373046875"
    assert seq[0].text() == "1"


def test_hand_recursion_g2():
    # g_2 = g_1' + g_1^2 with g_1 = Psi/x, Psi(3/4) = 5/4
    seq = gh_sequence(EpsilonFamily(1, F(1), 2), F(3, 4), 2)
    assert seq[1].text() == "5/3"
    assert seq[2].text() == "61/45"


def test_flat_family_powers_of_lambda():
    lam = F(7, 5)
    seq = gh_sequence(EpsilonFamily(0, lam, 3), F(9, 2), 6)
    for h, v in enumerate(seq):
        assert (v - as_scalar(lam**h)).sign() == Sign.ZERO


def test_g1_is_fprime():
    for fam, x in ((Simanca(), F(2)), (EpsilonFamily(-1, F(2), 2), F(3, 2))):
        seq = gh_sequence(fam, x, 1)
        from radialtyz.potentials import fprime_jet

        assert (seq[1] - fprime_jet(fam, x, 0).coeffs[0]).sign() == Sign.ZERO


def test_g3_closed_form_matches_engine():
    fam = EpsilonFamily(-1, F(1), 2)
    for x in (F(101, 100), F(3, 2), F(2), F(5, 2)):
        closed = g3_closed_eps_minus1(F(1), 2, x)
        engine = gh_sequence(fam, x, 3)[3]
        assert (closed - engine).sign() == Sign.ZERO


def test_g3_closed_form_domain():
    with pytest.raises(DomainError):
        g3_closed_eps_minus1(F(1), 2, F(1))


def test_g3_decreasing_near_boundary():
    values = [g3_closed_eps_minus1(F(1), 2, 1 + F(1, 10**k)).to_ball(256) for k in (1, 2, 3, 4)]
    assert all(v.sign() == Sign.NEGATIVE for v in values)
    for a, b in zip(values, values[1:]):
        assert (b - a).sign() == Sign.NEGATIVE  # strictly decreasing


def test_g4_at_1():
    for n, want in ((2, Sign.POSITIVE), (6, Sign.NEGATIVE), (20, Sign.NEGATIVE)):
        assert g4_at_1_closed(n).sign() == want
    closed = g4_at_1_closed(2)
    engine = gh_sequence(EpsilonFamily(1, F(1), 2), F(1), 4)[4]
    assert (closed - engine).sign() == Sign.ZERO


def test_small_x_divergence():
    rep = small_x_divergence_check(F(1, 2), 2, [3, 4])
    assert rep.h == 2 and rep.passed
    v3 = rep.values[0].to_ball(128)
    assert (v3 + as_scalar(10**5)).sign() == Sign.NEGATIVE  # g_2(1e-3) < -1e5
    ratio = (rep.values[1].to_ball(128)) / v3
    assert (ratio - 50).sign() == Sign.POSITIVE  # leading x^-2 scaling
    rep = small_x_divergence_check(F(3, 2), 2, [3])
    assert rep.values[0].sign() == Sign.NEGATIVE  # g_3 at 1e-3


def test_small_x_rejects_integer_lambda():
    with pytest.raises(DomainError):
        small_x_divergence_check(F(2), 2, [2])


def test_scan_hits_match_table():
    hits = obstruction_scan(EpsilonFamily(1, F(1), 5), [F(6, 5)], 4)
    assert len(hits) == 1 and hits[0].h == 4
    assert_within(hits[0].value.to_ball(128), F(-14, 100), F(5, 1000))
    hits = obstruction_scan(EpsilonFamily(1, F(1), 4), [F(3, 4)], 5)
    assert hits and hits[0].h == 5
    assert_within(hits[0].value.to_ball(128), F(-103, 10), F(5, 100))


def test_scan_flat_no_hits():
    assert obstruction_scan(EpsilonFamily(0, F(1), 3), rational_grid("1/2:3:6"), 6) == []


def test_scan_takes_every_rational_form():
    fam = EpsilonFamily(-1, F(1), 2)
    hits = obstruction_scan(fam, [F(3031, 3000), 2], 3)
    assert [(h.x.text(), h.h) for h in hits] == [("3031/3000", 3)]
    for grid in (["3031/3000", as_scalar(2)], [F(3031, 3000), "3031/3000", 2]):
        assert obstruction_scan(fam, grid, 3) == hits
    with pytest.raises(ValueError):
        obstruction_scan(fam, ["3031/"], 3)


@pytest.mark.parametrize("point", [
    as_scalar(F(3031, 3000)).to_ball(64),  # 1.0103333... +- 5e-20
    nth_root(as_scalar(3), 2),
], ids=["ball", "root"])
def test_scan_refuses_a_ball_or_root_point(point):
    # a ball's printed midpoint is a rational the point does not equal
    with pytest.raises(TypeError, match="scan grid points must be rational"):
        obstruction_scan(EpsilonFamily(-1, F(1), 2), [point], 3)


def test_scan_is_sorted_and_reports_minimal_h_first():
    fam = EpsilonFamily(1, F(1), 2)
    hits = obstruction_scan(fam, [F(3, 4), F(1, 2)], 8)
    xs = [F(h.x.text()) for h in hits]
    assert xs == sorted(xs)
    first_per_x = {}
    for h in hits:
        first_per_x.setdefault(F(h.x.text()), h.h)
    for x, h0 in first_per_x.items():
        assert all(hh.h >= h0 for hh in hits if F(hh.x.text()) == x)


def test_gh_reports_backend_metadata():
    reps = gh_reports(EpsilonFamily(1, F(1), 3), F(3, 4), 3, exact=False, precision_bits=192)
    assert all(r.backend == "ball" and r.precision_bits == 192 for r in reps[1:])
    reps = gh_reports(EpsilonFamily(1, F(1), 2), F(3, 4), 3)
    assert all(r.backend == "rational" for r in reps)


def test_additive_constant_invariance():
    from radialtyz.potentials import fprime_jet

    fam = EpsilonFamily(1, F(1), 2)
    x0 = as_scalar(F(3, 4)).to_ball(256)
    fj = fprime_jet(fam, x0, 7).antiderive(0)
    base = fj.exp()
    shifted = (fj + as_scalar(F(-9, 4)).to_ball(256)).exp()
    scale = shifted.coeffs[0]
    for h in range(1, 8):
        diff = base.derivative(h) - shifted.derivative(h) / scale
        assert abs_le(diff, F(1, 10**55))


def structural_form_gap(lam, n: int, h: int, x, precision_bits=DEFAULT_PRECISION_BITS) -> Scalar:
    """x**h g_h(x)/lam - Psi(x) prod_{j=1..h-1}(lam Psi(x) - j), Psi = (x^n+1)^(1/n).

    The eps = 1 structural form says this gap equals phi_h(x) * x with phi_h
    smooth at 0, so gap/x should stay bounded on meshes x -> 0+.
    """
    lam = F(lam)
    fam = EpsilonFamily(1, lam, n)
    x0 = prepare_point(fam, as_scalar(x), exact=None if n <= 2 else False,
                       precision_bits=precision_bits)
    gh = gh_sequence(fam, x0, h)[h]
    psi = scalar_pow(int_pow(x0, n) + 1, F(1, n))
    prod: Scalar = psi
    for j in range(1, h):
        prod = prod * (psi * lam - j)
    return int_pow(x0, h) * gh / as_scalar(lam) - prod


def test_structural_form_gap_bounded_near_zero():
    # x^h g_h / lam - Psi prod(lam Psi - j) == phi_h(x) x, phi_h smooth at 0
    for lam, n, h in ((F(1), 2, 4), (F(1, 2), 2, 3), (F(1), 3, 4)):
        ratios = []
        for k in range(1, 7):
            x = F(1, 10**k)
            gap = structural_form_gap(lam, n, h, x)
            ratios.append(gap.to_ball(256) / as_scalar(x))
        mag0 = ratios[0] if ratios[0].sign() != Sign.NEGATIVE else -ratios[0]
        bound = (mag0 + 1) * 10
        for r in ratios:
            assert abs_le(r, bound)


def test_rational_grid():
    assert rational_grid("1/2:2:4") == [F(1, 2), F(1), F(3, 2), F(2)]
    assert rational_grid("3:3:1") == [F(3)]
    with pytest.raises(ValueError):
        rational_grid("1:2")
    with pytest.raises(ValueError):
        rational_grid("1:2:0")


def test_recursion_vs_direct_all_families():
    # gh_sequence raises internally on certified disagreement
    cases = [
        (EpsilonFamily(1, F(1), 2), F(3, 4)),
        (EpsilonFamily(-1, F(1), 2), F(3, 2)),
        (EpsilonFamily(1, F(1), 3), F(1, 2)),
        (EpsilonFamily(0, F(3), 2), F(5)),
        (Simanca(), F(4, 5)),
    ]
    for fam, x in cases:
        gh_sequence(fam, x, 10)
        gh_sequence(fam, prepare_point(fam, as_scalar(x), exact=False, precision_bits=256), 10)


@pytest.mark.parametrize("hmax", [1, 4])
def test_gh_sequence_builds_fprime_once(monkeypatch, hmax):
    calls = count_fprime_calls(monkeypatch)
    gh_sequence(EpsilonFamily(1, F(1), 2), F(3, 4), hmax)
    assert len(calls) == 1
