import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from radialtyz import obstruction
from radialtyz.obstruction import (
    g3_closed_eps_minus1,
    g4_at_1_closed,
    gh_reports,
    gh_sequence,
    obstruction_scan,
    rational_grid,
    small_x_divergence_check,
)
from radialtyz.potentials import EpsilonFamily, Simanca, check_admissible, prepare_point
from radialtyz.scalars import (
    DEFAULT_PRECISION_BITS,
    PRECISION_CAP_BITS,
    DomainError,
    Scalar,
    Sign,
    SignUndeterminedError,
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
    assert rep.h == 2 and rep.growth_certified
    assert all(v.sign() == Sign.NEGATIVE for v in rep.values)
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
    # one step is one point: "a:b:1" would drop b, so it needs a == b
    with pytest.raises(ValueError, match="one grid step is one point"):
        rational_grid("3031/3000:2:1")


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


@pytest.mark.parametrize("hmax", [0, 1, 4])
def test_gh_sequence_builds_fprime_once(monkeypatch, hmax):
    calls = count_fprime_calls(monkeypatch)
    gh_sequence(EpsilonFamily(1, F(1), 2), F(3, 4), hmax)
    assert len(calls) == 1


@pytest.mark.parametrize("hmax", [0, 1, 3])
def test_every_hmax_checks_the_domain(hmax):
    fam = EpsilonFamily(-1, F(1), 2)
    for call in (gh_sequence, gh_reports, lambda fam, x, h: obstruction_scan(fam, [x], h)):
        with pytest.raises(DomainError, match="x > 1"):
            call(fam, F(1, 2), hmax)


EDGE = F(65537, 65536)  # its 16-bit ball reaches 1, its 32-bit one does not


def test_a_ball_reaching_the_domain_edge_is_undetermined_not_out_of_domain():
    fam = EpsilonFamily(-1, F(1), 3)
    x16 = prepare_point(fam, as_scalar(EDGE), precision_bits=16)
    for call in (lambda: check_admissible(fam, x16), lambda: gh_sequence(fam, x16, 3),
                 lambda: g3_closed_eps_minus1(F(1), 3, x16)):
        with pytest.raises(SignUndeterminedError, match="x > 1: the ball of x reaches 1"):
            call()
    # 24 bits place it, and g_3 is certified negative there
    x24 = prepare_point(fam, as_scalar(EDGE), precision_bits=24)
    assert gh_sequence(fam, x24, 3)[3].sign() == Sign.NEGATIVE
    # a ball certified outside the domain is still a domain error
    with pytest.raises(DomainError, match="x > 1"):
        gh_sequence(fam, prepare_point(fam, as_scalar(F(1, 2)), precision_bits=16), 3)


def test_scan_doubles_the_precision_of_a_point_its_ball_cannot_place():
    fam = EpsilonFamily(-1, F(1), 3)
    first = obstruction_scan(fam, [EDGE, 2], 3, precision_bits=16)[0]
    assert (first.x.value, first.h, first.sign, first.precision_bits) == (
        EDGE, 3, Sign.NEGATIVE, 32)
    # a point that even the cap cannot place raises there
    with pytest.raises(SignUndeterminedError, match="x > 1"):
        obstruction_scan(fam, [1 + F(1, 2 ** (2 * PRECISION_CAP_BITS))], 3, precision_bits=16)


def test_g0_is_the_exact_one_on_exact_and_ball_points():
    fam = EpsilonFamily(1, F(1), 3)
    for x0 in (F(3, 4), prepare_point(fam, as_scalar(F(3, 4)), exact=False, precision_bits=64)):
        (g0,) = gh_sequence(fam, x0, 0)
        assert (g0.backend, g0.text()) == ("rational", "1")


@pytest.mark.parametrize("x0, shift, fires", [
    (as_scalar(F(1, 2)), F(1), True),  # an exact point: g_3 in Q(sqrt 5)
    (as_scalar(F(1, 2)).to_ball(256), F(1, 2**10), True),
    (as_scalar(F(1, 2)).to_ball(16), F(1, 2**40), False),  # inside the 16-bit ball's radius
])
def test_the_route_check_fires_when_g3_moves(monkeypatch, x0, shift, fires):
    gh_jets = obstruction.gh_jets

    def moved(fp, hmax):
        out = gh_jets(fp, hmax)
        out[3] = out[3] + shift
        return out

    fam = EpsilonFamily(1, F(1), 2)
    want = gh_sequence(fam, x0, 4)
    monkeypatch.setattr(obstruction, "gh_jets", moved)
    if fires:
        with pytest.raises(ArithmeticError, match="g_3 recursion and direct routes disagree "
                                                  r"\(certified\)"):
            gh_sequence(fam, x0, 4)
    else:
        got = gh_sequence(fam, x0, 4)
        assert got[:3] == want[:3] and got[3] != want[3] and got[4] == want[4]


def test_exact_n2_certify_calls_leave_mpmath_unloaded():
    # quadratic root signs are decided on the rationals, so g_h, scans and
    # minors at exact n = 2 points (values in Q(sqrt 5)) build no ball
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from radialtyz import EpsilonFamily, gh_reports, minor_matrix, obstruction_scan\n"
        "fam = EpsilonFamily(1, 1, 2)\n"
        "assert {r.value.backend for r in gh_reports(fam, F(1, 2), 6)} == {'rational', 'root'}\n"
        "obstruction_scan(EpsilonFamily(-1, 1, 2), [F(3, 2), F(5, 2)], 6)\n"
        "minor_matrix(fam, F(1, 2), 2, 3)\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
