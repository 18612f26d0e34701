import json
from fractions import Fraction as F

import pytest

from radialtyz.jets import Jet
from radialtyz.potentials import (
    CustomPotential,
    EguchiHanson,
    EpsilonFamily,
    Simanca,
    check_admissible,
    det_jet_from_fprime,
    f_jet,
    fprime_jet,
    load_custom_potential,
    prepare_point,
    ricci_flat_residual,
)
from radialtyz.scalars import DomainError, Sign, as_scalar

from helpers import assert_exact_zero


def jets_equal(a: Jet, b: Jet) -> bool:
    return all((x - y).sign() == Sign.ZERO for x, y in zip(a.coeffs, b.coeffs))


def test_fprime_examples():
    j = fprime_jet(EpsilonFamily(1, F(1), 2), F(3, 4), 0)
    assert j.coeffs[0].text() == "5/3"
    j = fprime_jet(EpsilonFamily(0, F(7, 3), 5), F(11, 2), 3)
    assert j.coeffs[0].text() == "7/3"
    assert all(c.sign() == Sign.ZERO for c in j.coeffs[1:])
    j = fprime_jet(Simanca(), 1, 1)
    assert [c.text() for c in j.coeffs] == ["2", "-1"]


def test_metric_det_is_lambda_to_n():
    for eps, n, pts in (
        (1, 2, [F(1, 4), F(2), F(9, 7)]),
        (1, 3, [F(1, 2), F(3)]),
        (-1, 2, [F(6, 5), F(2)]),
        (-1, 4, [F(3, 2)]),
        (0, 3, [F(5, 8)]),
    ):
        fam = EpsilonFamily(eps, F(3, 2), n)
        want = F(3, 2) ** n
        for x0 in pts:
            det = det_jet_from_fprime(fprime_jet(fam, x0, 5), n)
            assert (det.coeffs[0] - as_scalar(want)).sign() == Sign.ZERO
            assert all(c.sign() == Sign.ZERO for c in det.coeffs[1:])


def test_metric_det_simanca():
    det = det_jet_from_fprime(fprime_jet(Simanca(), 1, 2), 2)
    assert det.coeffs[0].text() == "2"


def test_ricci_flat_residuals():
    res = ricci_flat_residual(EpsilonFamily(1, F(1), 3), [F(1, 2), F(1), F(2)])
    for r in res:
        assert_exact_zero(r, "epsilon-family residual")
    res = ricci_flat_residual(Simanca(), [F(1)])
    assert res[0].text() == "-1/2"
    res = ricci_flat_residual(EpsilonFamily(0, F(2), 4), [F(7)])
    assert_exact_zero(res[0])


@pytest.mark.parametrize("n", [0, -1])
def test_ricci_flat_residual_rejects_a_dimension_below_1(n):
    custom = CustomPotential.make(F(4, 5), [F(9, 4), F(-25, 16), 2])
    for fam in (custom, Simanca()):
        with pytest.raises(ValueError, match=f"^dimension n must be at least 1, not {n}$"):
            ricci_flat_residual(fam, [F(4, 5)], n)


def test_eguchi_hanson_matches_eps_112():
    for x0 in (F(3, 4), F(1), F(5, 2), F(13, 7)):
        a = fprime_jet(EguchiHanson(), x0, 6)
        b = fprime_jet(EpsilonFamily(1, F(1), 2), x0, 6)
        assert jets_equal(a, b)


def test_custom_roundtrip():
    src = fprime_jet(Simanca(), F(4, 5), 5)
    fam = CustomPotential.make(F(4, 5), src.coeffs)
    again = fprime_jet(fam, F(4, 5), 5)
    assert jets_equal(src, again)
    with pytest.raises(ValueError, match="order"):
        fprime_jet(fam, F(4, 5), 9)


def test_custom_needs_positive_fprime():
    with pytest.raises(DomainError):
        CustomPotential.make(1, [F(-1), F(2)])


def test_admissibility():
    with pytest.raises(DomainError):
        check_admissible(EpsilonFamily(-1, F(1), 2), as_scalar(1))  # boundary
    with pytest.raises(DomainError):
        check_admissible(Simanca(), as_scalar(0))
    with pytest.raises(DomainError):
        fprime_jet(EpsilonFamily(1, F(1), 2), F(-1), 2)
    check_admissible(EpsilonFamily(-1, F(1), 2), as_scalar(F(101, 100)))


def test_f_jet_is_anchored():
    fj = f_jet(EguchiHanson(), F(2), 5)
    assert_exact_zero(fj.coeffs[0], "anchored f(x0)")
    assert (fj.derive().coeffs[0] - fprime_jet(EguchiHanson(), F(2), 0).coeffs[0]).sign() == Sign.ZERO


def test_backend_selection():
    fam3 = EpsilonFamily(1, F(1), 3)
    assert prepare_point(fam3, F(1, 2)).backend == "ball"
    assert prepare_point(fam3, F(1, 2), exact=True).backend == "rational"
    fam2 = EpsilonFamily(1, F(1), 2)
    assert prepare_point(fam2, F(1, 2)).backend == "rational"
    assert prepare_point(Simanca(), F(1, 2)).backend == "rational"
    assert prepare_point(fam2, F(1, 2), exact=False).backend == "ball"


def test_custom_json_ingestion(tmp_path):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"x0": "4/5", "coefficients": ["9/4", "-25/16", "2"]}))
    fam = load_custom_potential(path)
    j = fprime_jet(fam, F(4, 5), 2)
    assert [c.text() for c in j.coeffs] == ["9/4", "-25/16", "2"]
