import hashlib
import json
import sys
from fractions import Fraction

from radialtyz import potentials
from radialtyz.curvature import frame_at_x

from radialtyz.reports import scalar_to_json
from radialtyz.scalars import BallScalar, Scalar, Sign, abs_le, as_scalar, int_pow


def assert_exact_zero(value: Scalar, what: str = "value"):
    assert value.sign() == Sign.ZERO, f"{what} is not exactly zero: {value!r}"


def assert_within(value: Scalar, target, tol: Fraction, what: str = "value"):
    diff = value - as_scalar(target)
    assert abs_le(diff, tol), f"{what} = {value!r} not within {tol} of {target}"


def scalars_digest(values) -> str:
    """sha256 over scalar_to_json of each value and, for a ball, its exact endpoints.

    scalar_to_json rounds a ball to a decimal midpoint and a 3-digit radius,
    so the endpoints' (sign, mantissa, exponent, bitcount) go in as well."""
    payload = []
    for v in values:
        item = scalar_to_json(v)
        if isinstance(v, BallScalar):
            item["mpi"] = [[s, str(m), e, bc] for s, m, e, bc in v.mpi]
        payload.append(item)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def count_fprime_calls(monkeypatch) -> list:
    """Record the arguments of every fprime_jet call, patched at every module
    binding, as the benchmark's tracer patches it."""
    original = potentials.fprime_jet
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "radialtyz" and getattr(mod, "fprime_jet", None) is original:
            monkeypatch.setattr(mod, "fprime_jet", counted)
    return calls


def frame_at_s(fam, n: int, s, jet_order: int = 0):
    """The frame at x = s*s, with s recorded for full_value."""
    s = as_scalar(s)
    frame = frame_at_x(fam, n, s * s, jet_order)
    frame.s = s
    return frame


def is_hermitian_symmetric(bijet) -> bool:
    """c_ij = c_ji exactly for every coefficient of a HermitianBiJet."""
    c = bijet.coeffs
    return all((c[i][j] - c[j][i]).sign() == Sign.ZERO for i in range(len(c)) for j in range(i))


def coeff_unscaled(germ, i: int, j: int) -> Scalar:
    """A diastasis germ coefficient in the unscaled offsets (z1 - s, z̄1 - s)."""
    return germ.bijet.coeff(i, j) / int_pow(germ.s, i + j)
