import hashlib
import json
import sys
from fractions import Fraction

from radialtyz import potentials
from radialtyz.jets import HermitianBiJet
from radialtyz.reports import scalar_to_json
from radialtyz.resolvability import diastasis_germ_at_x
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
    binding, as the benchmark's tracer patches it. A binding is a name in a
    module's own namespace: the package reads fprime_jet through from potentials."""
    original = potentials.fprime_jet
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "radialtyz" and vars(mod).get("fprime_jet") is original:
            monkeypatch.setattr(mod, "fprime_jet", counted)
    return calls


def is_hermitian_symmetric(bijet) -> bool:
    """c_ij = c_ji exactly for every coefficient of a HermitianBiJet."""
    c = bijet.coeff
    return all((c(i, j) - c(j, i)).sign() == Sign.ZERO
               for i in range(bijet.order + 1) for j in range(i))


def compose_through_inner(g, order: int) -> HermitianBiJet:
    """g(x) at x = x0 (1 + u)(1 + v), for g the jet at x0 = g.x0 of order >= 2L,
    L = order, by an independent route: the inner series x0 (1 + u + v + uv),
    the powers N, ..., N**(2L) of its nilpotent part N by products, and each
    c_ij the left fold g_0 [i = j = 0] + N_ij g_1 + (N**2)_ij g_2 + ... of
    Scalar operations."""
    x0 = g.x0
    n = HermitianBiJet.make(x0, [[x0 if 0 < i + j and i < 2 and j < 2 else 0
                                  for j in range(order + 1)] for i in range(order + 1)])
    powers = [n]
    while len(powers) < 2 * order:
        powers.append(powers[-1] * n)
    rows = []
    for i in range(order + 1):
        rows.append([])
        for j in range(order + 1):
            acc = g.value() if i == j == 0 else as_scalar(0)
            for p, c in zip(powers, g.coeffs[1:]):
                acc = acc + p.coeff(i, j) * c
            rows[i].append(acc)
    return HermitianBiJet.make(x0, rows)


def germ_at_s(fam, s, order: int):
    """The diastasis germ of the given order at x0 = s*s, in the scaled offsets."""
    s = as_scalar(s)
    fp = potentials.fprime_jet(fam, s * s, max(2 * order - 1, 0))
    return diastasis_germ_at_x(fp, order)


def coeff_unscaled(germ, s, i: int, j: int) -> Scalar:
    """A diastasis germ coefficient in the unscaled offsets (z1 - s, z̄1 - s)."""
    return germ.coeff(i, j) / int_pow(as_scalar(s), i + j)
