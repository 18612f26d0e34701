"""Canonical serialization of scalars and report objects.

Exact rationals serialize as "p/q" (plain "p" for integers); root elements
carry their basis data plus a decimal rendering; balls carry a midpoint
decimal, a radius and the precision. All JSON emission is key-ordered by
construction so identical inputs yield byte-identical output.
"""
from __future__ import annotations

import json
from typing import Any

from .scalars import BallScalar, RationalScalar, RootScalar, Scalar


def scalar_to_json(value: Scalar) -> dict[str, Any]:
    if isinstance(value, RationalScalar):
        return {"backend": "rational", "value": str(value.value)}
    if isinstance(value, RootScalar):
        return {
            "backend": "root",
            "degree": value.degree,
            "radicand": str(value.radicand),
            "coeffs": [str(c) for c in value.coeffs],
            "decimal": value.to_ball(192).midpoint_str(40),
        }
    if isinstance(value, BallScalar):
        return {
            "backend": "ball",
            "precision_bits": value.precision_bits,
            "value": value.midpoint_str(),
            "radius": value.radius_str(),
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def scalar_to_text(value: Scalar) -> str:
    """Flat text: exact rationals verbatim, root elements decimal, and a ball as
    midpoint ± radius, so a ball around 0 does not read as a non-zero value."""
    if isinstance(value, RationalScalar):
        return str(value.value)
    if isinstance(value, RootScalar):
        return value.to_ball(192).midpoint_str(40)
    return f"{value.midpoint_str()} ± {value.radius_str()}"


def scalar_to_decimal(value: Scalar) -> str:
    """30-digit decimal rendering for CSV output (lossy for exact backends)."""
    if isinstance(value, BallScalar):
        return value.midpoint_str(30)
    return value.to_ball(128).midpoint_str(30)


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
