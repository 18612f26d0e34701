"""The committed reference outputs for the default seed, and the comparison.

One JSON line per input: a digest of the input, a digest of every exact
part of the canonical output, each ball as [midpoint to 8 digits, a radius
widened to cover that rounding, precision], and the certified sign letters.
Exact parts must match byte for byte. A ball must intersect its reference
enclosure at the same precision. A sign the reference certified must come
out the same; a sign the reference left undetermined may now be certified.
"""
from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from radialtyz.scalars import Sign

from workloads import ball_bounds

DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent / "reference"
LETTER = {Sign.POSITIVE: "p", Sign.NEGATIVE: "n", Sign.ZERO: "z", Sign.UNDETERMINED: "u"}


def path(workload: str) -> Path:
    return HERE / f"seed{DEFAULT_SEED}-{workload}.jsonl"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _split(node, balls: list):
    """The canonical output with balls pulled out and sign fields dropped."""
    if isinstance(node, dict):
        if node.get("backend") == "ball" and "radius" in node:
            balls.append(node)
            return "ball"
        return {k: _split(v, balls) for k, v in node.items() if k != "sign"}
    if isinstance(node, list):
        return [_split(v, balls) for v in node]
    return node


def _decimal(q: Fraction, fmt: str) -> str:
    return format(Decimal(q.numerator) / Decimal(q.denominator), fmt)


def entry(inp: dict, canonical: dict, signs: list[Sign]) -> dict:
    balls: list[dict] = []
    exact = _split(canonical, balls)
    rows = []
    for b in balls:
        mid, rad = ball_bounds(b)
        mid8 = _decimal(mid, ".7e")
        # 1% over the widened radius outweighs rounding it to 3 digits
        rad3 = _decimal((rad + abs(mid - Fraction(mid8))) * Fraction(101, 100), ".2e")
        rows.append([mid8, rad3, b["precision_bits"]])
    return {"input": digest(inp), "exact": digest(exact), "balls": rows,
            "signs": "".join(LETTER[s] for s in signs)}


def compare(ref: dict, inp: dict, canonical: dict, signs: list[Sign]) -> list[str]:
    if ref["input"] != digest(inp):
        return ["reference is for another input"]
    balls: list[dict] = []
    bad = []
    if digest(_split(canonical, balls)) != ref["exact"]:
        bad.append("exact output differs from the reference")
    if len(balls) != len(ref["balls"]):
        return bad + ["ball count differs from the reference"]
    for i, (b, (m, r, bits)) in enumerate(zip(balls, ref["balls"])):
        mid, rad = ball_bounds(b)
        if bits != b["precision_bits"] or abs(mid - Fraction(m)) > rad + Fraction(r):
            bad.append(f"ball {i} misses the reference enclosure")
    got = "".join(LETTER[s] for s in signs)
    if len(got) != len(ref["signs"]) or any(w != "u" and g != w for g, w in zip(got, ref["signs"])):
        bad.append(f"certified signs {got} differ from the reference {ref['signs']}")
    return bad


def load(workload: str) -> list[dict]:
    p = path(workload)
    if not p.is_file():
        return []
    return [json.loads(line) for line in p.read_text().splitlines() if line]
