"""Reference entries: exact parts byte for byte, balls by enclosure, signs."""
import copy

import reference
import workloads
from radialtyz.scalars import Sign

GH_BALL = {"op": "gh", "fam": {"family": "epsilon", "eps": 1, "lam": "1", "n": 3},
           "x": "3/4", "hmax": 6, "bits": 256}
GH_EXACT = {"op": "gh", "fam": {"family": "epsilon", "eps": -1, "lam": "3/2", "n": 2},
            "x": "7/4", "hmax": 6, "bits": 256}


def _outputs(inp):
    out = workloads.evaluate(inp)
    res = workloads.result_of(inp, out)
    return workloads.canonical(inp, out), workloads.sign_fields(inp, res)


def test_an_output_matches_its_own_entry():
    for inp in (GH_BALL, GH_EXACT):
        canonical, signs = _outputs(inp)
        assert reference.compare(reference.entry(inp, canonical, signs), inp, canonical, signs) == []


def test_a_changed_exact_value_is_caught():
    canonical, signs = _outputs(GH_EXACT)
    ref = reference.entry(GH_EXACT, canonical, signs)
    changed = copy.deepcopy(canonical)
    row = changed["rows"][4]["value"]
    row["coeffs"][0] = row["coeffs"][0] + "1"
    assert reference.compare(ref, GH_EXACT, changed, signs) == ["exact output differs from the reference"]


def test_a_ball_outside_the_reference_enclosure_is_caught():
    canonical, signs = _outputs(GH_BALL)
    ref = reference.entry(GH_BALL, canonical, signs)
    moved = copy.deepcopy(canonical)
    ball = moved["rows"][5]["value"]
    ball["value"] = str(float(ball["value"]) * 1.001)
    assert reference.compare(ref, GH_BALL, moved, signs) == ["ball 4 misses the reference enclosure"]  # g_0 = 1 is exact


def test_signs_may_sharpen_but_not_change():
    canonical, signs = _outputs(GH_BALL)
    ref = reference.entry(GH_BALL, canonical, signs)
    flipped = [Sign.NEGATIVE if s == Sign.POSITIVE else s for s in signs]
    assert any("certified signs" in p for p in reference.compare(ref, GH_BALL, canonical, flipped))
    ref["signs"] = "u" * len(signs)
    assert reference.compare(ref, GH_BALL, canonical, signs) == []
