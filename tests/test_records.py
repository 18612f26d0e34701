"""The record types keep the contracts of frozen dataclasses: equal fields
give equal objects with equal hashes, fields cannot be assigned, and the
repr is Name(field=value, ...)."""
from fractions import Fraction as F

import pytest

from radialtyz.curvature import frame_at_x
from radialtyz.jets import HermitianBiJet, Jet
from radialtyz.obstruction import gh_reports, small_x_divergence_check
from radialtyz.potentials import CustomPotential, EguchiHanson, EpsilonFamily, Simanca
from radialtyz.reproduction import ItemResult, PaperReproductionReport
from radialtyz.resolvability import (
    SCOPE_NOTE,
    minor_matrix,
    simanca_embedding_check,
)

RECORDS = {
    "EpsilonFamily": lambda: EpsilonFamily(1, 1, 2),
    "Simanca": Simanca,
    "EguchiHanson": EguchiHanson,
    "CustomPotential": lambda: CustomPotential.make("4/5", ["9/4", "-25/16"]),
    "Jet": lambda: Jet.make(F(3, 4), [1, F(1, 2), 3]),
    "HermitianBiJet": lambda: HermitianBiJet.make(1, [[1, 2], [2, 3]]),
    "ObstructionReport": lambda: gh_reports(EpsilonFamily(1, 1, 2), F(3, 4), 2)[2],
    "DivergenceReport": lambda: small_x_divergence_check(F(1, 2), 2, [1, 2]),
    "ResolvabilityCertificate": lambda: minor_matrix(
        EpsilonFamily(1, 1, 2), x=F(3, 4), lmax=1, hmax=1, exact=False, precision_bits=64),
    "EmbeddingCheckReport": lambda: simanca_embedding_check(3),
    "ItemResult": lambda: ItemResult("embedding-identity", "1/2", "derived", "1/2", "pass", 0.25),
    "PaperReproductionReport": lambda: PaperReproductionReport((RECORDS["ItemResult"](),)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    for field in list(type(a).__annotations__) or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b


def test_records_of_different_classes_differ():
    assert Simanca() != EguchiHanson() and Simanca() == Simanca()
    assert hash(Simanca()) == hash(EguchiHanson())  # hash((),) as a dataclass's


def test_record_repr_and_defaults():
    assert repr(EpsilonFamily(1, 1, 2)) == "EpsilonFamily(eps=1, lam=Fraction(1, 1), n=2)"
    assert repr(Simanca()) == "Simanca()"
    assert EpsilonFamily(eps=1, lam="3/2", n=2) == EpsilonFamily(1, F(3, 2), 2)
    assert RECORDS["ResolvabilityCertificate"]().scope_note == SCOPE_NOTE
    with pytest.raises(TypeError, match="is missing field 'expected'"):
        ItemResult("embedding-identity")
    with pytest.raises(TypeError, match="has no field 'colour'"):
        Simanca(colour="red")
    with pytest.raises(TypeError, match="takes at most 0 fields"):
        Simanca(1)
    with pytest.raises(TypeError, match="got a field twice"):
        ItemResult("embedding-identity", item_id="embedding-identity")
    with pytest.raises(TypeError):
        EpsilonFamily(1, 1, 2, 3)


@pytest.mark.parametrize("args, message", [
    ((2, 1, 2), "eps must be -1, 0 or 1"),
    ((1, 1, 0), "n must be a positive integer"),
    ((1, F(-1, 2), 2), "lambda must be positive"),
])
def test_epsilon_family_validates_its_fields(args, message):
    with pytest.raises(ValueError, match=message):
        EpsilonFamily(*args)


def test_radial_tensor_frame_is_a_frozen_record():
    frame = frame_at_x(Simanca(), 2, F(1, 2), 0)
    assert frame.ric is frame.ric  # a cached property, written past the frozen __setattr__
    assert frame == frame and repr(frame).startswith("RadialTensorFrame(n=2, jet_order=0, ")
    for field in ("n", "g", "ric"):
        with pytest.raises(AttributeError):
            setattr(frame, field, None)
    with pytest.raises(TypeError):
        hash(frame)  # its tensors are lists
