"""The record types keep the contracts of frozen dataclasses: equal fields
give equal objects with equal hashes, fields cannot be assigned, and the
repr is Name(field=value, ...)."""
from fractions import Fraction as F

import pytest

from radialtyz.cli import RunConfig
from radialtyz.curvature import frame_at_x
from radialtyz.jets import HermitianBiJet, Jet
from radialtyz.obstruction import gh_reports, small_x_divergence_check
from radialtyz.potentials import CustomPotential, EguchiHanson, EpsilonFamily, Simanca
from radialtyz.reproduction import ItemResult, PaperReproductionReport
from radialtyz.resolvability import (
    SCOPE_NOTE,
    diastasis_germ,
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
    "DiastasisGerm": lambda: diastasis_germ(Simanca(), 1, 1),
    "ResolvabilityCertificate": lambda: minor_matrix(
        EpsilonFamily(1, 1, 2), x=F(3, 4), lmax=1, hmax=1, exact=False, precision_bits=64),
    "EmbeddingCheckReport": lambda: simanca_embedding_check(3),
    "ItemResult": lambda: ItemResult("embedding-identity", "1/2", "derived", "1/2", "pass", 0.25),
    "PaperReproductionReport": lambda: PaperReproductionReport((RECORDS["ItemResult"](),)),
    "RunConfig": lambda: RunConfig(subcommand="gh-eval", family="simanca", x="1", hmax=3),
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
    cfg = RunConfig(subcommand="scan")
    assert (cfg.precision_bits, cfg.format, cfg.x) == (256, "json", None)
    with pytest.raises(TypeError):
        RunConfig()
    with pytest.raises(TypeError):
        RunConfig(subcommand="scan", colour="red")
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


def test_radial_tensor_frame_is_a_mutable_record():
    frame = frame_at_x(Simanca(), 2, F(1, 2), 0)
    frame.s = F(1, 3)
    assert frame.s == F(1, 3) and frame.ric is frame.ric  # a cached property
    assert frame == frame and repr(frame).startswith("RadialTensorFrame(n=2, s=Fraction(1, 3), ")
    with pytest.raises(TypeError):
        hash(frame)
