"""The traced-run wrapper: self-time arithmetic, patching and restoring."""
from collections import Counter

import pytest

import radialtyz
import workloads
from radialtyz import curvature, jets, obstruction, potentials, resolvability, scalars
from tracing import Tracer, self_times
from worker import run_traced


def test_self_time_is_duration_minus_children():
    spans = [
        (0, "eval", 0.0, 10.0, -1),
        (0, "a", 1.0, 5.0, 0),  # 4 s, of which its child covers 1.5 s
        (0, "b", 2.0, 3.5, 1),
        (0, "a", 6.0, 7.0, 0),  # a second call of the same layer adds up
        (1, "eval", 20.0, 21.0, -1),  # measured at twice the reference slowness
    ]
    assert self_times(spans, [1.0, 2.0]) == {"eval": 5.0 + 0.5, "a": 2.5 + 1.0, "b": 1.5}


def test_install_patches_every_binding_and_restore_undoes_it():
    mods = (potentials, obstruction, curvature, resolvability)
    fprime, bijet_exp, det = potentials.fprime_jet, jets.bijet_exp, resolvability.det_scalar
    lu, add = curvature.lu_coefficients, scalars.BallScalar._add
    assert all(m.fprime_jet is fprime for m in mods) and resolvability.bijet_exp is bijet_exp
    with Tracer():
        patched = potentials.fprime_jet
        assert patched is not fprime and all(m.fprime_jet is patched for m in mods)
        assert resolvability.bijet_exp is jets.bijet_exp is not bijet_exp
        assert resolvability.det_scalar is not det
        assert radialtyz.lu_coefficients is curvature.lu_coefficients is not lu
        assert scalars.BallScalar._add is not add
    assert all(m.fprime_jet is fprime for m in mods)
    assert resolvability.bijet_exp is jets.bijet_exp is bijet_exp
    assert resolvability.det_scalar is det
    assert radialtyz.lu_coefficients is curvature.lu_coefficients is lu
    assert scalars.BallScalar._add is add


CHEAP = workloads.generate("certify", 11, 10) + [
    inp for inp in workloads.generate("lu-sweep", 11, 10) if inp["dim"] == 2][:2]


@pytest.mark.parametrize("inp", CHEAP, ids=lambda inp: inp["op"])
def test_traced_and_untraced_outputs_are_identical(inp):
    plain = workloads.canonical(inp, workloads.evaluate(inp))
    tracer = Tracer()
    with tracer:
        traced = workloads.canonical(inp, tracer.call("eval", workloads.evaluate, inp))
    assert traced == plain
    names = {span[1] for span in tracer.spans}
    assert "eval" in names and len(names) > 1
    assert all(span[3] is not None and span[3] >= span[2] for span in tracer.spans)


def test_a_traced_eval_records_the_call_and_not_its_checks():
    # minor_matrix computes its g_h jets itself; the check of its first row
    # calls gh_sequence, which must not show up among the program's spans
    inp = next(inp for inp in CHEAP if inp["op"] == "minor")
    tracer = Tracer()
    outcome = run_traced(inp, tracer, cli=False)
    assert outcome.problems == []
    calls = Counter(span[1] for span in tracer.spans)
    assert calls["eval"] == calls["resolvability.minor_matrix"] == 1
    assert calls["obstruction.gh_sequence"] == 0
    bare = Tracer()
    with bare:
        bare.call("eval", workloads.evaluate, inp)
    assert calls == Counter(span[1] for span in bare.spans)
    assert tracer.counts == bare.counts
