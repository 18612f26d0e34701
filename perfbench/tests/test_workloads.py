"""Seeded generators and the output checks, including that bad outputs count."""
import dataclasses
from fractions import Fraction

import pytest
from mpmath.libmp import mpf_cmp

import worker
import workloads
from radialtyz.scalars import as_scalar


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.generate(workload, 7, 40)
    assert workloads.generate(workload, 7, 40) == first
    assert workloads.generate(workload, 8, 40) != first


def test_blocks_fix_the_mix():
    inputs = workloads.generate("lu-sweep", 3, 50)
    dims = [inp["dim"] for inp in inputs]
    for start in range(0, 50, 10):
        assert sorted(dims[start:start + 10]) == [2] * 7 + [3] * 3


def _lu_simanca():
    return {"op": "lu", "fam": {"family": "simanca"}, "dim": 2, "x": "3/2", "exact": None, "bits": 256}


def _lu_ball():
    return {"op": "lu", "fam": {"family": "epsilon", "eps": 1, "lam": "1", "n": 2}, "dim": 2,
            "x": "3/4", "exact": False, "bits": 256}


def test_sound_outputs_pass_their_checks():
    for inp in (_lu_simanca(), _lu_ball()):
        out = workloads.evaluate(inp)
        assert workloads.check(inp, workloads.result_of(inp, out)) == []


def _run_one(monkeypatch, inp, perturb):
    """One pass of the closed loop with evaluate's output perturbed."""
    evaluate = workloads.evaluate
    monkeypatch.setattr(workloads, "evaluate", lambda i: perturb(evaluate(i)))
    raw = worker.loop("lu-sweep", 1, 0.0, [inp], trace=False)
    return worker.end_to_end(raw, "lu-sweep")["failed_frac"][0], raw["problems"]


def test_perturbed_exact_value_counts_as_failed(monkeypatch):
    bump = lambda rep: dataclasses.replace(rep, a3=rep.a3 + Fraction(1, 10**9))
    failed_frac, problems = _run_one(monkeypatch, _lu_simanca(), bump)
    assert failed_frac == 1.0
    assert any("a3 != 0" in p for p in problems)


def test_ball_excluding_its_closed_form_counts_as_failed(monkeypatch):
    shift = lambda rep: dataclasses.replace(rep, R2=rep.R2 + as_scalar(Fraction(1, 10**6)))
    failed_frac, problems = _run_one(monkeypatch, _lu_ball(), shift)
    assert failed_frac == 1.0
    assert any("closed_forms_eps" in p for p in problems)


def test_cli_json_balls_enclose_the_value():
    out = workloads.evaluate(_lu_ball())
    for value in out.as_dict().values():
        back = workloads.json_to_scalar(workloads.scalar_to_json(value))
        assert back.precision_bits == value.precision_bits
        assert mpf_cmp(back.mpi[0], value.mpi[0]) <= 0 <= mpf_cmp(back.mpi[1], value.mpi[1])
