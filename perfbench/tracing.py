"""Spans and counters around calls into radialtyz, from outside the package.

Tracer.install() replaces each traced function at every module binding that
holds it (fprime_jet, for one, is imported by name into obstruction,
curvature and resolvability) and each traced method on its class; restore()
puts the originals back. A span is (eval id, name, start, end, parent index),
kept in memory and written out by the caller at the end of the run. A
layer's self time is its span's duration minus the time its child spans
cover; spans nest (one thread, one call at a time), so children never
overlap and that cover is the sum of their durations.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from radialtyz import curvature, jets, scalars
from radialtyz.scalars import Sign

# (module, function, span name): module-level functions, patched at every binding
FUNCTION_SPANS = [
    ("potentials", "fprime_jet", "potentials.fprime_jet"),
    ("obstruction", "gh_sequence", "obstruction.gh_sequence"),
    ("curvature", "frame_at_x", "curvature.frame"),
    ("curvature", "invariants_from_frame", "curvature.invariants"),
    ("curvature", "radial_laplacian_jet", "curvature.laplacian"),
    ("curvature", "lu_coefficients", "curvature.lu_rest"),
    ("resolvability", "diastasis_germ_at_x", "resolvability.germ"),
    ("resolvability", "det_scalar", "resolvability.det"),
    ("resolvability", "minor_matrix", "resolvability.minor_matrix"),
    ("jets", "bijet_exp", "jets.bijet_exp"),
    ("jets", "bijet_compose_univariate", "jets.bijet_compose"),
    ("reports", "dumps", "reports.dumps"),
]
METHOD_SPANS = [
    (jets.Jet, "exp", "jets.exp"),
    (jets.Jet, "pow", "jets.pow"),
    (jets.Jet, "log", "jets.log"),
    (curvature.PhiPartialTable, "__init__", "curvature.phi_table"),
    (curvature.PhiPartialTable, "partial", "curvature.phi_table"),
]
FUNCTION_COUNTS = [
    ("potentials", "f_jet", "potentials.f_jet_calls"),
    ("potentials", "prepare_point", "potentials.prepare_point_calls"),
]
METHOD_COUNTS = (
    [(scalars.BallScalar, m, "scalars.ball_ops") for m in ("_add", "_mul", "_inverse")]
    + [(scalars.RationalScalar, m, "scalars.rational_ops") for m in ("_add", "_mul", "_inverse")]
    + [(scalars.RootScalar, m, "scalars.root_ops") for m in ("_add", "_mul", "_inverse")]
    + [(cls, "to_ball", "scalars.promotions") for cls in (scalars.RationalScalar, scalars.RootScalar)]
)
SIGN_CLASSES = (scalars.RationalScalar, scalars.RootScalar, scalars.BallScalar)
ROOT_SPAN = "eval"  # one per eval: the request every other span hangs under
TRACE_MARK = "PERFBENCH_TRACE "  # prefixes the traced CLI child's last stderr line


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (eval id, name, start, end, parent index)
        self.counts: Counter = Counter()
        self.eval_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self.eval_id, name, perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        eid, name, start, _, parent = self.spans[idx]
        self.spans[idx] = (eid, name, start, perf_counter(), parent)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; with no span open this is a request root."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _sign(self, fn):
        counts = self.counts

        def sign(value):
            s = fn(value)
            counts["scalars.sign_queries"] += 1
            if s is Sign.UNDETERMINED:
                counts["scalars.sign_undetermined"] += 1
            return s
        return sign

    def _scan(self, fn):
        counts = self.counts

        def obstruction_scan(fam, x_grid, *args, **kwargs):
            before = counts["potentials.prepare_point_calls"]
            try:
                return fn(fam, x_grid, *args, **kwargs)
            finally:
                points = len(set(x_grid))
                counts["obstruction.scan_escalations"] += (
                    counts["potentials.prepare_point_calls"] - before - points
                )
        return obstruction_scan

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "radialtyz" or name.startswith("radialtyz."))]

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> "Tracer":
        mods = {m.__name__: m for m in self._modules()}
        # counters first, so the escalation wrapper sees prepare_point counted
        for mod, fn, name in FUNCTION_COUNTS:
            original = getattr(mods["radialtyz." + mod], fn)
            self._rebind(original, self._count(name, original))
        for mod, fn, name in FUNCTION_SPANS:
            original = getattr(mods["radialtyz." + mod], fn)
            self._rebind(original, self._span(name, original))
        scan = mods["radialtyz.obstruction"].obstruction_scan
        self._rebind(scan, self._scan(scan))
        for cls, attr, name in METHOD_SPANS:
            self._patch_method(cls, attr, self._span(name, cls.__dict__[attr]))
        for cls, attr, name in METHOD_COUNTS:
            self._patch_method(cls, attr, self._count(name, cls.__dict__[attr]))
        for cls in SIGN_CLASSES:
            self._patch_method(cls, "sign", self._sign(cls.__dict__["sign"]))
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- merging spans from a traced child process ----------------------------

    def adopt(self, spans: list, counts: dict, parent: int) -> None:
        """Append a child process's spans, its roots under span `parent`."""
        base = len(self.spans)
        for _, name, start, end, p in spans:
            self.spans.append((self.eval_id, name, start, end, parent if p < 0 else p + base))
        self.counts.update(counts)


def self_times(spans: list, slowness: list[float]) -> Counter:
    """Total self time per span name: duration minus the children's cover,
    each span's divided by slowness[its eval id]."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for (eid, name, start, end, _), child in zip(spans, covered):
        out[name] += ((end - start) - child) / slowness[eid]
    return out
