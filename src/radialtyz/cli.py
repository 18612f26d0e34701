"""Command-line interface.

Subcommands: gh-eval, scan, lu-coeffs, resolvability, embedding-check,
ricci-flat-check, reproduce-paper. All numeric inputs are rationals in "p/q"
form so exact backends stay usable; output is JSON (default), CSV (decimal,
documented lossy) or an aligned text table. Identical configurations produce
byte-identical JSON.

Exit codes: 0 success / all-pass; 1 certified failure (a reproduction item
contradicts its stated value); 2 inconclusive results present (undetermined
signs at the configured precision, among them a1, a2 or a3 of lu-coeffs, also
a sign the computation itself needed);
3 input error (a usage error, a non-integer RADIALTYZ_PRECISION_BITS, a
missing or malformed --custom-json file, an unwritable --out path, or an
input that validation or the computation rejects), so no result was computed;
each prints one "error:" line on stderr.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from .curvature import lu_coefficients
from .obstruction import ObstructionReport, gh_reports, obstruction_scan, rational_grid
from .potentials import (
    EguchiHanson,
    EpsilonFamily,
    PotentialFamily,
    Simanca,
    check_admissible,
    family_label,
    load_custom_potential,
    ricci_flat_residual,
)
from .reports import dumps, scalar_to_decimal, scalar_to_json, scalar_to_text
from .reproduction import run_items
from .resolvability import minor_matrix, simanca_embedding_check
from .scalars import DEFAULT_PRECISION_BITS, Sign, SignUndeterminedError, as_scalar

PRECISION_ENV = "RADIALTYZ_PRECISION_BITS"
EXIT_INPUT_ERROR = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated, JSON-round-trippable description of one CLI invocation.

    validate() rejects inconsistent combinations (unknown family, eps = -1
    with x <= 1, malformed rationals, an --out that is a directory or whose
    directory does not exist) before any computation starts.
    """

    subcommand: str
    family: str | None = None
    eps: int | None = None
    lam: str | None = None
    n: int | None = None
    dim: int | None = None
    x: str | None = None
    s: str | None = None
    x_grid: str | None = None
    hmax: int | None = None
    lmax: int | None = None
    jet_order: int | None = None
    max_degree: int | None = None
    samples: str | None = None
    item: str | None = None
    custom_json: str | None = None
    precision_bits: int = DEFAULT_PRECISION_BITS
    exact: bool = False
    format: str = "json"
    out: str | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_args(args) -> "RunConfig":
        fields = RunConfig.__dataclass_fields__
        data = {}
        for k, v in vars(args).items():
            if k in fields and v is not None:
                data[k] = v
        return RunConfig(**data)

    def build_family(self) -> PotentialFamily:
        if self.family in (None, "epsilon"):
            if self.eps is None or self.n is None:
                raise ValueError("epsilon family needs --eps and --n")
            return EpsilonFamily(self.eps, Fraction(self.lam or "1"), self.n)
        if self.family == "simanca":
            return Simanca()
        if self.family == "eguchi-hanson":
            return EguchiHanson()
        if self.family == "custom":
            if self.custom_json is None:
                raise ValueError("custom family needs custom_json")
            return load_custom_potential(self.custom_json)
        raise ValueError(f"unknown family {self.family!r}")

    def validate(self) -> None:
        if self.out is not None and (Path(self.out).is_dir() or not Path(self.out).parent.is_dir()):
            raise ValueError(f"--out {self.out} is not a file path in an existing directory")
        if self.format not in ("json", "csv", "table"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.precision_bits < 16:
            raise ValueError("precision_bits must be at least 16")
        needs_family = self.subcommand in (
            "gh-eval", "scan", "lu-coeffs", "resolvability", "ricci-flat-check"
        )
        if not needs_family:
            return
        fam = self.build_family()
        points: list[Fraction] = []
        if self.x is not None:
            points.append(Fraction(self.x))
        if self.s is not None:
            points.append(Fraction(self.s) ** 2)
        if self.x_grid is not None:
            points.extend(rational_grid(self.x_grid))
        if self.samples is not None:
            points.extend(Fraction(tok) for tok in self.samples.split(","))
        for p in points:
            check_admissible(fam, as_scalar(p))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help="ball-backend precision (env %s overrides the default 256)" % PRECISION_ENV,
    )
    p.add_argument(
        "--exact",
        action="store_true",
        help="force exact backends (rationals / single-root extensions) or error",
    )
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=("epsilon", "simanca", "eguchi-hanson", "custom"),
        default="epsilon",
    )
    p.add_argument("--eps", type=int, choices=(-1, 0, 1), default=None)
    p.add_argument("--lam", default="1", help='scaling lambda as "p/q"')
    p.add_argument("--n", type=int, default=None,
                   help="epsilon-family exponent; a custom potential's dimension")
    p.add_argument("--custom-json", default=None, help="custom potential JSON path")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _exact_flag(args) -> bool | None:
    return True if args.exact else None


def _obstruction_csv(reports: list[ObstructionReport]) -> str:
    lines = ["family,x,h,value,sign,backend,precision_bits"]
    for r in reports:
        lines.append(
            f"{r.family},{r.x.text()},{r.h},{scalar_to_decimal(r.value)},"
            f"{r.sign.value},{r.backend},{r.precision_bits or ''}"
        )
    return "\n".join(lines) + "\n"


def _cmd_gh_eval(args) -> int:
    fam = RunConfig.from_args(args).build_family()
    reports = gh_reports(
        fam, Fraction(args.x), args.hmax,
        exact=_exact_flag(args), precision_bits=args.precision_bits,
    )
    rows = [r.to_json_dict() for r in reports]
    if args.format == "json":
        _emit(dumps({"subcommand": "gh-eval", "family": family_label(fam), "x": args.x,
                     "values": rows}), args.out)
    elif args.format == "csv":
        _emit(_obstruction_csv(reports), args.out)
    else:
        lines = [f"g_h at x = {args.x} for {family_label(fam)}"]
        for r in reports:
            lines.append(f"  h={r.h:<3} {scalar_to_text(r.value):<46} [{r.sign.value}]")
        _emit("\n".join(lines) + "\n", args.out)
    if any(r.sign == Sign.UNDETERMINED for r in reports):
        return 2
    return 0


def _cmd_scan(args) -> int:
    fam = RunConfig.from_args(args).build_family()
    grid = rational_grid(args.x_grid)
    hits = obstruction_scan(
        fam, grid, args.hmax, exact=_exact_flag(args), precision_bits=args.precision_bits
    )
    rows = [r.to_json_dict() for r in hits]
    if args.format == "json":
        _emit(dumps({"subcommand": "scan", "family": family_label(fam),
                     "x_grid": args.x_grid, "hmax": args.hmax, "hits": rows}), args.out)
    elif args.format == "csv":
        _emit(_obstruction_csv(hits), args.out)
    else:
        lines = [f"certified-negative g_h over {args.x_grid} (hmax={args.hmax})"]
        for r in hits:
            lines.append(
                f"  x={r.x.text():<12} h={r.h:<3} {scalar_to_text(r.value):<40} [{r.sign.value}]"
            )
        if not hits:
            lines.append("  no hits")
        _emit("\n".join(lines) + "\n", args.out)
    if any(r.sign == Sign.UNDETERMINED for r in hits):
        return 2
    return 0


def _cmd_lu_coeffs(args) -> int:
    fam = RunConfig.from_args(args).build_family()
    dim = args.dim if args.dim is not None else (
        fam.n if isinstance(fam, EpsilonFamily) else 2
    )
    rep = lu_coefficients(
        fam, dim, x=Fraction(args.x), jet_order=args.jet_order,
        exact=_exact_flag(args), precision_bits=args.precision_bits,
    )
    fields = rep.as_dict()
    if args.format == "json":
        payload = {
            "subcommand": "lu-coeffs",
            "family": family_label(fam),
            "dim": dim,
            "x": args.x,
        }
        payload.update({k: scalar_to_json(v) for k, v in fields.items()})
        _emit(dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["name,value"] + [f"{k},{scalar_to_decimal(v)}" for k, v in fields.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"Lu coefficients for {family_label(fam)} at x = {args.x} (dim {dim})"]
        lines += [f"  {k:<14} {scalar_to_text(v)}" for k, v in fields.items()]
        _emit("\n".join(lines) + "\n", args.out)
    if any(fields[k].sign() == Sign.UNDETERMINED for k in ("a1", "a2", "a3")):
        return 2
    return 0


def _cmd_resolvability(args) -> int:
    fam = RunConfig.from_args(args).build_family()
    kwargs = dict(
        lmax=args.lmax, hmax=args.hmax,
        exact=_exact_flag(args), precision_bits=args.precision_bits,
    )
    if args.x is not None:
        cert = minor_matrix(fam, x=Fraction(args.x), **kwargs)
    else:
        cert = minor_matrix(fam, s=Fraction(args.s), **kwargs)
    first = (
        {"l": cert.first_flag[0], "h": cert.first_flag[1]} if cert.first_flag else None
    )
    if args.format == "json":
        payload = {
            "subcommand": "resolvability",
            "family": cert.family,
            "x": cert.x0.text(),
            "lmax": cert.lmax,
            "hmax": cert.hmax,
            "minors": [[scalar_to_json(m) for m in row] for row in cert.minors],
            "verdict": cert.verdict,
            "first_negative": first if cert.verdict == "obstructed" else None,
            "first_flag": first,
            "scope_note": cert.scope_note,
        }
        _emit(dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["l,h,minor,sign"]
        for l, row in enumerate(cert.minors):
            for h, m in enumerate(row):
                lines.append(f"{l},{h},{scalar_to_decimal(m)},{cert.signs[l][h].value}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"minors for {cert.family} at x = {cert.x0.text()}: {cert.verdict}"]
        for l, row in enumerate(cert.minors):
            lines.append("  " + "  ".join(f"{scalar_to_text(m):>20}" for m in row))
        lines.append(f"note: {cert.scope_note}")
        _emit("\n".join(lines) + "\n", args.out)
    if cert.verdict == "inconclusive":
        return 2
    return 0


def _cmd_embedding_check(args) -> int:
    rep = simanca_embedding_check(args.max_degree)
    payload = {
        "subcommand": "embedding-check",
        "max_degree": rep.max_degree,
        "checked": rep.checked,
        "mismatches": [list(m) for m in rep.mismatches],
        "status": "pass" if rep.passed else "fail",
    }
    if args.format == "json":
        _emit(dumps(payload), args.out)
    else:
        _emit(
            f"embedding identity to degree {rep.max_degree}: "
            f"{payload['status']} ({rep.checked} coefficients)\n",
            args.out,
        )
    return 0 if rep.passed else 1


def _cmd_ricci_flat_check(args) -> int:
    fam = RunConfig.from_args(args).build_family()
    samples = [Fraction(tok) for tok in args.samples.split(",")]
    # only a custom potential has no dimension of its own
    residuals = ricci_flat_residual(fam, samples, args.n if args.family == "custom" else None)
    rows = []
    flat = True
    for x, r in zip(samples, residuals):
        s = r.sign()
        flat &= s == Sign.ZERO
        rows.append({"x": str(x), "residual": scalar_to_json(r), "sign": s.value})
    payload = {
        "subcommand": "ricci-flat-check",
        "family": family_label(fam),
        "samples": rows,
        "ricci_flat_on_samples": flat,
    }
    if args.format == "json":
        _emit(dumps(payload), args.out)
    else:
        lines = [f"d/dx log det g for {family_label(fam)}"]
        lines += [f"  x={r['x']:<10} residual={scalar_to_text(v)} [{r['sign']}]"
                  for r, v in zip(rows, residuals)]
        _emit("\n".join(lines) + "\n", args.out)
    if any(r["sign"] == "undetermined" for r in rows):
        return 2
    return 0


def _cmd_reproduce(args) -> int:
    report = run_items(args.item, precision_bits=args.precision_bits)
    if args.format == "json":
        payload = {"subcommand": "reproduce-paper"}
        payload.update(report.to_json_dict())
        _emit(dumps(payload), args.out)
    else:
        lines = []
        for it in report.items:
            lines.append(f"{it.status.upper():<6} {it.item_id:<28} {it.runtime_s:7.2f}s")
        lines.append(f"overall: {report.status}")
        _emit("\n".join(lines) + "\n", args.out)
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means "inconclusive"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="radialtyz",
        description=(
            "obstruction functions, curvature invariants and TYZ coefficients "
            "for radial Kahler metrics"
        ),
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gh-eval", help="g_0..g_hmax at one point")
    _add_family(p)
    p.add_argument("--x", required=True, help='evaluation point x as "p/q"')
    p.add_argument("--hmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_gh_eval)

    p = sub.add_parser("scan", help="certified-negative g_h over a rational grid")
    _add_family(p)
    p.add_argument("--x-grid", required=True, help='grid "a:b:steps", rational endpoints')
    p.add_argument("--hmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("lu-coeffs", help="a1, a2, a3 and all intermediates")
    _add_family(p)
    p.add_argument("--dim", type=int, default=None, help="complex dimension (default: family n)")
    p.add_argument("--x", required=True)
    p.add_argument("--jet-order", type=int, default=4)
    _add_common(p)
    p.set_defaults(fn=_cmd_lu_coeffs)

    p = sub.add_parser("resolvability", help="minor matrix M(l,h) and verdict")
    _add_family(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--s", help='radial point s as "p/q"')
    g.add_argument("--x", help='x = s^2 as "p/q"')
    p.add_argument("--lmax", type=int, default=2)
    p.add_argument("--hmax", type=int, default=4)
    _add_common(p)
    p.set_defaults(fn=_cmd_resolvability)

    p = sub.add_parser("embedding-check", help="flat-embedding coefficient identity")
    p.add_argument("--max-degree", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=_cmd_embedding_check)

    p = sub.add_parser("ricci-flat-check", help="d/dx log det g at sample points")
    _add_family(p)
    p.add_argument("--samples", required=True, help='comma-separated rationals, e.g. "1/2,1,2"')
    _add_common(p)
    p.set_defaults(fn=_cmd_ricci_flat_check)

    p = sub.add_parser("reproduce-paper", help="run every reproduction item")
    p.add_argument("--item", default=None, help="run a single item by id")
    _add_common(p)
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.precision_bits is None:
            env = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION_BITS))
            try:
                args.precision_bits = int(env)
            except ValueError:
                raise ValueError(f"{PRECISION_ENV}={env!r} is not an integer") from None
        RunConfig.from_args(args).validate()
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, SignUndeterminedError) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
