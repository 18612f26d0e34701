"""Command-line interface.

Subcommands: gh-eval, scan, lu-coeffs, resolvability, embedding-check,
ricci-flat-check, reproduce-paper. All numeric inputs are rationals in "p/q"
form so exact backends stay usable; output is JSON (default), CSV (decimal,
documented lossy, with a ball's radius beside its value) or an aligned text
table; only the format asked for is built. Identical configurations produce
byte-identical JSON.

Exit codes: 0 success / all-pass; 1 certified failure (a reproduction item
contradicts its stated value); 2 inconclusive results present (undetermined
signs at the configured precision, among them a1, a2 or a3 of lu-coeffs, also
a sign the computation itself needed);
3 input error (a usage error, a non-integer RADIALTYZ_PRECISION_BITS, a
missing or malformed --custom-json file, an unwritable --out path, an unknown
reproduce-paper --item, or an input that validation or the computation
rejects), so no result was computed;
each prints one "error:" line on stderr.
"""
from __future__ import annotations

import argparse
import io
import os
import re
import sys
from fractions import Fraction
from itertools import chain
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
from .scalars import DEFAULT_PRECISION_BITS, BallScalar, Sign, SignUndeterminedError, as_scalar

PRECISION_ENV = "RADIALTYZ_PRECISION_BITS"
EXIT_INPUT_ERROR = 3


def _validate(args) -> tuple[PotentialFamily | None, list[Fraction]]:
    """Reject an inconsistent invocation before any computation starts and
    return its family and its parsed points (--x, --s squared, the --x-grid
    points or the --samples), (None, []) for a command without the family flags.

    Rejected: --precision-bits or --exact for a command that does not read it,
    an --out that is a directory or whose directory does not exist,
    fewer than 16 bits of precision, eps = -1 with x <= 1, --eps or --lam for
    a family other than epsilon, --n for a family whose dimension is fixed or
    for a custom family where no dimension is read, a custom lu-coeffs with
    neither --n nor --dim, and malformed rationals.
    """
    for flag in args.unread:
        if vars(args)[flag[2:].replace("-", "_")] not in (None, False):
            raise ValueError(f"{flag} does not apply to {args.subcommand}, which does not read it")
    if args.precision_bits is None:
        env = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION_BITS))
        try:
            args.precision_bits = int(env)
        except ValueError:
            raise ValueError(f"{PRECISION_ENV}={env!r} is not an integer") from None
    if args.out is not None and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ValueError(f"--out {args.out} is not a file path in an existing directory")
    if args.precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")
    opts = vars(args)
    if "family" not in opts:
        return None, []
    fam = _build_family(args)
    points: list[Fraction] = []
    if opts.get("x") is not None:
        points.append(Fraction(args.x))
    if opts.get("s") is not None:
        points.append(Fraction(args.s) ** 2)
    if "x_grid" in opts:
        points.extend(rational_grid(args.x_grid))
    if "samples" in opts:
        points.extend(Fraction(tok) for tok in args.samples.split(","))
    for p in points:
        check_admissible(fam, as_scalar(p))
    return fam, points


def _build_family(args) -> PotentialFamily:
    if args.family == "epsilon":
        if args.eps is None or args.n is None:
            raise ValueError("epsilon family needs --eps and --n")
        return EpsilonFamily(args.eps, Fraction(args.lam or "1"), args.n)
    for flag, value in (("--eps", args.eps), ("--lam", args.lam)):
        if value is not None:
            raise ValueError(f"{flag} applies only to the epsilon family, not {args.family}")
    if args.family != "custom":
        if args.n is not None:
            raise ValueError(f"--n does not apply to family {args.family}, whose dimension is 2")
        return Simanca() if args.family == "simanca" else EguchiHanson()
    if args.n is not None and args.subcommand not in ("lu-coeffs", "ricci-flat-check"):
        raise ValueError(f"--n does not apply to {args.subcommand}, which reads no dimension")
    if args.subcommand == "lu-coeffs" and args.n is None and args.dim is None:
        raise ValueError("dimension required for a custom potential: pass --n or --dim")
    if args.custom_json is None:
        raise ValueError("custom family needs custom_json")
    return load_custom_potential(args.custom_json)


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
    p.add_argument("--lam", default=None, help='scaling lambda as "p/q" (default 1)')
    p.add_argument("--n", type=int, default=None,
                   help="epsilon-family exponent; a custom potential's dimension "
                        "(lu-coeffs, ricci-flat-check)")
    p.add_argument("--custom-json", default=None, help="custom potential JSON path")


def _exact_flag(args) -> bool | None:
    return True if args.exact else None


def _radius(value) -> str:
    """A CSV radius cell: the ball's radius, empty for an exact value."""
    return value.radius_str() if isinstance(value, BallScalar) else ""


def _write(args, payload, header: str, rows, lines) -> None:
    """Build the report in the one format asked for and write it to --out or
    stdout: payload() returns the JSON object, rows yields the CSV cells under
    the comma-separated header (a cell holding a comma, a family label, is
    quoted), lines yields the table's lines."""
    if args.format == "json":
        text = dumps(payload())
    elif args.format == "csv":
        import csv  # only the CSV format pays its import

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header.split(","), *rows])
        text = out.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _inconclusive(signs) -> int:
    """Exit code 2 if any sign is undetermined, else 0."""
    return 2 if any(s == Sign.UNDETERMINED for s in signs) else 0


_OBSTRUCTION_HEADER = "family,x,h,value,radius,sign,backend,precision_bits"


def _obstruction_rows(reports: list[ObstructionReport]):
    return (
        [r.family, r.x.text(), r.h, scalar_to_decimal(r.value), _radius(r.value),
         r.sign.value, r.backend, r.precision_bits or ""]
        for r in reports
    )


def _cmd_gh_eval(args, fam: PotentialFamily, points: list[Fraction]) -> int:
    reports = gh_reports(
        fam, points[0], args.hmax, exact=_exact_flag(args), precision_bits=args.precision_bits,
    )
    _write(
        args,
        lambda: {"subcommand": "gh-eval", "family": family_label(fam), "x": args.x,
                 "values": [r.to_json_dict() for r in reports]},
        _OBSTRUCTION_HEADER, _obstruction_rows(reports),
        chain([f"g_h at x = {args.x} for {family_label(fam)}"], (
            f"  h={r.h:<3} {scalar_to_text(r.value):<46} [{r.sign.value}]" for r in reports
        )),
    )
    return _inconclusive(r.sign for r in reports)


def _cmd_scan(args, fam: PotentialFamily, points: list[Fraction]) -> int:
    hits = obstruction_scan(
        fam, points, args.hmax, exact=_exact_flag(args), precision_bits=args.precision_bits
    )
    _write(
        args,
        lambda: {"subcommand": "scan", "family": family_label(fam), "x_grid": args.x_grid,
                 "hmax": args.hmax, "hits": [r.to_json_dict() for r in hits]},
        _OBSTRUCTION_HEADER, _obstruction_rows(hits),
        chain([f"certified-negative g_h over {args.x_grid} (hmax={args.hmax})"], (
            f"  x={r.x.text():<12} h={r.h:<3} {scalar_to_text(r.value):<40} [{r.sign.value}]"
            for r in hits
        ), [] if hits else ["  no hits"]),
    )
    return _inconclusive(r.sign for r in hits)


def _cmd_lu_coeffs(args, fam: PotentialFamily, points: list[Fraction]) -> int:
    # --dim, else --n (the epsilon family's n or a custom potential's dimension,
    # which validation requires), else 2 (Simanca and Eguchi-Hanson)
    dim = args.dim if args.dim is not None else args.n if args.n is not None else 2
    rep = lu_coefficients(
        fam, dim, x=points[0], jet_order=args.jet_order,
        exact=_exact_flag(args), precision_bits=args.precision_bits,
    )
    fields = rep.as_dict()
    _write(
        args,
        lambda: {"subcommand": "lu-coeffs", "family": family_label(fam), "dim": dim, "x": args.x,
                 **{k: scalar_to_json(v) for k, v in fields.items()}},
        "name,value,radius",
        ([k, scalar_to_decimal(v), _radius(v)] for k, v in fields.items()),
        chain([f"Lu coefficients for {family_label(fam)} at x = {args.x} (dim {dim})"], (
            f"  {k:<14} {scalar_to_text(v)}" for k, v in fields.items()
        )),
    )
    return _inconclusive(fields[k].sign() for k in ("a1", "a2", "a3"))


def _cmd_resolvability(args, fam: PotentialFamily, points: list[Fraction]) -> int:
    cert = minor_matrix(fam, points[0], lmax=args.lmax, hmax=args.hmax,
                        exact=_exact_flag(args), precision_bits=args.precision_bits)
    first = {"l": cert.first_flag[0], "h": cert.first_flag[1]} if cert.first_flag else None
    _write(
        args,
        lambda: {
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
        },
        "l,h,minor,radius,sign",
        ([l, h, scalar_to_decimal(m), _radius(m), cert.signs[l][h].value]
         for l, row in enumerate(cert.minors) for h, m in enumerate(row)),
        chain([f"minors for {cert.family} at x = {cert.x0.text()}: {cert.verdict}"], (
            "  " + "  ".join(f"{scalar_to_text(m):>20}" for m in row) for row in cert.minors
        ), [f"note: {cert.scope_note}"]),
    )
    return 2 if cert.verdict == "inconclusive" else 0


def _cmd_embedding_check(args, fam: None, points: list[Fraction]) -> int:
    rep = simanca_embedding_check(args.max_degree)
    status = "pass" if rep.passed else "fail"
    _write(
        args,
        lambda: {"subcommand": "embedding-check", "max_degree": rep.max_degree,
                 "checked": rep.checked, "mismatches": [list(m) for m in rep.mismatches],
                 "status": status},
        "max_degree,checked,mismatches,status",
        [[rep.max_degree, rep.checked, len(rep.mismatches), status]],
        [f"embedding identity to degree {rep.max_degree}: {status} ({rep.checked} coefficients)"],
    )
    return 0 if rep.passed else 1


def _cmd_ricci_flat_check(args, fam: PotentialFamily, points: list[Fraction]) -> int:
    # --n is the epsilon family's own n, a custom potential's dimension, or absent
    residuals = ricci_flat_residual(fam, points, args.n)
    signs = [r.sign() for r in residuals]
    samples = list(zip(points, residuals, signs))
    _write(
        args,
        lambda: {
            "subcommand": "ricci-flat-check",
            "family": family_label(fam),
            "samples": [{"x": str(x), "residual": scalar_to_json(r), "sign": s.value}
                        for x, r, s in samples],
            "ricci_flat_on_samples": all(s == Sign.ZERO for s in signs),
        },
        "x,residual,radius,sign",
        ([str(x), scalar_to_decimal(r), _radius(r), s.value] for x, r, s in samples),
        chain([f"d/dx log det g for {family_label(fam)}"], (
            f"  x={str(x):<10} residual={scalar_to_text(r)} [{s.value}]" for x, r, s in samples
        )),
    )
    return _inconclusive(signs)


def _cmd_reproduce(args, fam: None, points: list[Fraction]) -> int:
    report = run_items(args.item, precision_bits=args.precision_bits)
    _write(
        args,
        lambda: {"subcommand": "reproduce-paper", **report.to_json_dict()},
        "item,status,runtime_s",
        ([it.item_id, it.status, round(it.runtime_s, 3)] for it in report.items),
        chain((f"{it.status.upper():<6} {it.item_id:<28} {it.runtime_s:7.2f}s"
               for it in report.items), [f"overall: {report.status}"]),
    )
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means "inconclusive"."""

    def _parse_optional(self, arg_string):
        # a negative fraction such as "-1/2" is a value, as argparse takes "-2"
        if re.fullmatch(r"-\d+/\d+", arg_string):
            return None
        return super()._parse_optional(arg_string)

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
    ap.set_defaults(unread=())  # the common flags a command does not read
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
    p.add_argument("--dim", type=int, default=None,
                   help="complex dimension (default: --n, else 2 for the dimension-2 families)")
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
    p.set_defaults(fn=_cmd_embedding_check, unread=("--precision-bits", "--exact"))

    p = sub.add_parser("ricci-flat-check", help="d/dx log det g at sample points")
    _add_family(p)
    p.add_argument("--samples", required=True, help='comma-separated rationals, e.g. "1/2,1,2"')
    _add_common(p)
    p.set_defaults(fn=_cmd_ricci_flat_check, unread=("--precision-bits", "--exact"))

    p = sub.add_parser("reproduce-paper", help="run every reproduction item")
    p.add_argument("--item", default=None, help="run a single item by id")
    _add_common(p)
    p.set_defaults(fn=_cmd_reproduce, unread=("--exact",))

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, *_validate(args))
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, SignUndeterminedError) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
