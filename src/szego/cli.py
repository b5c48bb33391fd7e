"""Batch command-line front end.

Subcommands: compose, decompose, phi, xi-iterate, verify, report.
Polynomials are given either as comma-separated ascending rational
coefficients ("1,3,1" is 1 + 3x + x^2), as inline JSON, or as a path
ending in .json; the theory-side vectors (--c for decompose) use the
descending-tail convention c_1..c_n of the coefficient maps.  Outputs
are UTF-8 JSON (or CSV for tabulation) written atomically.

Exit status: 0 success, 2 verification failures, 1 usage/parse errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .decompose import (
    MONIC,
    NORMALIZED,
    AffineMap,
    _phi_determinant,
    decompose_exp,
    decompose_poly,
    decomposition_from_json,
    decomposition_map,
    decomposition_to_json,
    recompose,
)
from .exact import _parse_rationals, format_rational, parse_rational
from .poly import ExpPoly, Poly, exp_poly_to_json, iterate_falling_factorial_transform, poly_from_json, poly_to_json
from .roots import RootFindingError
from .ssc import SscContext, compose, exp_compose

DEFAULT_TRIALS = 500


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this front end reserves 2
    for verification failures and reports usage problems with 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json_value(text: str):
    """Parse a JSON document given inline or as a path ending in .json.

    Only a ``.json`` suffix makes the argument a path, so a literal such
    as ``1`` never reads a file that happens to share its name.
    """
    if text.endswith(".json"):
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    return None


def _parse_vector(text: str) -> list[Fraction]:
    """Rational vector from a comma list, inline JSON array, or .json file."""
    doc = _load_json_value(text)
    if doc is not None:
        return _parse_rationals(doc, "a coefficient vector")
    parts = [tok.strip() for tok in text.split(",")]
    if not any(parts):
        raise ValueError("empty coefficient list")
    return [parse_rational(tok) for tok in parts]


def _parse_poly(text: str) -> Poly:
    """Polynomial from ascending comma coefficients, JSON, or a .json file."""
    doc = _load_json_value(text)
    if doc is not None:
        if isinstance(doc, dict) and "exp_poly" in doc:
            doc = doc["exp_poly"]
        return poly_from_json(doc)
    return Poly(_parse_vector(text))


def _write(text: str, path: Optional[str]) -> None:
    """Write text to path atomically (a temporary file in the same
    directory, then os.replace), or to stdout when no path is given.

    The temporary file is created with mode 0o666, so the umask applies
    to it as it would to open(path, "w"); tempfile.mkstemp would make it
    0o600 whatever the umask."""
    if not path:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        # a 64-bit random name; O_EXCL never opens a file already there
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        # name the file asked for, not the hidden temporary one
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(obj, path: Optional[str]) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _emit_csv(payload: dict, path: Optional[str]) -> None:
    """The CSV summary of a verification report document."""
    # only the CSV outputs need these; kept off the import of szego
    import csv

    from .verify import payload_csv_rows

    buf = io.StringIO()
    csv.writer(buf).writerows(payload_csv_rows(payload))
    _write(buf.getvalue(), path)


# -- subcommands --------------------------------------------------------------


def _cmd_compose(args) -> int:
    if args.from_sigma:
        if args.a or args.b:
            raise ValueError("--from-sigma replaces --a/--b")
        doc = _load_json_value(args.from_sigma)
        if doc is None:
            raise ValueError("--from-sigma takes a decomposition JSON or .json file")
        dec = decomposition_from_json(doc)
        result = recompose(dec)
        obj = exp_poly_to_json(result) if isinstance(result, ExpPoly) else poly_to_json(result)
        _emit(obj, args.out)
        return 0
    if not (args.a and args.b):
        raise ValueError("compose needs --a and --b (or --from-sigma)")
    pa = _parse_poly(args.a)
    pb = _parse_poly(args.b)
    if args.exp:
        result = exp_compose(ExpPoly(pa), ExpPoly(pb))
        _emit(exp_poly_to_json(result), args.out)
        return 0
    if args.ambient is None:
        raise ValueError("finite composition needs --ambient")
    composed = compose(pa, pb, SscContext(args.ambient))
    _emit(poly_to_json(composed), args.out)
    return 0


def _cmd_decompose(args) -> int:
    cvec = _parse_vector(args.c)
    want_roots = not args.no_roots
    if args.mode == "finite":
        if args.n is None or args.k is None:
            raise ValueError("finite mode needs --n and --k")
        dec = decompose_poly(cvec, args.n, args.k, want_roots=want_roots)
    else:
        dec = decompose_exp(cvec, args.convention, want_roots=want_roots)
    _emit(decomposition_to_json(dec), args.out)
    return 0


def _map_to_json(amap: AffineMap, det: Fraction, header: dict) -> dict:
    return {
        **header,
        "matrix": [[format_rational(v) for v in row] for row in amap.matrix],
        "offset": [format_rational(v) for v in amap.offset],
        "determinant": format_rational(det),
        "invertible": det != 0,
    }


def _cmd_phi(args) -> int:
    if args.mode == "finite":
        if args.n is None or args.k is None:
            raise ValueError("finite mode needs --n and --k")
        amap = decomposition_map("finite", n=args.n, k=args.k)
        det = _phi_determinant(args.n, args.k)
        header = {"mode": "finite", "n": args.n, "k": args.k}
    else:
        if args.m is None:
            raise ValueError("exp mode needs --m")
        amap = decomposition_map("exp", m=args.m, convention=args.convention)
        # the Stirling matrix is unitriangular in both conventions: s(l, j)
        # is 0 for j > l and s(d, d) = 1, so its determinant is 1
        det = Fraction(1)
        header = {"mode": "exp", "m": args.m, "convention": args.convention}
    _emit(_map_to_json(amap, det, header), args.out)
    return 0


def _cmd_xi_iterate(args) -> int:
    q = iterate_falling_factorial_transform(_parse_poly(args.poly), args.nu)
    text = ",".join(map(format_rational, q.coeffs)) or "0"
    sys.stdout.write(text + "\n")
    if args.out:
        _emit(poly_to_json(q), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import reports_payload, run_suite  # the suites load only for verify

    # commas inside [...] belong to a cell id such as cone_finite[n=1,k=2]
    names = [t.strip() for t in re.split(r",(?![^\[]*\])", args.suite) if t.strip()]
    reports = run_suite(names, trials=args.trials, seed=args.seed, jobs=args.jobs)
    payload = reports_payload(reports)
    _emit(payload, args.out)
    if args.csv:
        _emit_csv(payload, args.csv)
    failed = [r.check_id for r in reports if not r.passed]
    print(
        f"{len(reports)} checks, {len(failed)} failed"
        + (f": {', '.join(failed)}" if failed else ""),
        file=sys.stderr,
    )
    return 2 if failed else 0


def _cmd_report(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        payload = json.load(fh)
    _emit_csv(payload, args.csv)  # payload_csv_rows checks the document
    return 0


# -- parser -------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every later
    call; parsing never changes it."""
    parser = _Parser(prog="szego", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("compose", help="compose two polynomials, or rebuild from factor data")
    c.add_argument("--ambient", type=int, help="ambient degree of the finite composition")
    c.add_argument("--a", help="first operand (ascending coefficients, JSON, or .json file)")
    c.add_argument("--b", help="second operand")
    c.add_argument("--exp", action="store_true", help="compose e^x * A and e^x * B")
    c.add_argument("--from-sigma", help="decomposition JSON (inline or .json file) to recompose")
    c.add_argument("--out", help="write JSON here instead of stdout")
    c.set_defaults(func=_cmd_compose)

    # no abbreviations here: the retired --m would be read as --mode
    d = sub.add_parser(
        "decompose", help="extract factor-offset data from coefficients", allow_abbrev=False
    )
    d.add_argument("--mode", choices=["finite", "exp"], required=True)
    d.add_argument("--c", required=True, help="coefficients c_1..c_n (descending tail)")
    d.add_argument("--n", type=int, help="core degree (finite mode)")
    d.add_argument("--k", type=int, help="shell exponent (finite mode)")
    d.add_argument(
        "--convention",
        choices=[NORMALIZED, MONIC],
        default=NORMALIZED,
        help="exp-mode coefficient convention",
    )
    d.add_argument("--no-roots", action="store_true", help="skip numerical factor offsets")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_decompose)

    f = sub.add_parser("phi", help="print the exact affine coefficient map")
    f.add_argument("--mode", choices=["finite", "exp"], required=True)
    f.add_argument("--n", type=int)
    f.add_argument("--k", type=int)
    f.add_argument("--m", type=int)
    f.add_argument("--convention", choices=[NORMALIZED, MONIC], default=NORMALIZED)
    f.add_argument("--out")
    f.set_defaults(func=_cmd_phi)

    x = sub.add_parser("xi-iterate", help="apply the falling-factorial transform nu times")
    x.add_argument("--poly", required=True, help="ascending coefficients, JSON, or .json file")
    x.add_argument("--nu", type=int, required=True, help="iteration count (>= 0)")
    x.add_argument("--out", help="also write the result as JSON")
    x.set_defaults(func=_cmd_xi_iterate)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all", help="comma-separated check names, or 'all'")
    v.add_argument("--seed", type=int, default=42, help="RNG seed (default: 42)")
    v.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    v.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    v.add_argument("--out", help="write the JSON report here")
    v.add_argument("--csv", help="also write a CSV summary here")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("report", help="re-tabulate a JSON report as CSV")
    r.add_argument("--input", required=True, help="verification report JSON file")
    r.add_argument("--csv", help="CSV output path (default stdout)")
    r.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RootFindingError, ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"szego: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
