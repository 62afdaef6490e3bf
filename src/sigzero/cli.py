"""Command-line front end.

Subcommands: `block load FILE`, `block show KEY`, `signature`, `unitary`,
`scan`, `hyperplanes`, `jantzen FILE --at p/q`.  A KEY is "group:c1,c2,..."
with the canonical infinitesimal-character coordinates, e.g. "sl2r:3/2".

Conventions.  Rationals are parsed and printed as "p/q" or integers; no
floats.  stdout carries data only, diagnostics go to stderr.  JSON output is
byte-deterministic (sorted keys, canonical rational strings).  `--trace`
streams line-delimited JSON crossing records ahead of the result.  The
colon-separated SIGZERO_BLOCK_PATH variable extends the search path for
block files and for the matrix file of `jantzen FILE`.  `scan` partitions its
segment at the reducibility walls that the deformation of its top crosses and
reports one verdict per facet, in segment order: at the wall itself for a
point, at the midpoint for an open interval, which is irreducible because
`register` refuses a library with a reducible element off the walls.

Exit codes: 0 success, 2 missing block data, 3 invalid input or failed
validation, 4 unsupported group or parameter.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .blocks import (
    Block,
    BlockProvider,
    block_to_json_obj,
    group_model,
    parse_block,
    split_components,
)
from .errors import (
    MissingBlock,
    SigzeroError,
    UnsupportedError,
    ValidationError,
)
from .jantzen import jantzen_levels, level_signatures, parse_ratmatrix
from .params import canonical_json, crossing_times, frac_str, hyperplanes, parse_frac
from .sigengine import SignatureChar, deform_to_zero, unitary_test

BLOCK_PATH_VAR = "SIGZERO_BLOCK_PATH"

__all__ = ["main", "Session"]


class Session:
    """CLI state: a block provider primed with ingested libraries."""

    def __init__(self, block_files: Sequence[str] = ()):
        self.provider = BlockProvider()
        for path in block_files:
            self.load_file(path)

    def load_file(self, path: str) -> Tuple[str, List[Block]]:
        """Parse, decompose and register one block-library file.  The key
        already registered stays untouched; a duplicate is an error."""
        with open(_resolve_block_file(path), "rb") as fh:
            data = fh.read()
        blk = parse_block(data)
        comps = split_components(blk)
        self.provider.register(comps)
        key = "%s:%s" % (
            blk.group,
            ",".join(frac_str(x) for x in blk.inf_char),
        )
        return key, comps


def _resolve_block_file(path: str) -> str:
    if os.path.exists(path):
        return path
    for d in os.environ.get(BLOCK_PATH_VAR, "").split(os.pathsep):
        if not d:
            continue
        cand = os.path.join(d, path)
        if os.path.exists(cand):
            return cand
    raise ValidationError("block file not found: %s" % path)


def _print_table(rows: Sequence[Sequence[str]]) -> None:
    if not rows:
        return
    widths = [
        max(len(r[c]) for r in rows if c < len(r))
        for c in range(max(len(r) for r in rows))
    ]
    for r in rows:
        line = "  ".join(
            cell.ljust(widths[i]) if i + 1 < len(r) else cell
            for i, cell in enumerate(r)
        )
        print(line.rstrip())


def _line(args, nu: Fraction):
    """The parameter at nu on the principal series line that --group picks
    with --parity or --m."""
    return group_model(args.group).line(args.parity, args.m, nu)


def _signature_rows(sc: SignatureChar) -> List[List[str]]:
    return [[label.text, str(w)] for label, w in sc.items()]


# ---------------------------------------------------------------------------
# subcommands

def cmd_block_load(args) -> int:
    session = Session(args.block or [])
    key, comps = session.load_file(args.file)
    n = sum(len(c.elements) for c in comps)
    if args.format == "json":
        print(canonical_json({"key": key, "components": len(comps), "elements": n}))
    else:
        print("loaded %s (%d components, %d elements)" % (key, len(comps), n))
    return 0


def _parse_key(key: str) -> Tuple[str, Tuple[Fraction, ...]]:
    if ":" not in key:
        raise ValidationError('block key must look like "group:c1,c2"')
    group, _, coords = key.partition(":")
    return group, tuple(parse_frac(c) for c in coords.split(","))


def cmd_block_show(args) -> int:
    session = Session(args.block or [])
    group, ic = _parse_key(args.key)
    comps, label = session.provider.get(group, ic), group_model(group).label
    if args.format == "json":
        print(canonical_json([block_to_json_obj(c) for c in comps]))
        return 0
    for i, c in enumerate(comps):
        print(
            "component %d: %d elements at %s"
            % (i, len(c.elements), ",".join(frac_str(x) for x in c.inf_char))
        )
        rows = [["id", "label", "length", "orient", "tau"]]
        for e in c.elements:
            rows.append(
                [
                    str(e.id),
                    label(e.param),
                    str(e.length),
                    str(e.orient),
                    "-" if e.tau is None else "{%s}" % ",".join(map(str, sorted(e.tau))),
                ]
            )
        _print_table(rows)
        for (r, col), poly in sorted(c.Q.items()):
            print("Q[%d,%d] = %s" % (r, col, _poly_str(poly)))
    return 0


def _poly_str(coeffs: Sequence[int]) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "q" if i == 1 else "q^%d" % i
            parts.append(var if c == 1 else "%d %s" % (c, var))
    return " + ".join(parts) if parts else "0"


def _trace_sink(enabled: bool) -> Optional[Callable[[dict], None]]:
    if not enabled:
        return None

    def sink(rec: dict) -> None:
        sys.stdout.write(canonical_json(rec) + "\n")

    return sink


def cmd_signature(args) -> int:
    session = Session(args.block or [])
    g = _line(args, parse_frac(args.nu))
    sc = deform_to_zero(
        g, session.provider, group=args.group, trace=_trace_sink(args.trace)
    )
    if args.format == "json":
        print(canonical_json(sc.to_json_obj()))
    else:
        _print_table(_signature_rows(sc))
    return 0


def cmd_unitary(args) -> int:
    session = Session(args.block or [])
    g = _line(args, parse_frac(args.nu))
    res = unitary_test(g, session.provider, group=args.group)
    if args.format == "json":
        print(
            canonical_json(
                {
                    "verdict": res.verdict,
                    "reason": res.reason,
                    "B": res.B.to_json_obj(),
                    "epsilon": res.epsilon,
                    "violations": res.violations,
                }
            )
        )
        return 0
    print("verdict: %s" % res.verdict)
    if res.reason:
        print("reason: %s" % res.reason)
    bad, epsilon = set(res.violations), res.epsilon
    rows = []
    for label, w in res.B.items():
        eps = epsilon.get(label.text)
        rows.append(
            [
                label.text,
                str(w),
                "" if eps is None else "eps=%d" % eps,
                "*" if label.text in bad else "",
            ]
        )
    _print_table(rows)
    return 0


def cmd_scan(args) -> int:
    session = Session(args.block or [])
    lo, hi = parse_frac(getattr(args, "from")), parse_frac(args.to)
    if lo > hi:
        raise ValidationError("empty segment: %s > %s" % (lo, hi))
    if lo < 0:
        raise ValidationError("scan segment must lie in nu >= 0")

    def verdict(nu: Fraction) -> str:
        return unitary_test(_line(args, nu), session.provider, group=args.group).verdict

    def point(nu: Fraction) -> dict:
        return {"kind": "point", "at": frac_str(nu), "verdict": verdict(nu)}

    def interval(a: Fraction, b: Fraction) -> dict:
        return {"kind": "interval", "from": frac_str(a), "to": frac_str(b),
                "verdict": verdict((a + b) / 2)}

    if lo == hi:
        facets = [point(lo)]
    else:
        # the walls of the segment are the points where the deformation of
        # its top crosses a reducibility wall
        g_hi = _line(args, hi)
        cartan = group_model(args.group).cartan(g_hi.discrete.cartan)
        facets, prev = [], lo
        for w in sorted(t * hi for t in crossing_times(g_hi, cartan)):
            if w < lo:
                continue
            if prev < w:
                facets.append(interval(prev, w))
            facets.append(point(w))
            prev = w
        if prev < hi:
            facets.append(interval(prev, hi))
    if args.format == "json":
        print(canonical_json({"facets": facets}))
        return 0
    rows = []
    for f in facets:
        where = (
            "{%s}" % f["at"]
            if f["kind"] == "point"
            else "(%s, %s)" % (f["from"], f["to"])
        )
        rows.append([where, f["verdict"]])
    _print_table(rows)
    return 0


def cmd_hyperplanes(args) -> int:
    radius = parse_frac(args.radius)
    if radius < 0:
        raise ValidationError("--radius must be >= 0 (got %s)" % frac_str(radius))
    d = _line(args, Fraction(0)).discrete
    walls = [
        {"level": frac_str(h.level), "kind": h.kind,
         "covector": [frac_str(x) for x in h.phi_covector]}
        for h in hyperplanes(d, group_model(args.group).cartan(d.cartan), radius)
    ]
    if args.format == "json":
        print(canonical_json({"walls": walls}))
        return 0
    rows = [["level", "kind", "covector"]]
    rows += [[w["level"], w["kind"], "(%s)" % ",".join(w["covector"])] for w in walls]
    _print_table(rows)
    return 0


def cmd_jantzen(args) -> int:
    with open(_resolve_block_file(args.file), "rb") as fh:
        mat = parse_ratmatrix(fh.read())
    t0 = parse_frac(args.at)
    levels = jantzen_levels(mat, t0)
    symmetric = all(
        mat[i][j] == mat[j][i] for i in range(len(mat)) for j in range(len(mat))
    )
    sigs = dict(level_signatures(mat, t0)) if symmetric else {}
    D = sum(r * d for r, d, _ in levels)
    rendered = [
        {"r": r, "dim": d, "basis": [[frac_str(x) for x in v] for v in vs],
         **({"signature": list(sigs[r].to_json())} if r in sigs else {})}
        for r, d, vs in levels
    ]
    if args.format == "json":
        print(canonical_json({"D": D, "symmetric": symmetric, "levels": rendered}))
        return 0
    rows = [["level", "dim", "basis"] + (["signature"] if symmetric else [])]
    for lv in rendered:
        basis = "; ".join("(%s)" % ",".join(v) for v in lv["basis"])
        rows.append([str(lv["r"]), str(lv["dim"]), basis]
                    + ([str(sigs[lv["r"]])] if symmetric else []))
    _print_table(rows)
    print("D = %d" % D)
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative fraction such as -3/2 is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    # usage problems are validation failures: exit 3, message on stderr
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(3)


def _common() -> Tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """Two parent parsers: --format alone, and --format with --block for
    the commands that read blocks."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output rendering (default table)",
    )
    blk = argparse.ArgumentParser(add_help=False, parents=[fmt])
    blk.add_argument(
        "--block",
        action="append",
        metavar="FILE",
        help="ingest a block-library file before running (repeatable)",
    )
    return fmt, blk


def _param_opts(p: argparse.ArgumentParser, nu_required: bool = True) -> None:
    p.add_argument("--group", default="sl2r", help="built-in group (sl2r, sl2c)")
    p.add_argument(
        "--parity",
        type=int,
        default=1,
        help="+1 spherical, -1 nonspherical (sl2r)",
    )
    p.add_argument(
        "--m", type=int, default=0, help="discrete coordinate (sl2c)"
    )
    if nu_required:
        p.add_argument("--nu", required=True, help="continuous parameter p/q")


def build_parser() -> argparse.ArgumentParser:
    fmt, common = _common()
    parser = _Parser(prog="sigzero", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_block = sub.add_parser("block", help="block-library files")
    bsub = p_block.add_subparsers(dest="block_cmd", required=True)
    p_load = bsub.add_parser("load", parents=[common], help="validate and register a file")
    p_load.add_argument("file")
    p_load.set_defaults(func=cmd_block_load)
    p_show = bsub.add_parser("show", parents=[common], help="print a library by key")
    p_show.add_argument("key", help='"group:c1,c2", e.g. sl2r:3/2')
    p_show.set_defaults(func=cmd_block_show)

    p_sig = sub.add_parser("signature", parents=[common], help="tempered-basis signature")
    _param_opts(p_sig)
    p_sig.add_argument(
        "--trace", action="store_true", help="stream crossing records as JSON lines"
    )
    p_sig.set_defaults(func=cmd_signature)

    p_uni = sub.add_parser("unitary", parents=[common], help="unitarity verdict")
    _param_opts(p_uni)
    p_uni.set_defaults(func=cmd_unitary)

    p_scan = sub.add_parser("scan", parents=[common], help="facet verdicts on a segment")
    _param_opts(p_scan, nu_required=False)
    p_scan.add_argument("--from", required=True, help="segment start p/q")
    p_scan.add_argument("--to", required=True, help="segment end p/q")
    p_scan.set_defaults(func=cmd_scan)

    p_hyp = sub.add_parser("hyperplanes", parents=[fmt], help="wall arrangement")
    _param_opts(p_hyp, nu_required=False)
    p_hyp.add_argument("--radius", default="6", help="level bound p/q (default 6)")
    p_hyp.set_defaults(func=cmd_hyperplanes)

    p_jan = sub.add_parser("jantzen", parents=[fmt], help="Jantzen levels of a matrix family")
    p_jan.add_argument("file", help="RatMatrix JSON file")
    p_jan.add_argument("--at", required=True, help="evaluation point p/q")
    p_jan.set_defaults(func=cmd_jantzen)

    return parser


# built on the first call of main() and reused: it holds no state between
# calls, since each parse starts from a fresh namespace
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except MissingBlock as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except UnsupportedError as e:
        sys.stderr.write("error: %s\n" % e)
        return 4
    except (SigzeroError, ValueError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
