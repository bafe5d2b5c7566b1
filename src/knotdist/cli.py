"""Command line interface.

Exit codes: 0 success, 1 invalid input (bad arguments, unparsable or
invalid knot files), 2 internal errors (overflow, generator failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import vertex_distortion, vertex_distortion_with_heatmap
from .generators import GeneratorError, GeneratorSpec, exhaustive_small
from .knotfile import KnotFileError, load_knot, parse_vertices, serialize
from .lattice import InvalidKnotError, LatticeKnot, scale, validate
from .metrics import NotOnKnotError
from .midpoint_analysis import certify_unknot
from .report import (
    build_gromov1_report,
    build_report,
    heatmap_csv,
    ratio_doc,
    render_json,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _add_no_prune(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--no-prune", action="store_true",
                     help="disable early termination (oracle mode)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="knotdist", description="Lattice knot distortion toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a knot file against the invariants")
    p.add_argument("file")

    p = subs.add_parser("compute", help="distortion report as JSON")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--with-heatmap", action="store_true")
    _add_no_prune(p)

    p = subs.add_parser("gromov1", help="curve-wide distortion report as JSON")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")
    _add_no_prune(p)

    p = subs.add_parser("certify", help="unknot certificate verdict")
    p.add_argument("file")
    _add_no_prune(p)

    p = subs.add_parser("scale", help="write the scaled knot")
    p.add_argument("file")
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--form", choices=("vertices", "moves"), default="vertices")

    p = subs.add_parser("generate", help="write a generated conformation")
    p.add_argument("--kind", choices=("rectangle", "torus", "random"), required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--scale", type=int, default=3)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--form", choices=("vertices", "moves"), default="vertices")

    p = subs.add_parser("heatmap", help="per-vertex distortion maxima as CSV")
    p.add_argument("file")
    p.add_argument("--csv", required=True, help="output path, - for stdout")

    p = subs.add_parser("enumerate", help="small polygons up to isometry, JSON lines")
    p.add_argument("--max-edges", type=int, required=True)
    return parser


def _write(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_validate(args) -> int:
    result = validate(parse_vertices(Path(args.file).read_text(encoding="utf-8")))
    if result.ok:
        print("ok")
        return 0
    for v in result.violations:
        print(f"violation [{v.code}]: {v.message}", file=sys.stderr)
    return 1


def _load(args) -> LatticeKnot:
    return load_knot(args.file)


def _cmd_compute(args) -> int:
    doc = build_report(
        _load(args),
        prune=not args.no_prune,
        with_heatmap=args.with_heatmap,
    )
    sys.stdout.write(render_json(doc, pretty=args.pretty))
    return 0


def _cmd_gromov1(args) -> int:
    doc = build_gromov1_report(_load(args), prune=not args.no_prune)
    sys.stdout.write(render_json(doc, pretty=args.pretty))
    return 0


def _cmd_certify(args) -> int:
    report = vertex_distortion(_load(args), prune=not args.no_prune)
    cert = certify_unknot(report)
    delta = ratio_doc(report.delta)
    print(f"{cert.verdict} delta={delta['num']}/{delta['den']} ({delta['decimal']})")
    return 0


def _cmd_scale(args) -> int:
    if args.factor < 1:
        raise UsageError("--factor must be a positive integer")
    _write(serialize(scale(_load(args), args.factor), args.form), args.output)
    return 0


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind, m=args.m, n=args.n, p=args.p, q=args.q,
        scale=args.scale, length=args.length, seed=args.seed,
    )
    knot = next(spec.knots())
    _write(serialize(knot, args.form), args.output)
    return 0


def _cmd_heatmap(args) -> int:
    _, rows = vertex_distortion_with_heatmap(_load(args))
    _write(heatmap_csv(rows), args.csv)
    return 0


def _cmd_enumerate(args) -> int:
    from .knotfile import move_string

    for knot in exhaustive_small(args.max_edges):
        rep = vertex_distortion(knot)
        doc = {
            "n_edges": knot.n,
            "moves": move_string(knot),
            "delta": {"num": rep.delta.numerator, "den": rep.delta.denominator},
        }
        sys.stdout.write(render_json(doc))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "compute": _cmd_compute,
    "gromov1": _cmd_gromov1,
    "certify": _cmd_certify,
    "scale": _cmd_scale,
    "generate": _cmd_generate,
    "heatmap": _cmd_heatmap,
    "enumerate": _cmd_enumerate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KnotFileError, InvalidKnotError, NotOnKnotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, GeneratorError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
