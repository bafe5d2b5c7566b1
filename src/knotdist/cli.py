"""Command line interface.

Exit codes: 0 success, 1 invalid input (bad arguments, unparsable or
invalid knot files), 2 internal errors (overflow, generator failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import heatmap, vertex_distortion
from .generators import (
    GeneratorError,
    exhaustive_small,
    random_polygon,
    rectangle,
    torus_knot,
    torus_sample_bound,
)
from .knotfile import load_knot, move_string, parse_vertices, serialize
from .lattice import scale, validate
from .midpoint_analysis import certify_unknot
from .report import (
    build_gromov1_report,
    build_report,
    heatmap_csv,
    ratio_doc,
    render_json,
)


# Most lattice points one generate or scale request may build: the edges
# of the knot it writes, or for a torus knot the curve points it samples.
# Larger requests are refused, by arithmetic on the arguments, before
# anything is allocated.
MAX_EDGES = 1_000_000
# Largest enumerate --max-edges: the enumeration's time grows about 13-19x
# per two edges (half a second at 12, ten at 14, hours at 20).
MAX_ENUMERATE_EDGES = 12


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _write(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_validate(args) -> int:
    result = validate(parse_vertices(Path(args.file).read_bytes()))
    if result.ok:
        print("ok")
        return 0
    for v in result.violations:
        print(f"violation [{v.code}]: {v.message}", file=sys.stderr)
    return 1


def _cmd_compute(args) -> int:
    doc = build_report(load_knot(args.file), with_heatmap=args.with_heatmap)
    sys.stdout.write(render_json(doc, pretty=args.pretty))
    return 0


def _cmd_gromov1(args) -> int:
    doc = build_gromov1_report(load_knot(args.file))
    sys.stdout.write(render_json(doc, pretty=args.pretty))
    return 0


def _cmd_certify(args) -> int:
    report = vertex_distortion(load_knot(args.file))
    cert = certify_unknot(report)
    delta = ratio_doc(report.delta)
    print(f"{cert.verdict} delta={delta['num']}/{delta['den']} ({delta['decimal']})")
    return 0


def _check_size(points: int) -> None:
    if points > MAX_EDGES:
        raise UsageError(
            f"request too large: it would build more than {MAX_EDGES} lattice points"
        )


def _cmd_scale(args) -> int:
    if args.factor < 1:
        raise UsageError("--factor must be a positive integer")
    knot = load_knot(args.file)
    _check_size(knot.n * args.factor)
    _write(serialize(scale(knot, args.factor), args.form), args.output)
    return 0


# --kind name -> the lattice points a request builds, and the generator call
_GENERATORS = {
    "rectangle": (lambda args: 2 * (args.m + args.n), lambda args: rectangle(args.m, args.n)),
    "torus": (
        lambda args: torus_sample_bound(args.p, args.q, args.scale),
        lambda args: torus_knot(args.p, args.q, args.scale),
    ),
    "random": (lambda args: args.length, lambda args: random_polygon(args.length, args.seed)),
}


def _cmd_generate(args) -> int:
    points, make = _GENERATORS[args.kind]
    _check_size(points(args))
    _write(serialize(make(args), args.form), args.output)
    return 0


def _cmd_heatmap(args) -> int:
    _write(heatmap_csv(heatmap(load_knot(args.file))), args.csv)
    return 0


def _cmd_enumerate(args) -> int:
    if args.max_edges > MAX_ENUMERATE_EDGES:
        raise UsageError(f"--max-edges is limited to {MAX_ENUMERATE_EDGES}")
    for knot in exhaustive_small(args.max_edges):
        rep = vertex_distortion(knot)
        doc = {
            "n_edges": knot.n,
            "moves": move_string(knot),
            "delta": {"num": rep.delta.numerator, "den": rep.delta.denominator},
        }
        sys.stdout.write(render_json(doc))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="knotdist", description="Lattice knot distortion toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    # name -> the command's own parser, which parser hands the arguments after the name
    parser.commands = subs.choices

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(run=run)
        return sub

    p = command("validate", _cmd_validate, "check a knot file against the invariants")
    p.add_argument("file")

    p = command("compute", _cmd_compute, "distortion report as JSON")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--with-heatmap", action="store_true")

    p = command("gromov1", _cmd_gromov1, "curve-wide distortion report as JSON")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")

    p = command("certify", _cmd_certify, "unknot certificate verdict")
    p.add_argument("file")

    p = command("scale", _cmd_scale, "write the scaled knot")
    p.add_argument("file")
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--form", choices=("vertices", "moves"), default="vertices")

    p = command("generate", _cmd_generate, "write a generated conformation")
    p.add_argument("--kind", choices=tuple(_GENERATORS), required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--scale", type=int, default=3)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--form", choices=("vertices", "moves"), default="vertices")

    p = command("heatmap", _cmd_heatmap, "per-vertex distortion maxima as CSV")
    p.add_argument("file")
    p.add_argument("--csv", required=True, help="output path, - for stdout")

    p = command("enumerate", _cmd_enumerate, "small polygons up to isometry, JSON lines")
    p.add_argument("--max-edges", type=int, required=True)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; argv defaults to sys.argv[1:].

    argv naming a command goes straight to that command's parser, which
    is what _PARSER would hand it, with the same messages and exit codes;
    anything else (no command, -h, an unknown command) goes to _PARSER.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _PARSER.commands.get(argv[0]) if argv else None
    try:
        args = _PARSER.parse_args(argv) if command is None else command.parse_args(argv[1:])
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # KnotFileError, InvalidKnotError and the library's argument refusals are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, GeneratorError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
