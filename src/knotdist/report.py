"""Machine-readable reports: JSON document and heatmap CSV.

All external coordinates are true (undoubled); num/den fields are the
ground truth and the fixed six-place decimals are display only, rounded
half to even.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import Sequence

from .engine import (
    DistortionReport,
    HeatmapRow,
    _gromov1_from_vertex_report,
    gromov1_distortion,
    vertex_distortion,
    vertex_distortion_with_heatmap,
)
from .lattice import LatticeKnot
from .midpoint_analysis import THRESHOLD_HIGH, THRESHOLD_LOW, certify_unknot

SCHEMA = "latticeknot-report v1"


def format_decimal(value: Fraction) -> str:
    """Exact six-place decimal rendering of a nonnegative rational,
    round half to even."""
    scaled, rem = divmod(value.numerator * 10**6, value.denominator)
    if 2 * rem > value.denominator or (2 * rem == value.denominator and scaled % 2):
        scaled += 1
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def ratio_doc(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": format_decimal(value),
    }


def witness_docs(report: DistortionReport) -> list:
    pairs = sorted((a.as_true(), b.as_true()) for a, b in report.witnesses)
    return [[a, b] for a, b in pairs]


def heatmap_docs(rows: Sequence[HeatmapRow]) -> list:
    return [
        {
            "index": r.index,
            "vertex": r.vertex.as_true(),
            "num": r.value.numerator,
            "den": r.value.denominator,
            "decimal": format_decimal(r.value),
        }
        for r in rows
    ]


def certificate_doc(report: DistortionReport) -> dict:
    cert = certify_unknot(report)
    return {
        "verdict": cert.verdict,
        "threshold_exceeded": cert.threshold_exceeded,
        "near_threshold": cert.near_threshold,
        "threshold_enclosure": {
            "low": {"num": THRESHOLD_LOW.numerator, "den": THRESHOLD_LOW.denominator},
            "high": {"num": THRESHOLD_HIGH.numerator, "den": THRESHOLD_HIGH.denominator},
        },
    }


def build_report(
    knot: LatticeKnot,
    *,
    prune: bool = True,
    with_heatmap: bool = False,
) -> dict:
    """Full report: distortion, witnesses, curve-wide maximum, certificate.

    The same flags always produce byte-identical JSON.  One vertex sweep
    serves the distortion, the curve-wide maximum and the heatmap.
    """
    if with_heatmap:
        rep, rows = vertex_distortion_with_heatmap(knot)
    else:
        rep = vertex_distortion(knot, prune=prune)
        rows = None
    g1 = _gromov1_from_vertex_report(knot, rep)
    doc = {
        "schema": SCHEMA,
        "n_edges": knot.n,
        "delta": ratio_doc(rep.delta),
        "witnesses": witness_docs(rep),
        "gromov1": ratio_doc(g1.delta),
        "certificate": certificate_doc(rep),
    }
    if rows is not None:
        doc["heatmap"] = heatmap_docs(rows)
    return doc


def build_gromov1_report(knot: LatticeKnot, *, prune: bool = True) -> dict:
    """Curve-wide distortion with witnesses among vertices and midpoints."""
    g1 = gromov1_distortion(knot, prune=prune)
    return {
        "schema": SCHEMA,
        "n_edges": knot.n,
        "gromov1": ratio_doc(g1.delta),
        "witnesses": witness_docs(g1),
    }


def render_json(doc: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


def heatmap_csv(rows: Sequence[HeatmapRow]) -> str:
    out = io.StringIO()
    out.write("index,x,y,z,value_num,value_den,value_decimal\n")
    for r in rows:
        x, y, z = r.vertex.as_true()
        out.write(
            f"{r.index},{x},{y},{z},{r.value.numerator},{r.value.denominator},"
            f"{format_decimal(r.value)}\n"
        )
    return out.getvalue()
