"""Machine-readable reports: JSON document and heatmap CSV.

All external coordinates are true (undoubled); num/den fields are the
ground truth and the fixed six-place decimals are display only, rounded
half to even.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .engine import (
    DistortionReport,
    Heatmap,
    _gromov1_delta,
    gromov1_distortion,
    vertex_distortion,
    vertex_distortion_with_heatmap,
)
from .lattice import LatticeKnot, _true_text
from .midpoint_analysis import THRESHOLD_HIGH, THRESHOLD_LOW, certify_unknot

SCHEMA = "latticeknot-report v1"
# One heatmap row as compact JSON, indented JSON and CSV, from a _heatmap_table row
_JSON_ROW = b'{"index":%d,"vertex":[%d,%d,%d],"num":%d,"den":%d,"decimal":"%d.%06d"}'
_PRETTY_ROW = (b'    {\n      "index": %d,\n      "vertex": [\n        %d,\n        %d,\n'
               b'        %d\n      ],\n      "num": %d,\n      "den": %d,\n'
               b'      "decimal": "%d.%06d"\n    }')
_CSV_ROW = b"%d,%d,%d,%d,%d,%d,%d.%06d\n"


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
    """Witness pairs in true coordinates, sorted; a half-integer coordinate
    is a Fraction, which render_json writes as exact decimal text."""
    return [[list(a.as_true()), list(b.as_true())] for a, b in sorted(report.witnesses)]


def _heatmap_table(heat: Heatmap) -> np.ndarray:
    """(n, 8) int64 rows: index, true x, y, z, num, den and the six-place
    decimal's whole and millionths, rounded as format_decimal: rows are in
    lowest terms with num <= n, so num * 10^6 stays inside int64."""
    scaled, rem = np.divmod(heat.num * 10**6, heat.den)
    scaled += (2 * rem > heat.den) | ((2 * rem == heat.den) & (scaled % 2 == 1))
    return np.column_stack((np.arange(len(heat)), heat.knot.coords // 2, heat.num, heat.den,
                            *np.divmod(scaled, 10**6)))


def _heatmap_text(heat: Heatmap, row: bytes, sep: bytes) -> str:
    """Every row of the heatmap through one % template, joined by sep.

    The template is bytes, decoded once: every row is ASCII, and bytes %
    formats integers faster than str %."""
    table = _heatmap_table(heat)
    return (sep.join([row] * len(table)) % tuple(table.ravel().tolist())).decode("ascii")


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


def build_report(knot: LatticeKnot, *, with_heatmap: bool = False) -> dict:
    """Full report: distortion, witnesses, curve-wide maximum, certificate.

    The same flags always produce byte-identical JSON.  One _Sweep serves it
    all: the branch and bound gives the distortion, its witnesses and the
    curve-wide maximum, and the row sweep only the heatmap.
    """
    if with_heatmap:
        rep, heat = vertex_distortion_with_heatmap(knot)
    else:
        rep = vertex_distortion(knot)
        heat = None
    doc = {
        "schema": SCHEMA,
        "n_edges": knot.n,
        "delta": ratio_doc(rep.delta),
        "witnesses": witness_docs(rep),
        "gromov1": ratio_doc(_gromov1_delta(knot, rep.delta)[0]),
        "certificate": certificate_doc(rep),
    }
    if heat is not None:
        doc["heatmap"] = heat
    return doc


def build_gromov1_report(knot: LatticeKnot) -> dict:
    """Curve-wide distortion with witnesses among vertices and midpoints."""
    g1 = gromov1_distortion(knot)
    return {
        "schema": SCHEMA,
        "n_edges": knot.n,
        "gromov1": ratio_doc(g1.delta),
        "witnesses": witness_docs(g1),
    }


def _half_text(value: Fraction) -> str:
    """A half-integer's exact decimal between NULs, which render_json
    removes with the quotes json.dumps puts around the string."""
    if not isinstance(value, Fraction) or value.denominator != 2:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"\0{_true_text(value.numerator)}\0"


def render_json(doc: dict, pretty: bool = False) -> str:
    """The document as JSON; a Heatmap under "heatmap" is written as a list
    of one object per row, each from the % template of the spacing."""
    heat = doc.get("heatmap")
    if isinstance(heat, Heatmap):
        # the rows go where json.dumps writes "\x01" as "\u0001", which nothing else is
        doc = {**doc, "heatmap": "\x01"}
    if pretty:
        text = json.dumps(doc, indent=2, default=_half_text)
        layout = "[\n", _PRETTY_ROW, b",\n", "\n  ]"
    else:
        text = json.dumps(doc, separators=(",", ":"), default=_half_text)
        layout = "[", _JSON_ROW, b",", "]"
    # json.dumps writes a float with float.__repr__, which rounds a
    # half-integer past 2**52, so halves pass through it as marked strings
    text = text.replace('"\\u0000', "").replace('\\u0000"', "")
    if isinstance(heat, Heatmap):
        start, row, sep, end = layout
        head, _, tail = text.partition('"\\u0001"')
        return f"{head}{start}{_heatmap_text(heat, row, sep)}{end}{tail}\n"
    return text + "\n"


def heatmap_csv(heat: Heatmap) -> str:
    return "index,x,y,z,value_num,value_den,value_decimal\n" + _heatmap_text(heat, _CSV_ROW, b"")
