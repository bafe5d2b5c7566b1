"""Regenerate answers.json: the known answers for every base knot.

    python3 perfbench/make_answers.py

Answers are taken from knotdist itself and then checked against
references that share no code with its banded engine:

- a numpy row-maximum oracle over every point pair (all knots), which
  gives the vertex distortion, its witness set, the heatmap rows and,
  run on the cycle of vertices and midpoints, the curve-wide distortion;
- brute_force_vm_distortion where its O(n^2) Python loop is affordable;
- the closed forms for rectangles;
- the threshold 5*sqrt(3)*pi/9 - 1 for the verdict.

Any disagreement aborts without writing the file.  Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import numpy as np

import corpus

ROOT = corpus.HERE.parent
BRUTE_VERTEX_MAX_N = 2000
BRUTE_VM_MAX_N = 1200


def row_maxima(points: list) -> tuple[list, Fraction, set]:
    """Exact max of arc/taxicab per point of a cycle of unit arc steps.

    Returns the row maxima, the overall maximum and the index pairs that
    attain it.  Floats only pick candidates; the maxima are exact.
    """
    pts = np.array(points, dtype=np.int64)
    n = len(points)
    idx = np.arange(n)
    rows, pairs, best = [], set(), Fraction(0)
    for i in range(n):
        tax = np.abs(pts - pts[i]).sum(axis=1)
        gap = np.abs(idx - i)
        arc = np.minimum(gap, n - gap)
        tax[i] = 1
        ratio = arc / tax
        ratio[i] = -1.0
        top = ratio.max()
        cands = np.nonzero(ratio >= top * (1 - 1e-9))[0]
        exact = {int(j): Fraction(int(arc[j]), int(tax[j])) for j in cands}
        row = max(exact.values())
        rows.append(row)
        if row > best:
            best, pairs = row, set()
        if row == best:
            pairs |= {(min(i, j), max(i, j)) for j, r in exact.items() if r == row}
    return rows, best, pairs


def with_midpoints(vertices: list) -> list:
    """Vertices and edge midpoints in cyclic order, doubled coordinates."""
    n = len(vertices)
    out = []
    for i, v in enumerate(vertices):
        w = vertices[(i + 1) % n]
        out.append(tuple(2 * c for c in v))
        out.append(tuple(a + b for a, b in zip(v, w)))
    return out


def rectangle_closed_form(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Vertex and curve-wide distortion of rectangle(m, n).

    With short side s and long side l, the best pair sits across the
    middle of the long sides: arc s + 2*floor(l/2) over taxicab s.  The
    doubled rectangle has an even long side, hence (s + l)/s.
    """
    s, l = min(m, n), max(m, n)
    vertex = Fraction(s + l, s) if l % 2 == 0 else Fraction(s + l - 1, s)
    return vertex, Fraction(s + l, s)


def pair_key(a, b) -> list:
    return sorted([list(a), list(b)])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import knotdist
    from knotdist import generators, report

    threshold = 5 * math.sqrt(3) * math.pi / 9 - 1
    needs: dict[str, dict] = {}
    for wl in corpus.WORKLOADS.values():
        for base in wl.full + wl.smoke:
            need = needs.setdefault(base.name, {"base": base, "gromov1": False, "heatmap": False})
            need["gromov1"] |= wl.argv[0] == "compute"
            need["heatmap"] |= wl.heatmap

    answers = {
        "schema": report.SCHEMA,
        "threshold_enclosure": {
            "low": [knotdist.THRESHOLD_LOW.numerator, knotdist.THRESHOLD_LOW.denominator],
            "high": [knotdist.THRESHOLD_HIGH.numerator, knotdist.THRESHOLD_HIGH.denominator],
        },
        "knots": {},
    }
    if not knotdist.THRESHOLD_LOW < threshold < knotdist.THRESHOLD_HIGH:
        raise SystemExit("the stored threshold enclosure misses 5*sqrt(3)*pi/9 - 1")
    for name in sorted(needs):
        need = needs[name]
        base = need["base"]
        vertices = corpus.generate(base, generators)
        knot = knotdist.LatticeKnot.from_true(vertices)
        rep = knotdist.vertex_distortion(knot)
        cert = knotdist.certify_unknot(rep)
        witnesses = sorted(
            pair_key(knotdist.LatticePoint.as_true(a), knotdist.LatticePoint.as_true(b))
            for a, b in rep.witnesses
        )
        checked = ["row_oracle"]
        rows, delta, pairs = row_maxima(vertices)
        oracle_wit = sorted(pair_key(vertices[i], vertices[j]) for i, j in pairs)
        if (rep.delta, witnesses) != (delta, oracle_wit):
            raise SystemExit(f"{name}: engine {rep.delta} disagrees with the row oracle {delta}")
        if knot.n <= BRUTE_VERTEX_MAX_N:
            brute = knotdist.brute_force_vm_distortion(knot, vertices_only=True)
            if (brute.delta, brute.witnesses) != (rep.delta, rep.witnesses):
                raise SystemExit(f"{name}: engine disagrees with brute force on vertices")
            checked.append("brute_vertex")
        verdict_ok = (float(rep.delta) < threshold) == (cert.verdict == knotdist.UNKNOT_CERTIFIED)
        if not verdict_ok or cert.near_threshold:
            raise SystemExit(f"{name}: verdict {cert.verdict} does not match delta {rep.delta}")
        entry = {
            "sha256": corpus.fingerprint(vertices),
            "n": knot.n,
            "delta": [rep.delta.numerator, rep.delta.denominator],
            "witnesses": witnesses,
            "verdict": cert.verdict,
            "threshold_exceeded": cert.threshold_exceeded,
            "near_threshold": cert.near_threshold,
        }
        if need["gromov1"]:
            g1 = knotdist.gromov1_distortion(knot).delta
            _, g1_oracle, _ = row_maxima(with_midpoints(vertices))
            if g1 != g1_oracle:
                raise SystemExit(f"{name}: gromov1 {g1} disagrees with the row oracle {g1_oracle}")
            if knot.n <= BRUTE_VM_MAX_N:
                if knotdist.brute_force_vm_distortion(knot).delta != g1:
                    raise SystemExit(f"{name}: gromov1 disagrees with brute force")
                checked.append("brute_vm")
            entry["gromov1"] = [g1.numerator, g1.denominator]
        if base.kind == "rect":
            vertex_cf, g1_cf = rectangle_closed_form(*base.args)
            if rep.delta != vertex_cf or (need["gromov1"] and entry["gromov1"] != [g1_cf.numerator, g1_cf.denominator]):
                raise SystemExit(f"{name}: disagrees with the rectangle closed form")
            checked.append("closed_form")
        if need["heatmap"]:
            engine_rows = [r.value for r in knotdist.heatmap(knot)]
            if engine_rows != rows:
                raise SystemExit(f"{name}: heatmap disagrees with the row oracle")
            entry["heatmap"] = [[r.numerator, r.denominator] for r in rows]
        entry["checked"] = checked
        answers["knots"][name] = entry
        print(f"{name}: n={knot.n} delta={rep.delta} checked={','.join(checked)}", flush=True)

    corpus.ANSWERS_PATH.write_text(
        json.dumps(answers, separators=(",", ":"), sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
