"""Workload corpora, seeded symmetries and the expected CLI output.

Every workload is a fixed list of *base knots* made by knotdist's own
generators.  The workload seed only picks, per base knot, one of the 48
lattice isometries, a translation, a start vertex and an orientation.
Distortion, curve-wide distortion, the verdict and the number of bands a
sweep evaluates are invariant under all four, and witnesses and heatmap
rows map through them, so the expected output of every operation follows
exactly from the answers stored in answers.json and the work is the same
for every seed.

Translations keep every coordinate a positive six-digit integer, so file
sizes do not depend on the seed either.  The one far file adds 2**30 to
each axis, which pushes the engine off its numpy path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS_PATH = HERE / "answers.json"

FAR_OFFSET = 2**30
SHIFT_LOW, SHIFT_HIGH = 200_000, 800_000

ISOMETRIES = tuple(
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
)


@dataclass(frozen=True)
class Base:
    """A base knot: generator kind and arguments, plus the far flag."""

    kind: str  # "torus" (p, q, scale), "rect" (m, n), "random" (length, seed)
    args: tuple
    far: bool = False

    @property
    def name(self) -> str:
        return f"{self.kind}-" + "-".join(map(str, self.args))


def _torus(p, q, s):
    return Base("torus", (p, q, s))


def _rect(m, n):
    return Base("rect", (m, n))


def _random(length, seed):
    return Base("random", (length, seed))


@dataclass(frozen=True)
class Workload:
    argv: tuple  # CLI arguments before FILE; only default flags
    full: tuple
    smoke: tuple

    @property
    def heatmap(self) -> bool:
        return "--with-heatmap" in self.argv


# Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    # pruning skips under 5% of bands; one file takes the engine's
    # pure-Python path for coordinates beyond 2**29
    "compact_compute": Workload(
        ("compute",),
        full=tuple(_torus(2, 3, s) for s in range(8, 25, 2))
        + tuple(_torus(p, q, s) for p, q in ((2, 5), (3, 4), (3, 5)) for s in (6, 10))
        + (_torus(2, 7, 6),)
        + tuple(_rect(a, a) for a in (100, 200, 250, 300, 350, 400))
        + (_rect(150, 450), _rect(120, 180), Base("torus", (2, 3, 8), far=True)),
        smoke=(_torus(2, 3, 3), _torus(2, 5, 3), _rect(6, 6), _rect(5, 9),
               Base("torus", (2, 3, 3), far=True)),
    ),
    # hairpins: the sweep stops within a few bands and gromov1 never runs
    "hairpin_certify": Workload(
        ("certify",),
        full=tuple(_rect(1, k) for k in (999, 1999, 2999, 3999, 4999))
        + tuple(_random(n, 0) for n in range(600, 2001, 200))
        + (_random(1000, 1), _random(2000, 1)),
        smoke=(_rect(1, 19), _rect(1, 49), _random(40, 0), _random(60, 1),
               _random(100, 2)),
    ),
    # every shape at n = 600-2000: unpruned heatmap sweep, n JSON rows
    "heatmap_report": Workload(
        ("compute", "--with-heatmap"),
        full=tuple(_rect(a, a) for a in (150, 250, 350, 500))
        + tuple(_torus(p, q, s) for p, q, s in
                ((2, 3, 12), (2, 3, 20), (2, 3, 24), (3, 4, 10), (3, 5, 10), (2, 5, 10)))
        + (_rect(1, 299), _rect(1, 499), _rect(1, 999), _random(1000, 0), _random(2000, 0)),
        smoke=(_rect(6, 6), _torus(2, 3, 3), _rect(1, 29), _random(80, 0),
               _torus(2, 5, 3)),
    ),
}


def generate(base: Base, generators) -> list:
    """True vertex coordinates of a base knot, from knotdist's generators."""
    if base.kind == "torus":
        knot = generators.torus_knot(*base.args)
    elif base.kind == "rect":
        knot = generators.rectangle(*base.args)
    else:
        knot = generators.random_polygon(*base.args)
    return [tuple(v) for v in knot.true_vertices()]


def fingerprint(vertices: list) -> str:
    text = "\n".join("%d %d %d" % v for v in vertices)
    return hashlib.sha256(text.encode()).hexdigest()


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text(encoding="utf-8"))


# -- symmetries ---------------------------------------------------------------


@dataclass(frozen=True)
class Symmetry:
    perm: tuple
    signs: tuple
    shift: tuple
    start: int
    reverse: bool

    @classmethod
    def draw(cls, rng: random.Random, n: int, far: bool) -> "Symmetry":
        perm, signs = ISOMETRIES[rng.randrange(len(ISOMETRIES))]
        shift = tuple(rng.randint(SHIFT_LOW, SHIFT_HIGH) + (FAR_OFFSET if far else 0)
                      for _ in range(3))
        return cls(perm, signs, shift, rng.randrange(n), rng.random() < 0.5)

    def point(self, p) -> tuple:
        return tuple(self.signs[k] * p[self.perm[k]] + self.shift[k] for k in range(3))

    def source_index(self, i: int, n: int) -> int:
        """Base index of the vertex written at position i of the file."""
        return (self.start - i) % n if self.reverse else (self.start + i) % n


def knot_text(vertices: list, sym: Symmetry) -> str:
    n = len(vertices)
    lines = ["latticeknot v1"]
    lines += ["%d %d %d" % sym.point(vertices[sym.source_index(i, n)]) for i in range(n)]
    return "\n".join(lines) + "\n"


# -- expected output ------------------------------------------------------------


def decimal6(num: int, den: int) -> str:
    """Six-place decimal of num/den >= 0, rounded half to even."""
    scaled, rem = divmod(num * 10**6, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2):
        scaled += 1
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def _ratio(pair) -> dict:
    num, den = pair
    return {"num": num, "den": den, "decimal": decimal6(num, den)}


def expected_output(workload: Workload, answers: dict, name: str,
                    vertices: list, sym: Symmetry) -> str:
    """Exact stdout of the workload's command on the transformed knot."""
    ans = answers["knots"][name]
    if workload.argv == ("certify",):
        num, den = ans["delta"]
        return f"{ans['verdict']} delta={num}/{den} ({decimal6(num, den)})\n"
    witnesses = sorted(
        sorted((list(sym.point(a)), list(sym.point(b)))) for a, b in ans["witnesses"]
    )
    doc = {
        "schema": answers["schema"],
        "n_edges": ans["n"],
        "delta": _ratio(ans["delta"]),
        "witnesses": [list(pair) for pair in witnesses],
        "gromov1": _ratio(ans["gromov1"]),
        "certificate": {
            "verdict": ans["verdict"],
            "threshold_exceeded": ans["threshold_exceeded"],
            "near_threshold": ans["near_threshold"],
            "threshold_enclosure": {
                end: dict(zip(("num", "den"), answers["threshold_enclosure"][end]))
                for end in ("low", "high")
            },
        },
    }
    if workload.heatmap:
        n = len(vertices)
        rows = []
        for i in range(n):
            src = sym.source_index(i, n)
            num, den = ans["heatmap"][src]
            rows.append({
                "index": i,
                "vertex": list(sym.point(vertices[src])),
                "num": num,
                "den": den,
                "decimal": decimal6(num, den),
            })
        doc["heatmap"] = rows
    return json.dumps(doc, separators=(",", ":")) + "\n"
