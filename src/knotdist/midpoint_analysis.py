"""The unknot certificate.

A knotted lattice conformation has vertex distortion at least
5*sqrt(3)*pi/9 - 1, a floor the source paper derives from Denne and
Sullivan's lower bound 5*pi/3 on the Gromov distortion of a knotted
curve.  A vertex distortion provably below it certifies an unknot; this
module compares a value against a rational enclosure of the floor so
that the decision is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import DistortionReport

# Decimal enclosure of 5*sqrt(3)*pi/9 - 1 = 2.0229989403903630843...,
# the vertex distortion floor for knotted conformations.  Both ends are
# exact rationals; the tests re-derive the enclosure from a 50-digit pi.
THRESHOLD_LOW = Fraction(20229989403, 10**10)
THRESHOLD_HIGH = Fraction(20229989404, 10**10)

UNKNOT_CERTIFIED = "unknot_certified"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Outcome of comparing a distortion value against the threshold.

    verdict is unknot_certified exactly when delta is provably below the
    threshold; near_threshold flags the (never yet observed) case of a
    value inside the stored enclosure, where no sound decision exists.
    """

    delta: Fraction
    threshold_exceeded: bool
    verdict: str
    near_threshold: bool = False


def certify_unknot(report: DistortionReport) -> Certificate:
    """Decide whether a vertex distortion value certifies unknottedness.

    The comparison against the irrational threshold is made sound by the
    rational enclosure: certify only below its lower end, refuse only at
    or above its upper end, and report a near-threshold inconclusive in
    between.
    """
    delta = report.delta
    if delta <= THRESHOLD_LOW:
        return Certificate(delta, False, UNKNOT_CERTIFIED)
    if delta >= THRESHOLD_HIGH:
        return Certificate(delta, True, INCONCLUSIVE)
    return Certificate(delta, False, INCONCLUSIVE, near_threshold=True)
