"""Planar points, lines in normal form, reflections, and fold lines.

Lines are stored as a*x + b*y = c with the raw coefficients retained;
a canonical unit-normal form is used only for equality tests and
reporting, never for arithmetic, to avoid drift.

Each measurement is written once, on bare floats (the ``*_xy`` and
``*_abc`` functions, which take a normal's length where they need it, so a
caller measuring one line many times computes it once); the Point and Line
functions unpack into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoincidentLines, CoincidentPoints, NotParallel

# Normals count as linearly dependent when the 2x2 determinant is below
# this factor times the product of their magnitudes (scale invariant).
PARALLEL_TOL = 1e-12

XY = tuple[float, float]
ABC = tuple[float, float, float]


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Line:
    """Oriented line a*x + b*y = c with normal (a, b)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("line normal must be nonzero")

    @property
    def norm(self) -> float:
        return math.hypot(self.a, self.b)


def through_xy(x1: float, y1: float, x2: float, y2: float) -> ABC:
    """(a, b, c) of the line through two distinct points."""
    dx, dy = x2 - x1, y2 - y1
    if dx == 0.0 and dy == 0.0:
        raise ValueError("need two distinct points")
    a, b = dy, -dx
    return a, b, a * x1 + b * y1


def line_through(p1: Point, p2: Point) -> Line:
    """Line through two distinct points."""
    return Line(*through_xy(p1.x, p1.y, p2.x, p2.y))


def canonical_abc(a: float, b: float, c: float, norm: float) -> ABC:
    """canonical() of a*x + b*y = c, whose normal has length norm."""
    s = 1.0 / norm
    a, b, c = a * s, b * s, c * s
    if a < 0.0 or (a == 0.0 and b < 0.0):
        return (-a, -b, -c)
    return (a, b, c)


def canonical(line: Line) -> ABC:
    """Unit-normal triple with a > 0, or a = 0 and b > 0 (equality use only)."""
    return canonical_abc(line.a, line.b, line.c, line.norm)


def triple_gap(u: ABC, v: ABC) -> float:
    """Max-abs gap between two canonical triples, insensitive to the sign tie at a ~ 0."""
    direct = max(abs(u[0] - v[0]), abs(u[1] - v[1]), abs(u[2] - v[2]))
    flipped = max(abs(u[0] + v[0]), abs(u[1] + v[1]), abs(u[2] + v[2]))
    return min(direct, flipped)


def canonical_gap(l1: Line, l2: Line) -> float:
    """Max-abs gap between canonical forms, insensitive to the sign tie at a ~ 0."""
    return triple_gap(canonical(l1), canonical(l2))


def lines_equal(l1: Line, l2: Line, tol: float = 1e-9) -> bool:
    return canonical_gap(l1, l2) <= tol


def fold_xi(t: float, h: float) -> Line:
    """Fold line placing Q(0, h) onto y = -h at Q'(2t, -h): t*x - h*y = t**2.

    Passes through (t, 0); t = 0 yields the x axis.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    return Line(t, -h, t * t)


def fold_chi(p: float, q: float, k: float, s: float) -> Line:
    """Fold line placing P(p, q) onto x = k at P'(k, s).

    Normal is P'P = (k - p, s - q); the line passes through the midpoint
    of segment PP'.
    """
    if k == p and s == q:
        raise CoincidentPoints("P equals P'; fold line undefined")
    return Line(k - p, s - q, (s * s - q * q) / 2.0 + (k * k - p * p) / 2.0)


def reflect_xy(x: float, y: float, a: float, b: float, c: float) -> XY:
    """(x, y) reflected across a*x + b*y = c."""
    d = (a * x + b * y - c) / (a * a + b * b)
    return x - 2.0 * d * a, y - 2.0 * d * b


def reflect_point(pt: Point, mirror: Line) -> Point:
    return Point(*reflect_xy(pt.x, pt.y, mirror.a, mirror.b, mirror.c))


def reflect_abc(ta: float, tb: float, tc: float, ma: float, mb: float, mc: float) -> ABC:
    """(a, b, c) of the line ta*x + tb*y = tc reflected across ma*x + mb*y = mc.

    Reflects the two points one unit along the target's direction from
    its foot point; this covers intersecting and parallel mirrors alike
    (a parallel mirror yields the equidistant line on the far side).
    """
    n2 = ta * ta + tb * tb
    fx, fy = tc * ta / n2, tc * tb / n2
    inv = 1.0 / math.sqrt(n2)
    dx, dy = -tb * inv, ta * inv
    x1, y1 = reflect_xy(fx + dx, fy + dy, ma, mb, mc)
    x2, y2 = reflect_xy(fx - dx, fy - dy, ma, mb, mc)
    return through_xy(x1, y1, x2, y2)


def reflect_line(target: Line, mirror: Line) -> Line:
    """Image of a whole line under reflection across the mirror."""
    return Line(*reflect_abc(target.a, target.b, target.c, mirror.a, mirror.b, mirror.c))


def parallel_abc(a1: float, b1: float, norm1: float, a2: float, b2: float, norm2: float) -> bool:
    """is_parallel() of the normals (a1, b1) and (a2, b2) with lengths norm1, norm2."""
    det = a1 * b2 - a2 * b1
    return abs(det) <= PARALLEL_TOL * norm1 * norm2


def is_parallel(l1: Line, l2: Line) -> bool:
    return parallel_abc(l1.a, l1.b, l1.norm, l2.a, l2.b, l2.norm)


def crossing_abc(a1: float, b1: float, c1: float, a2: float, b2: float, c2: float) -> XY:
    """The crossing of two lines whose normals are independent."""
    det = a1 * b2 - a2 * b1
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def intersect(l1: Line, l2: Line) -> Point | None:
    """Unique intersection point, or None when the normals are dependent.

    Raises CoincidentLines when the lines are canonically equal (a
    coincident pair has every point in common, not none).
    """
    if is_parallel(l1, l2):
        scale = 1.0 + abs(canonical(l1)[2]) + abs(canonical(l2)[2])
        if canonical_gap(l1, l2) <= PARALLEL_TOL * scale:
            raise CoincidentLines("lines are canonically equal")
        return None
    return Point(*crossing_abc(l1.a, l1.b, l1.c, l2.a, l2.b, l2.c))


def parallel_distance_abc(
    a1: float, b1: float, c1: float, norm1: float, a2: float, b2: float, c2: float
) -> float:
    """parallel_distance() without its parallel check; norm1 is the first normal's length."""
    s = (a1 * a2 + b1 * b2) / (a2 * a2 + b2 * b2)
    return abs(c1 - s * c2) / norm1


def parallel_distance(l1: Line, l2: Line) -> float:
    """Euclidean distance between parallel lines.

    l2 is rescaled so its normal matches l1's before the |c1 - c2| / |n|
    formula is applied.
    """
    if not is_parallel(l1, l2):
        raise NotParallel("lines are not parallel")
    return parallel_distance_abc(l1.a, l1.b, l1.c, l1.norm, l2.a, l2.b, l2.c)


def distance_xy(x: float, y: float, a: float, b: float, c: float, norm: float) -> float:
    """Distance of (x, y) from a*x + b*y = c, whose normal has length norm."""
    return abs(a * x + b * y - c) / norm


def point_line_distance(pt: Point, line: Line) -> float:
    return distance_xy(pt.x, pt.y, line.a, line.b, line.c, line.norm)


def bisect_defect_abc(
    xa: float, xb: float, xn: float, na: float, nb: float, nn: float,
    ca: float, cb: float, cn: float,
) -> float:
    """bisect_defect() of the normals of xi, n and chi with their lengths xn, nn, cn."""
    cos_chi = abs(xa * ca + xb * cb) / (xn * cn)
    cos_n = abs(xa * na + xb * nb) / (xn * nn)
    return abs(cos_chi - cos_n)


def bisect_defect(xi: Line, n: Line, chi: Line) -> float:
    """|cos(theta/2) mismatch| between the xi-n and xi-chi angle cosines."""
    return bisect_defect_abc(xi.a, xi.b, xi.norm, n.a, n.b, n.norm, chi.a, chi.b, chi.norm)


def bisects(xi: Line, n: Line, chi: Line, tol: float = 1e-9) -> bool:
    """True when xi bisects the angle between n and chi (within tol)."""
    return bisect_defect(xi, n, chi) <= tol
