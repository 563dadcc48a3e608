"""Planar points, lines in normal form, reflections, and fold lines.

Lines are stored as a*x + b*y = c with the raw coefficients retained;
a canonical unit-normal form is used only for equality tests and
reporting, never for arithmetic, to avoid drift.

Each construction has one name, on bare floats; Point and Line are tuples,
so a caller unpacks a record into one: ``reflect_xy(*point, *mirror)``.
The incidence measurements are written in the one kernel that takes them,
``foldsolve._reconstruct``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Normals count as linearly dependent when the 2x2 determinant is below
# this factor times the product of their magnitudes (scale invariant).
PARALLEL_TOL = 1e-12

XY = tuple[float, float]
ABC = tuple[float, float, float]


class Point(NamedTuple):
    x: float
    y: float


class _LineFields(NamedTuple):
    a: float
    b: float
    c: float


class Line(_LineFields):
    """Oriented line a*x + b*y = c with normal (a, b), which must be nonzero."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float) -> Line:
        if a == 0.0 and b == 0.0:
            raise ValueError("line normal must be nonzero")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable) -> Line:  # so that _replace checks the normal too
        return cls(*iterable)

    @property
    def norm(self) -> float:
        return math.hypot(self.a, self.b)


def canonical_abc(a: float, b: float, c: float, norm: float) -> ABC:
    """Unit-normal triple of a*x + b*y = c, |(a, b)| = norm: a > 0, or a = 0 < b."""
    s = 1.0 / norm
    a, b, c = a * s, b * s, c * s
    if a < 0.0 or (a == 0.0 and b < 0.0):
        return (-a, -b, -c)
    return (a, b, c)


def triple_gap(u: ABC, v: ABC) -> float:
    """Max-abs gap between two canonical triples, insensitive to the sign tie at a ~ 0."""
    direct = max(abs(u[0] - v[0]), abs(u[1] - v[1]), abs(u[2] - v[2]))
    flipped = max(abs(u[0] + v[0]), abs(u[1] + v[1]), abs(u[2] + v[2]))
    return min(direct, flipped)


def fold_xi(t: float, h: float) -> Line:
    """Fold line placing Q(0, h) onto y = -h at Q'(2t, -h): t*x - h*y = t**2.

    Passes through (t, 0); t = 0 yields the x axis.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    return tuple.__new__(Line, (t, -h, t * t))  # its normal's -h is nonzero


def reflect_xy(x: float, y: float, a: float, b: float, c: float) -> XY:
    """(x, y) reflected across a*x + b*y = c."""
    d = (a * x + b * y - c) / (a * a + b * b)
    return x - 2.0 * d * a, y - 2.0 * d * b


def foot_and_direction_abc(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """The foot point (fx, fy) of a*x + b*y = c, its point nearest the origin,
    and its unit direction (dx, dy), the normal turned a quarter left."""
    n2 = a * a + b * b
    inv = 1.0 / math.sqrt(n2)
    return c * a / n2, c * b / n2, -b * inv, a * inv


def reflect_abc(ta: float, tb: float, tc: float, ma: float, mb: float, mc: float) -> ABC:
    """(a, b, c) of the line ta*x + tb*y = tc reflected across ma*x + mb*y = mc.

    The reflection R across the mirror is an involution, so the image is
    the set of points y with t·R(y) = tc, t = (ta, tb): the target less f
    times the mirror, with f = 2 (t·m) / |m|^2 on the normals.  Its normal
    is t reflected, as long as t; this covers intersecting and parallel
    mirrors alike (a parallel mirror yields the equidistant line on the far
    side), at any distance from the origin.
    """
    f = 2.0 * (ta * ma + tb * mb) / (ma * ma + mb * mb)
    return ta - f * ma, tb - f * mb, tc - f * mc
