import math

import numpy as np
import pytest

from origami_quintic import (
    CHI_EQUALS_N,
    LOW_CONFIDENCE,
    Branch,
    FoldConfig,
    FoldSolution,
    IncidenceResiduals,
    Line,
    NotParallel,
    Point,
    Quintic,
    build_config,
    config_quintic,
    evaluate,
    fold_xi,
    normalize_monic,
    real_roots,
)
from origami_quintic.foldsolve import check_roundtrip
from origami_quintic.geometry import PARALLEL_TOL

HENDECAGON = (1.0, 1.0, -4.0, -3.0, 3.0, 1.0)

# its roots, from the closed form 2*cos(2*pi*i/11), i = 1..5
HENDECAGON_ROOTS = sorted(2.0 * math.cos(2.0 * math.pi * i / 11.0) for i in range(1, 6))


@pytest.fixture
def hendecagon():
    return normalize_monic(HENDECAGON)


@pytest.fixture
def hendecagon_config(hendecagon):
    return build_config(hendecagon)


def make_config(h, b, c, k, p, q, branch=Branch.PLUS, D=0.0):
    """Config straight from a parameter tuple (no inverse solve involved)."""
    return FoldConfig(h=h, b=b, c=c, k=k, p=p, q=q, branch=branch, D=D)


def residual_grid(cfg: FoldConfig, ts: np.ndarray) -> np.ndarray:
    """Vectorized mirror of residual_g, written out independently from the
    parameters: the reference that criterion 5 and TestResidualG compare
    the library against."""
    h, b, c, k, p, q = cfg.h, cfg.b, cfg.c, cfg.k, cfg.p, cfg.q
    n2 = 1.0 + b * b
    fx, fy = c / n2, c * b / n2
    inv = 1.0 / math.sqrt(n2)
    dx, dy = -b * inv, inv
    xi_n2 = ts * ts + h * h
    ax, ay = fx + dx, fy + dy
    d = (ts * ax - h * ay - ts * ts) / xi_n2
    axr, ayr = ax - 2.0 * d * ts, ay + 2.0 * d * h
    bx, by = fx - dx, fy - dy
    d = (ts * bx - h * by - ts * ts) / xi_n2
    bxr, byr = bx - 2.0 * d * ts, by + 2.0 * d * h
    ca, cb = byr - ayr, axr - bxr
    cc = ca * axr + cb * ayr
    d = (ca * p + cb * q - cc) / (ca * ca + cb * cb)
    return p - 2.0 * d * ca - k


def outcome(fn):
    """repr of what fn returns, or the class and message of what it raises."""
    try:
        return repr(fn())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# The per-root reconstruction as it was written on Point and Line objects,
# kept as the reference that the float-level kernel must match bit for bit.


def reference_reflect_point(pt: Point, mirror: Line) -> Point:
    d = (mirror.a * pt.x + mirror.b * pt.y - mirror.c) / (
        mirror.a * mirror.a + mirror.b * mirror.b
    )
    return Point(pt.x - 2.0 * d * mirror.a, pt.y - 2.0 * d * mirror.b)


def reference_reflect_line(target: Line, mirror: Line) -> Line:
    """Reflect two points one unit from the target's foot and join them."""
    n2 = target.a * target.a + target.b * target.b
    foot = Point(target.c * target.a / n2, target.c * target.b / n2)
    inv = 1.0 / math.sqrt(n2)
    dx, dy = -target.b * inv, target.a * inv
    p1 = reference_reflect_point(Point(foot.x + dx, foot.y + dy), mirror)
    p2 = reference_reflect_point(Point(foot.x - dx, foot.y - dy), mirror)
    ddx, ddy = p2.x - p1.x, p2.y - p1.y
    if ddx == 0.0 and ddy == 0.0:
        raise ValueError("need two distinct points")
    a, b = ddy, -ddx
    return Line(a, b, a * p1.x + b * p1.y)


def reference_canonical(line: Line) -> tuple[float, float, float]:
    s = 1.0 / line.norm
    a, b, c = line.a * s, line.b * s, line.c * s
    if a < 0.0 or (a == 0.0 and b < 0.0):
        return (-a, -b, -c)
    return (a, b, c)


def reference_canonical_gap(l1: Line, l2: Line) -> float:
    u = reference_canonical(l1)
    v = reference_canonical(l2)
    direct = max(abs(x - y) for x, y in zip(u, v))
    flipped = max(abs(x + y) for x, y in zip(u, v))
    return min(direct, flipped)


def _reference_parallel(l1: Line, l2: Line) -> bool:
    det = l1.a * l2.b - l2.a * l1.b
    return abs(det) <= PARALLEL_TOL * l1.norm * l2.norm


def _reference_parallel_distance(l1: Line, l2: Line) -> float:
    if not _reference_parallel(l1, l2):
        raise NotParallel("lines are not parallel")
    s = (l1.a * l2.a + l1.b * l2.b) / (l2.a * l2.a + l2.b * l2.b)
    return abs(l1.c - s * l2.c) / l1.norm


def reference_verify(cfg: FoldConfig, t: float, xi: Line | None = None,
                     chi: Line | None = None) -> IncidenceResiduals:
    if xi is None:
        xi = fold_xi(t, cfg.h)
    if chi is None:
        chi = reference_reflect_line(cfg.line_n, fold_xi(t, cfg.h))
    n = cfg.line_n
    q_image = reference_reflect_point(cfg.point_q, xi)
    p_image = reference_reflect_point(cfg.point_p, chi)
    chi_ref = reference_reflect_line(n, xi)
    if _reference_parallel(xi, n):
        equidistant = abs(
            _reference_parallel_distance(xi, n) - _reference_parallel_distance(xi, chi)
        )
        on_chi = 0.0
    else:
        equidistant = 0.0
        det = xi.a * n.b - n.a * xi.b
        x, y = (xi.c * n.b - n.c * xi.b) / det, (xi.a * n.c - n.a * xi.c) / det
        on_chi = abs(chi.a * x + chi.b * y - chi.c) / chi.norm
    cos_chi = abs(xi.a * chi.a + xi.b * chi.b) / (xi.norm * chi.norm)
    cos_n = abs(xi.a * n.a + xi.b * n.b) / (xi.norm * n.norm)
    return IncidenceResiduals(
        q_on_m=abs(q_image.y + cfg.h),
        p_on_l=abs(p_image.x - cfg.k),
        align=reference_canonical_gap(chi_ref, chi),
        bisect=abs(cos_chi - cos_n),
        quintic_value=abs(evaluate(config_quintic(cfg), t)),
        equidistant=equidistant,
        intersection_on_chi=on_chi,
    )


def reference_solve_all(cfg: FoldConfig, source: Quintic) -> list[FoldSolution]:
    check_roundtrip(cfg, source.coeffs)
    solutions = []
    for root, mult in real_roots(source):
        xi = fold_xi(root, cfg.h)
        chi = reference_reflect_line(cfg.line_n, fold_xi(root, cfg.h))
        residuals = reference_verify(cfg, root, xi=xi, chi=chi)
        p_image = reference_reflect_point(cfg.point_p, chi)
        diagnostics = []
        if reference_canonical_gap(chi, cfg.line_n) <= 1e-9:
            diagnostics.append(CHI_EQUALS_N)
        moved = math.hypot(p_image.x - cfg.p, p_image.y - cfg.q)
        if moved <= 1e-9 * (1.0 + abs(cfg.p) + abs(cfg.q)):
            diagnostics.append(LOW_CONFIDENCE)
        solutions.append(
            FoldSolution(
                t=root,
                s=p_image.y,
                xi=xi,
                chi=chi,
                q_image=reference_reflect_point(cfg.point_q, xi),
                p_image=p_image,
                residuals=residuals,
                parallel_case=_reference_parallel(xi, cfg.line_n),
                multiplicity=mult,
                diagnostics=tuple(diagnostics),
            )
        )
    return solutions
