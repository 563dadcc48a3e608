"""Per-root fold reconstruction and incidence verification.

For a configuration and a candidate parameter t, the fold xi is fixed by
(t, h) and chi is constructed as the reflection of line n across xi, so
the alignment incidence holds by construction and never branches; the
remaining incidences (Q' on m, P' on l, the bisector relation, the
parallel-case equidistance) are measured as numeric residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigMismatch, ZeroB
from .foldconfig import FoldConfig, config_quintic
from .geometry import (
    Line,
    Point,
    bisect_defect,
    canonical_gap,
    fold_xi,
    intersect,
    is_parallel,
    parallel_distance,
    point_line_distance,
    reflect_line,
    reflect_point,
)
from .polynomial import Quintic, coefficient_gap, evaluate, max_or_nan, real_roots

# Diagnostics attached to a solution instead of rejecting it outright.
CHI_EQUALS_N = "chi_equals_n"
LOW_CONFIDENCE = "low_confidence"


@dataclass(frozen=True)
class IncidenceResiduals:
    """Per-constraint defects certifying one fold solution.

    All fields are nonnegative; ``equidistant`` is meaningful only in the
    parallel case and ``intersection_on_chi`` only outside it (each is
    zero in the other regime).
    """

    q_on_m: float
    p_on_l: float
    align: float
    bisect: float
    quintic_value: float
    equidistant: float
    intersection_on_chi: float

    @property
    def worst(self) -> float:
        """The largest residual, NaN if any residual is NaN."""
        return max_or_nan(self.as_dict().values())

    def passes(self, tol: float) -> bool:
        return self.worst <= tol

    def as_dict(self) -> dict[str, float]:
        return {
            "q_on_m": self.q_on_m,
            "p_on_l": self.p_on_l,
            "align": self.align,
            "bisect": self.bisect,
            "quintic_value": self.quintic_value,
            "equidistant": self.equidistant,
            "intersection_on_chi": self.intersection_on_chi,
        }


@dataclass(frozen=True)
class FoldSolution:
    """One real root t with its reconstructed folds and residuals."""

    t: float
    s: float
    xi: Line
    chi: Line
    q_image: Point
    p_image: Point
    residuals: IncidenceResiduals
    parallel_case: bool
    multiplicity: int = 1
    diagnostics: tuple[str, ...] = ()


def chi_from_xi(cfg: FoldConfig, t: float) -> Line:
    """The fold chi as the image of line n under the fold xi.

    Total in t: when xi is parallel to n (b*t + h = 0) the reflection
    yields the equidistant parallel line, which is exactly the
    parallel-case chi.
    """
    return reflect_line(cfg.line_n, fold_xi(t, cfg.h))


def residual_g(cfg: FoldConfig, t: float) -> float:
    """Scalar incidence defect: x-offset of P's image under chi from line l.

    Zero exactly where every incidence of the two-fold operation holds.
    """
    return reflect_point(cfg.point_p, chi_from_xi(cfg, t)).x - cfg.k


def is_parallel_case(cfg: FoldConfig, t: float) -> bool:
    """Whether xi at t shares n's normal direction (b*t + h = 0, scale aware)."""
    return is_parallel(fold_xi(t, cfg.h), cfg.line_n)


def parallel_case_check(cfg: FoldConfig, t: float, tol: float = 1e-9) -> bool:
    """True iff t is the parallel direction and the closed parallel-fold
    condition 4h + b(k+p) + 2b(bq+c) + b^3(k-p) = 0 holds within tol.

    Both facts together are equivalent to t = -h/b being a root of the
    configuration's quintic, so the parallel case needs no separate solve.
    """
    if cfg.b == 0.0:
        raise ZeroB("n is vertical; xi can never be parallel to it")
    if not is_parallel_case(cfg, t):
        return False
    value = (
        4.0 * cfg.h
        + cfg.b * (cfg.k + cfg.p)
        + 2.0 * cfg.b * (cfg.b * cfg.q + cfg.c)
        + cfg.b**3 * (cfg.k - cfg.p)
    )
    return abs(value) <= tol * (1.0 + abs(cfg.h) + cfg.max_abs_parameter)


def verify(
    cfg: FoldConfig, t: float, *, xi: Line | None = None, chi: Line | None = None
) -> IncidenceResiduals:
    """Measure every incidence residual for the candidate parameter t.

    xi and chi default to the reconstruction from (cfg, t); stored lines
    may be passed instead to re-check a serialized solution.  Outside the
    parallel case the xi-n intersection is recomputed and its distance to
    chi reported.  Thresholding the residuals is the caller's call.
    """
    if xi is None:
        xi = fold_xi(t, cfg.h)
    if chi is None:
        chi = chi_from_xi(cfg, t)
    q_image = reflect_point(cfg.point_q, xi)
    p_image = reflect_point(cfg.point_p, chi)
    chi_ref = reflect_line(cfg.line_n, xi)

    parallel = is_parallel(xi, cfg.line_n)
    if parallel:
        equidistant = abs(
            parallel_distance(xi, cfg.line_n) - parallel_distance(xi, chi)
        )
        on_chi = 0.0
    else:
        equidistant = 0.0
        cross = intersect(xi, cfg.line_n)
        on_chi = point_line_distance(cross, chi) if cross is not None else 0.0

    return IncidenceResiduals(
        q_on_m=abs(q_image.y + cfg.h),
        p_on_l=abs(p_image.x - cfg.k),
        align=canonical_gap(chi_ref, chi),
        bisect=bisect_defect(xi, cfg.line_n, chi),
        quintic_value=abs(evaluate(config_quintic(cfg), t)),
        equidistant=equidistant,
        intersection_on_chi=on_chi,
    )


def check_roundtrip(cfg: FoldConfig, coeffs: Sequence[float]) -> None:
    """Raise ConfigMismatch unless the configuration's quintic reproduces
    the six coefficients within a coefficient gap of 1e-8."""
    gap = coefficient_gap(config_quintic(cfg).coeffs, coeffs)
    if not gap <= 1e-8:  # a NaN gap fails too
        raise ConfigMismatch(
            f"configuration reproduces the source within {gap:.3e} only (limit 1e-8)"
        )


def solve_all(
    cfg: FoldConfig, source: Quintic, root_tol: float = 1e-12
) -> list[FoldSolution]:
    """One verified FoldSolution per distinct real root of the source quintic.

    The configuration must pass ``check_roundtrip`` against the source
    coefficients, otherwise ConfigMismatch.  Solutions come back sorted
    ascending in t; s is read off the image of P.  A chi that coincides
    with n, or an image of P too close to P itself, is flagged through
    the diagnostics field rather than dropped.
    """
    check_roundtrip(cfg, source.coeffs)
    solutions = []
    for root, mult in real_roots(source, root_tol):
        xi = fold_xi(root, cfg.h)
        chi = chi_from_xi(cfg, root)
        residuals = verify(cfg, root, xi=xi, chi=chi)
        p_image = reflect_point(cfg.point_p, chi)
        diagnostics = []
        if canonical_gap(chi, cfg.line_n) <= 1e-9:
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
                q_image=reflect_point(cfg.point_q, xi),
                p_image=p_image,
                residuals=residuals,
                parallel_case=is_parallel(xi, cfg.line_n),
                multiplicity=mult,
                diagnostics=tuple(diagnostics),
            )
        )
    return solutions

