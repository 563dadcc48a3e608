"""Per-root fold reconstruction and incidence verification.

For a configuration and a candidate parameter t, the fold xi is fixed by
(t, h) and chi is constructed as the reflection of line n across xi, so
the alignment incidence holds by construction, without a branch, and is
not measured; the remaining incidences (Q' on m, P' on l, the bisector
relation, the parallel-case equidistance) are measured as numeric residuals.

Everything is measured in the configuration's 2^e frame, where it lives,
so a residual means the same at every scale: lengths in units of 2^e.  The
roots, folds and images come back in the caller's frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import ConfigMismatch
from .foldconfig import FoldConfig, balance, config_quintic
from .geometry import Line, Point, fold_xi, reflect_abc, reflect_xy
from .polynomial import Quintic, coefficient_gap, real_roots, worst_item

# Diagnostics attached to a solution instead of rejecting it outright.
CHI_EQUALS_N = "chi_equals_n"
LOW_CONFIDENCE = "low_confidence"

# Normals count as linearly dependent when the 2x2 determinant is below
# this factor times the product of their magnitudes (scale invariant).
PARALLEL_TOL = 1e-12


class IncidenceResiduals(NamedTuple):
    """Per-constraint defects certifying one fold solution.

    All fields are nonnegative; ``equidistant`` is meaningful only in the
    parallel case and ``intersection_on_chi`` only outside it (each is
    zero in the other regime).
    """

    q_on_m: float
    p_on_l: float
    bisect: float
    quintic_value: float
    equidistant: float
    intersection_on_chi: float

    @property
    def worst_field(self) -> tuple[str, float]:
        """The largest residual and its field name; a NaN one comes first."""
        return worst_item(zip(self._fields, self))

    def passes(self, tol: float) -> bool:
        a, b, c, d, e, f = self  # a NaN fails
        return a <= tol and b <= tol and c <= tol and d <= tol and e <= tol and f <= tol


class FoldSolution(NamedTuple):
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


def verify(cfg: FoldConfig, t: float) -> IncidenceResiduals:
    """Measure every incidence residual for the candidate parameter t, which
    is in the caller's frame and taken to cfg's; the residuals are the frame's.

    Outside the parallel case the xi-n intersection is recomputed and its
    distance to chi reported; inside it, a chi off xi's direction, or one
    whose c is NaN once t*t overflows, gives a NaN equidistant residual.
    Thresholding the residuals is the caller's call.
    """
    fixed = _config_values(cfg, config_quintic(cfg))
    return _reconstruct(cfg, t * 2.0**-cfg.exponent, fixed).residuals


def _config_values(cfg: FoldConfig, quintic: Quintic) -> tuple:
    """What _reconstruct needs that is fixed for the configuration, in its frame: |n|,
    the low-confidence threshold, the monic quintic's lower five coefficients (Horner
    from t + a4 rounds as ``evaluate`` does at a finite t, whose first step
    0.0 * t + 1.0 is 1.0) and 2^exponent, the caller's unit of length."""
    return (math.hypot(1.0, cfg.b), 1e-9 * (1.0 + abs(cfg.p) + abs(cfg.q)), *quintic[1:],
            2.0**cfg.exponent)


def _reconstruct(cfg: FoldConfig, t: float, fixed: tuple, multiplicity: int = 1) -> FoldSolution:
    """The per-root kernel of solve_all and verify: xi from (t, h), chi the
    reflection of n across xi, and every incidence measured on local floats,
    all in the frame of cfg and t; fixed is ``_config_values`` of the
    configuration and its quintic.  The record's lengths (t, s, the lines'
    c and the images) are the caller's, times 2^e.  The records skip their
    constructors: Line's one check holds, as xi's normal is (t, -h) with h > 0,
    and chi's is n's (1, b) reflected, as long as n's to a few ulps, so at
    least about 1 and never zero."""
    h, b, c, k, p, q, _, _, _ = cfg
    nn, still, a4, a3, a2, a1, a0, unit = fixed
    xa, xb, xc = fold_xi(t, h)
    ca, cb, cc = reflect_abc(1.0, b, c, xa, xb, xc)
    qx, qy = reflect_xy(0.0, h, xa, xb, xc)
    px, py = reflect_xy(p, q, ca, cb, cc)
    xn, cn = math.hypot(xa, xb), math.hypot(ca, cb)
    # n's normal is (1.0, b), and 1.0 * v is v: the dot products of xi's normal
    # with n's and chi's, and the determinant of xi's and n's
    xi_n, xi_chi, det = xa + xb * b, xa * ca + xb * cb, xa * b - xb
    parallel = abs(det) <= PARALLEL_TOL * xn * nn
    if parallel:
        if abs(xa * cb - ca * xb) <= PARALLEL_TOL * xn * cn:
            # the distances from xi to n and to chi, each line first rescaled
            # so that its normal matches xi's
            equidistant = abs(abs(xc - xi_n / (1.0 + b * b) * c) / xn
                              - abs(xc - xi_chi / (ca * ca + cb * cb) * cc) / xn)
        else:  # the distance to a line off xi's direction is undefined
            equidistant = math.nan
        on_chi = 0.0
    else:  # the distance of the crossing of xi and n from chi
        x, y = (xc * b - c * xb) / det, (xa * c - xc) / det
        equidistant, on_chi = 0.0, abs(ca * x + cb * y - cc) / cn

    # bisect: |cos| of the xi-chi angle against |cos| of the xi-n angle
    new = tuple.__new__
    residuals = new(IncidenceResiduals, (
        abs(qy + h), abs(px - k), abs(abs(xi_chi) / (xn * cn) - abs(xi_n) / (xn * nn)),
        abs(((((t + a4) * t + a3) * t + a2) * t + a1) * t + a0), equidistant, on_chi))
    diagnostics = ()
    # chi equals n when their unit triples are within 1e-9 of each other, with
    # either sign; that leaves the unit normals' cross product at most 2e-9
    if abs(ca * b - cb) <= 1e-8 * cn * nn:
        u, v = 1.0 / cn, 1.0 / nn
        ua, ub, uc, vb, vc = ca * u, cb * u, cc * u, b * v, c * v
        if min(max(abs(ua - v), abs(ub - vb), abs(uc - vc)),
               max(abs(ua + v), abs(ub + vb), abs(uc + vc))) <= 1e-9:
            diagnostics = (CHI_EQUALS_N,)
    if math.hypot(px - p, py - q) <= still:
        diagnostics += (LOW_CONFIDENCE,)
    return new(FoldSolution, (t * unit, py * unit, new(Line, (xa, xb, xc * unit)),
                              new(Line, (ca, cb, cc * unit)), new(Point, (qx * unit, qy * unit)),
                              new(Point, (px * unit, py * unit)), residuals, parallel,
                              multiplicity, diagnostics))


def check_roundtrip(cfg: FoldConfig, coeffs: Sequence[float]) -> Quintic:
    """The configuration's quintic; ConfigMismatch unless it reproduces the
    six coefficients within a coefficient gap of 1e-8.  Both are taken as
    they are: a built configuration is in its frame, and ``balance`` takes
    its quintic there, where the gap means the same at every scale."""
    try:
        quintic = config_quintic(cfg)
    except OverflowError:  # a power of h beyond the float range
        raise ConfigMismatch(f"the configuration's quintic overflows at h = {cfg.h!r}") from None
    gap = coefficient_gap(quintic, coeffs)
    if not gap <= 1e-8:  # a NaN gap fails too
        raise ConfigMismatch(
            f"configuration reproduces the source within {gap:.3e} only (limit 1e-8)"
        )
    return quintic


def solve_all(cfg: FoldConfig, source: Quintic) -> list[FoldSolution]:
    """One verified FoldSolution per distinct real root of the source quintic.

    The source is taken to the configuration's 2^e frame, where the
    configuration must pass ``check_roundtrip`` against the source
    coefficients, otherwise ConfigMismatch, and where the roots
    are those of ``real_roots``, whose refinement is deterministic, so a stored
    solve rebuilds bit for bit; each comes back as 2^e times the frame's.
    Solutions come back sorted ascending in t; s is read off the image of P.
    A chi that coincides with n, or an image of P too close to P itself, is
    flagged through the diagnostics field rather than dropped.  What every
    root shares, |n|, the low-confidence threshold, the quintic's
    coefficients and 2^e, is computed once.
    """
    source = balance(source, cfg.exponent)
    fixed = _config_values(cfg, check_roundtrip(cfg, source))
    return [_reconstruct(cfg, root, fixed, mult) for root, mult in real_roots(source)]
