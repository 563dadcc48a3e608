"""Inverse construction: from quintic coefficients to the fold configuration.

Given a monic quintic t^5 + A*t^4 + B*t^3 + G*t^2 + D*t + E, this module
computes the parameters (h, b, c, k, p, q) of the point/line set

    Q(0, h),  m: y = -h,  P(p, q),  l: x = k,  n: x + b*y = c

for which the two-simultaneous-fold operation's admissible fold parameter
t satisfies exactly that quintic.  ``forward_coefficients`` is the
authoritative statement of the coefficient system; everything else here
inverts it and is certified against it by roundtrip.

Scaling every length of a configuration by s, and keeping the slope b,
scales coefficient i of its quintic by s^i: the same folds drawn s times
larger solve the quintic whose roots are s times larger.  So each quintic
is built in its 2^e frame, ``balance(q, e)``, whose roots are those of q
divided by 2^e, and its configuration stays there, with e as ``exponent``:
drawn 2^k times larger it is ``cfg._replace(exponent=cfg.exponent + k)``.
``drawn`` gives the caller's lengths, times 2^e, where a report or a drawing
writes them; with s a power of two both directions are exact, or InexactFrame.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import (
    DegenerateP,
    InexactFrame,
    NegativeDiscriminant,
    NoValidH,
    SingularSystem,
    ZeroConstantTerm,
)
from .geometry import Line, Point
from .polynomial import Quintic


# The sign choice in the quadratic solution for (b, c): "plus" takes +sqrt(D)
# in b coupled with -3 sqrt(D) in c, "minus" the opposite.  Both yield valid
# configurations; at D = 0 they coincide.
BRANCHES = ("plus", "minus")


class FoldConfig(NamedTuple):
    """Solved configuration parameters plus the derived points and lines.

    Every value is the 2^exponent frame's: the lengths h, c, k, p and q, the
    slope b (the same in every frame) and D (2^(10 exponent) times larger in
    the caller's frame, beyond the float range from |exponent| of about 103).
    The caller sees it drawn 2^exponent times larger, ``drawn(cfg)``.
    """

    h: float
    b: float
    c: float
    k: float
    p: float
    q: float
    branch: str
    D: float
    exponent: int = 0

    @property
    def point_q(self) -> Point:
        return Point(0.0, self.h)

    @property
    def line_m(self) -> Line:
        return Line(0.0, 1.0, -self.h)

    @property
    def point_p(self) -> Point:
        return Point(self.p, self.q)

    @property
    def line_l(self) -> Line:
        return Line(1.0, 0.0, self.k)

    @property
    def line_n(self) -> Line:
        return Line(1.0, self.b, self.c)


def forward_coefficients(
    b: float, c: float, k: float, p: float, q: float, h: float
) -> tuple[float, float, float, float, float]:
    """Quintic coefficients (quartic..constant) produced by a parameter tuple.

    This is the forward direction of the construction and the oracle every
    inverse step is checked against.
    """
    b2 = b * b
    alpha = (-k - p + 2.0 * b * q - b2 * k + b2 * p - 12.0 * b * h - 2.0 * c) / 4.0
    beta = h * (q + 2.0 * b * p - b2 * q + b * c - h + 2.0 * b2 * h)
    gamma = h * h * (3.0 * p - k - 6.0 * b * q - b2 * k - 3.0 * b2 * p + 2.0 * b * h) / 2.0
    delta = -(h**3) * (q + 2.0 * b * p - b2 * q - b * c)
    epsilon = h**4 * (-k - p + 2.0 * b * q - b2 * k + b2 * p + 2.0 * c) / 4.0
    return alpha, beta, gamma, delta, epsilon


def config_quintic(cfg: FoldConfig) -> Quintic:
    """The monic quintic this configuration solves."""
    return tuple.__new__(Quintic, (1.0, *forward_coefficients(cfg.b, cfg.c, cfg.k, cfg.p, cfg.q,
                                                              cfg.h)))


def balance_exponent(q: Quintic) -> int:
    """The exponent e of q's frame: round(log2 B) for Fujiwara's root bound
    B = 2 max(|a4|, |a3|^(1/2), |a2|^(1/3), |a1|^(1/4), |a0/2|^(1/5)), and 0
    when |e| <= 2.  The factor 2 is added to log2 of the max, so that a B
    beyond the float range (a4 = 1e308) still gives its e.
    """
    _, a4, a3, a2, a1, a0 = q
    peak = max(abs(a4), abs(a3) ** 0.5, abs(a2) ** (1 / 3), abs(a1) ** 0.25,
               abs(a0) ** 0.2 * 2.0**-0.2)
    e = round(1.0 + math.log2(peak)) if 0.0 < peak < math.inf else 0
    return 0 if -2 <= e <= 2 else e


def _scaled(values, shifts, names, e: int) -> list[float]:
    """Each value times 2 to its shift; InexactFrame naming the first product
    that is not exact (it overflows, underflows or drops bits), and e, the
    exponent of the frame.  The name is looked up only on a failure."""
    ldexp, out = math.ldexp, []
    for value, shift in zip(values, shifts):
        scaled = math.inf
        try:
            scaled = ldexp(value, shift)
            if ldexp(scaled, -shift) == value:
                out.append(scaled)
                continue
        except OverflowError:
            pass
        raise InexactFrame(f"{names[len(out)]} = {value!r} times 2^{shift} is {scaled!r}, "
                           f"not exact: no frame holds this quintic (e = {e})")
    return out


_COEFFICIENTS = ("coefficient a4", "coefficient a3", "coefficient a2", "coefficient a1",
                 "coefficient a0")


def balance(q: Quintic, e: int) -> Quintic:
    """q in its 2^e frame, the quintic whose roots are q's divided by 2^e:
    coefficient a_(5-i) times 2^(-i e), each exactly or InexactFrame."""
    if not e:
        return q
    return tuple.__new__(Quintic, (1.0, *_scaled(q[1:], (-e, -2 * e, -3 * e, -4 * e, -5 * e),
                                                 _COEFFICIENTS, e)))


def drawn(cfg: FoldConfig) -> FoldConfig:
    """cfg's values as the caller sees them, for a report or a drawing to
    write: every length times 2^exponent, each exactly or InexactFrame; b, D
    and exponent as they are.  solve_all and verify take cfg itself."""
    e = cfg.exponent
    if not e:
        return cfg
    h, c, k, p, q = _scaled((cfg.h, cfg.c, cfg.k, cfg.p, cfg.q), (e,) * 5, "hckpq", e)
    return FoldConfig(h, cfg.b, c, k, p, q, cfg.branch, cfg.D, e)


# the range of h in the frame, 2^_LOW to 2^_HIGH: from 2^_LOW every power of h
# the construction forms alone (up to h^6) is a finite, nonzero float, and up to
# 2^_HIGH D's 4 h^10 is at most 2^1022, so D and its rounding floor are finite
# for every quintic in its frame (|a_(5-i)| <= 2^(1.5 i), twice that for a0)
_LOW, _HIGH = -128, 102
H_MIN, H_MAX = 2.0**_LOW, 2.0**_HIGH
# choose_h's trial sequence
H_TRIALS = tuple([2.0**-i for i in range(41)] + [2.0**i for i in range(1, 21)])


def discriminant(q: Quintic, h: float) -> float:
    """D = (E - h^4*A)^2 - 4*h^6*(h^4 + h^2*B + D1) for the monic quintic
    with quartic A, cubic B, linear D1 and constant E coefficients.

    Nonnegative D admits real (b, c); for parameter tuples it equals
    h^8 * (c - b*h)^2.  An h outside [H_MIN, H_MAX], NaN included, is a
    ValueError.
    """
    if not H_MIN <= h <= H_MAX:
        raise ValueError(f"h must be from 2^{_LOW} to 2^{_HIGH} in the frame, got {h!r}")
    lead = q.a0 - h**4 * q.a4
    return lead * lead - 4.0 * h**6 * (h**4 + h * h * q.a3 + q.a1)


def choose_h(q: Quintic) -> float:
    """First h in the trial sequence 1, 1/2, ..., 2^-40, 2, 4, ..., 2^20
    with a nonnegative discriminant.

    A zero constant term means t = 0 is a root and no configuration is built (the
    caller should deflate).  D tends to a0^2 as h -> 0, but not always within the
    trials: t^5 + t + 10^-k raises NoValidH for every k from 36 on (ROADMAP item 8).
    """
    if q.a0 == 0.0:
        raise ZeroConstantTerm("constant term is zero; t = 0 is a root")
    for h in H_TRIALS:
        if discriminant(q, h) >= 0.0:
            return h
    raise NoValidH("discriminant negative for all h in 2^-40..2^20")


def _check_branch(branch: str) -> None:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")


def compute_bc(q: Quintic, h: float, branch: str = "plus") -> tuple[float, float, float]:
    """Solve the coupled pair (b, c) at the given h and sign branch, one of
    BRANCHES (else ValueError); returns (b, c, D) with D clamped.

    b = (E - h^4*A +- sqrt(D)) / (4*h^5) with the opposite triple sign in
    c = (E - h^4*A -+ 3*sqrt(D)) / (4*h^4).  Tiny negative D from rounding
    is clamped to zero; a genuinely negative D raises, and so does a D that
    is not finite or whose rounding floor is not (its powers of h overflow).
    """
    _check_branch(branch)
    d = discriminant(q, h)
    lead = q.a0 - h**4 * q.a4
    floor = 64.0 * sys.float_info.epsilon * (
        lead * lead + 4.0 * h**6 * (h**4 + abs(h * h * q.a3) + abs(q.a1)) + 1.0
    )
    if not d >= -floor or floor == math.inf:  # NaN fails too
        why = "< 0" if floor < math.inf else "is not finite"
        raise NegativeDiscriminant(f"D = {d:.6g} {why} at h = {h:.6g}")
    d = max(d, 0.0)
    root = math.sqrt(d) if branch == "plus" else -math.sqrt(d)
    return (lead + root) / (4.0 * h**5), (lead - 3.0 * root) / (4.0 * h**4), d


def compute_kpq(q: Quintic, h: float, b: float, c: float) -> tuple[float, float, float]:
    """Solve the quartic, cubic and quadratic rows of the coefficient system
    for (k, p, q), with b, c and h known; the remaining two rows hold once
    (b, c) satisfy their compatibility relations.

    With (P, Q) the point (p, q) rotated by twice the angle of n's normal
    (1, b), the rows over their norms separate into k + P = u, Q = v and
    k - 3P = w, so the solution is closed-form; the paper's printed closed
    forms serve only as a cross-check in the tests.  Every term scales
    exactly by 2^k with the quintic scaled by 2^k at h 2^k, and so does the
    solution, bit for bit.

    The determinant, h^3 (1 + b^2)^3 / 2, is never zero for h > 0, so
    SingularSystem reports numerical trouble only: a solution that is not
    finite.  Whether it reproduces the quintic is
    ``foldsolve.check_roundtrip``'s call.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    s = 1.0 + b * b
    cos, sin = (1.0 - b * b) / s, 2.0 * b / s  # n's normal at twice its angle
    u = -4.0 * (q.a4 + 3.0 * b * h + c / 2.0) / s  # k + P
    w = -2.0 * (q.a2 / h / h - b * h) / s  # k - 3P; h * h could underflow
    v = (q.a3 / h - b * c + h - 2.0 * b * b * h) / s  # Q
    rotated_p = (u - w) / 4.0
    k, p, q_point = u - rotated_p, cos * rotated_p + sin * v, cos * v - sin * rotated_p
    if not (math.isfinite(k) and math.isfinite(p) and math.isfinite(q_point)):
        raise SingularSystem(f"(k, p, q) = {(k, p, q_point)} at b = {b:.6g}, h = {h:.6g}")
    return k, p, q_point


def build_config(
    q: Quintic, h_override: float | None = None, branch: str = "plus"
) -> FoldConfig:
    """Full inverse construction for a monic quintic, in its 2^e frame.

    Balances q by e = balance_exponent(q), picks h there (unless overridden:
    h_override is the caller's h, 2^e times the frame's), solves (b, c) with
    compute_bc on the branch, one of BRANCHES (else ValueError), then (k, p,
    q) in closed form, and hands the configuration back in the frame, e its
    exponent.  P on line l (p = k) is never perturbed silently: an h that
    build_config chose itself moves on to the next h of the trial sequence
    that compute_bc admits, and an overriding h raises DegenerateP.  An
    h_override outside [H_MIN, H_MAX] in the frame is a ValueError naming it
    as the caller gave it, raised before the constant term is looked at;
    every other error names the frame's values.
    """
    _check_branch(branch)
    e = balance_exponent(q)
    if h_override is not None:
        try:
            h = math.ldexp(float(h_override), -e)
        except OverflowError:  # beyond the float range, so above H_MAX
            h = math.inf
        if not H_MIN <= h <= H_MAX:
            raise ValueError(f"h must be from 2^{e + _LOW} to 2^{e + _HIGH}, got {h_override!r}")
    if q.a0 == 0.0:
        raise ZeroConstantTerm("constant term is zero; t = 0 is a root")
    q = balance(q, e)
    if h_override is not None:
        return _config_at(q, h, branch, e)
    for h in H_TRIALS[H_TRIALS.index(choose_h(q)):]:  # each h compute_bc admits, from choose_h's
        try:
            return _config_at(q, h, branch, e)
        except NegativeDiscriminant:
            continue
        except DegenerateP as exc:
            degenerate = exc
    raise degenerate


def _config_at(q: Quintic, h: float, branch: str, e: int) -> FoldConfig:
    """q's configuration at h in its 2^e frame; DegenerateP when P lies on l."""
    b, c, d = compute_bc(q, h, branch)
    k, p, q_point = compute_kpq(q, h, b, c)
    if abs(p - k) <= 1e-12 * max(abs(k), abs(p)):  # 12 digits at every scale
        raise DegenerateP(
            f"P lies on line l (p = k = {k:.6g}) at h = {h:.6g}; retry with a different h"
        )
    return tuple.__new__(FoldConfig, (h, b, c, k, p, q_point, branch, d, e))
