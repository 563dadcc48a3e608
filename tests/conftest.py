import argparse
import math
from fractions import Fraction

import numpy as np
import pytest

from origami_quintic import (
    CHI_EQUALS_N,
    LOW_CONFIDENCE,
    FoldConfig,
    FoldSolution,
    IncidenceResiduals,
    Line,
    OrigamiQuinticError,
    Point,
    Quintic,
    build_config,
    config_quintic,
    evaluate,
    fold_xi,
    normalize_monic,
    real_roots,
)
from origami_quintic.errors import SingularSystem, SturmOverflow
from origami_quintic.foldconfig import BRANCHES, balance
from origami_quintic.foldsolve import check_roundtrip
from origami_quintic.polynomial import cauchy_bound
from origami_quintic.geometry import (
    PARALLEL_TOL,
    canonical_abc,
    reflect_abc,
    reflect_xy,
    triple_gap,
)

HENDECAGON = (1.0, 1.0, -4.0, -3.0, 3.0, 1.0)

# its roots, from the closed form 2*cos(2*pi*i/11), i = 1..5
HENDECAGON_ROOTS = sorted(2.0 * math.cos(2.0 * math.pi * i / 11.0) for i in range(1, 6))


@pytest.fixture
def hendecagon():
    return normalize_monic(HENDECAGON)


@pytest.fixture
def hendecagon_config(hendecagon):
    return build_config(hendecagon)


def make_config(h, b, c, k, p, q, branch="plus", D=0.0):
    """Config straight from a parameter tuple (no inverse solve involved)."""
    return FoldConfig(h=h, b=b, c=c, k=k, p=p, q=q, branch=branch, D=D)


def residual_grid(cfg: FoldConfig, ts: np.ndarray) -> np.ndarray:
    """Vectorized residual_g, written out independently from the parameters,
    with chi built the other way, through the images of two points one unit
    either side of n's foot point: the reference that criterion 5 and
    TestResidualG compare the library against."""
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
    """The target less f times the mirror, f = 2 (target . mirror) / |mirror|^2."""
    f = 2.0 * (target.a * mirror.a + target.b * mirror.b) / (
        mirror.a * mirror.a + mirror.b * mirror.b
    )
    return Line(target.a - f * mirror.a, target.b - f * mirror.b, target.c - f * mirror.c)


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


def is_parallel(l1: Line, l2: Line) -> bool:
    det = l1.a * l2.b - l2.a * l1.b
    return abs(det) <= PARALLEL_TOL * l1.norm * l2.norm


def reference_verify(cfg: FoldConfig, t: float) -> IncidenceResiduals:
    """The residuals at the caller's t, taken first to cfg's frame."""
    return _reference_residuals(cfg, math.ldexp(t, -cfg.exponent))


def _reference_residuals(cfg: FoldConfig, t: float, xi: Line | None = None,
                         chi: Line | None = None) -> IncidenceResiduals:
    """The residuals at t, both in cfg's frame."""
    if xi is None:
        xi = fold_xi(t, cfg.h)
    if chi is None:
        chi = reference_reflect_line(cfg.line_n, fold_xi(t, cfg.h))
    n = cfg.line_n
    q_image = reference_reflect_point(cfg.point_q, xi)
    p_image = reference_reflect_point(cfg.point_p, chi)
    if is_parallel(xi, n):
        equidistant = abs(
            parallel_distance(xi, n) - parallel_distance(xi, chi)
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
        bisect=abs(cos_chi - cos_n),
        quintic_value=abs(evaluate(config_quintic(cfg), t)),
        equidistant=equidistant,
        intersection_on_chi=on_chi,
    )


def reference_solve_all(cfg: FoldConfig, source: Quintic) -> list[FoldSolution]:
    """Every root solved in cfg's frame, where the source is taken first; the
    records are mapped back to the caller's frame afterwards."""
    e = cfg.exponent
    source = balance(source, e)
    check_roundtrip(cfg, source)
    solutions = []
    for root, mult in real_roots(source):
        xi = fold_xi(root, cfg.h)
        chi = reference_reflect_line(cfg.line_n, fold_xi(root, cfg.h))
        residuals = _reference_residuals(cfg, root, xi=xi, chi=chi)
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
                parallel_case=is_parallel(xi, cfg.line_n),
                multiplicity=mult,
                diagnostics=tuple(diagnostics),
            )
        )
    return [_in_caller_frame(sol, e) for sol in solutions]


def _in_caller_frame(sol: FoldSolution, e: int) -> FoldSolution:
    def up(v):
        return math.ldexp(v, e)

    return sol._replace(t=up(sol.t), s=up(sol.s), xi=sol.xi._replace(c=up(sol.xi.c)),
                        chi=sol.chi._replace(c=up(sol.chi.c)),
                        q_image=Point(up(sol.q_image.x), up(sol.q_image.y)),
                        p_image=Point(up(sol.p_image.x), up(sol.p_image.y)))


# Helpers that only the tests use: measurements on Point and Line objects,
# the scalar incidence defect, and the paper's closed form for (k, p, q).


class CoincidentPoints(OrigamiQuinticError):
    """A fold line through the midpoint of two points needs them distinct."""


class CoincidentLines(OrigamiQuinticError):
    """Two lines are canonically equal where a unique intersection is needed."""


class NotParallel(OrigamiQuinticError):
    """Distance between parallel lines requested for non-parallel lines."""


class ZeroB(OrigamiQuinticError):
    """Parallel fold lines are impossible when line n is vertical (b = 0)."""


def canonical_gap(l1: Line, l2: Line) -> float:
    """Max-abs gap between canonical forms, insensitive to the sign tie at a ~ 0."""
    return triple_gap(canonical_abc(*l1, l1.norm), canonical_abc(*l2, l2.norm))


def line_through(p1: Point, p2: Point) -> Line:
    """Line through two distinct points."""
    dx, dy = p2.x - p1.x, p2.y - p1.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("need two distinct points")
    return Line(dy, -dx, dy * p1.x - dx * p1.y)


def lines_equal(l1: Line, l2: Line, tol: float = 1e-9) -> bool:
    return canonical_gap(l1, l2) <= tol


def fold_chi(p: float, q: float, k: float, s: float) -> Line:
    """Fold line placing P(p, q) onto x = k at P'(k, s).

    Normal is P'P = (k - p, s - q); the line passes through the midpoint
    of segment PP'.
    """
    if k == p and s == q:
        raise CoincidentPoints("P equals P'; fold line undefined")
    return Line(k - p, s - q, (s * s - q * q) / 2.0 + (k * k - p * p) / 2.0)


def intersect(l1: Line, l2: Line) -> Point | None:
    """Unique intersection point, or None when the normals are dependent.

    Raises CoincidentLines when the lines are canonically equal (a
    coincident pair has every point in common, not none).
    """
    if is_parallel(l1, l2):
        scale = 1.0 + abs(canonical_abc(*l1, l1.norm)[2]) + abs(canonical_abc(*l2, l2.norm)[2])
        if canonical_gap(l1, l2) <= PARALLEL_TOL * scale:
            raise CoincidentLines("lines are canonically equal")
        return None
    det = l1.a * l2.b - l2.a * l1.b
    return Point((l1.c * l2.b - l2.c * l1.b) / det, (l1.a * l2.c - l2.a * l1.c) / det)


def parallel_distance(l1: Line, l2: Line) -> float:
    """Euclidean distance between parallel lines.

    l2 is rescaled so its normal matches l1's before the |c1 - c2| / |n|
    formula is applied.
    """
    if not is_parallel(l1, l2):
        raise NotParallel("lines are not parallel")
    s = (l1.a * l2.a + l1.b * l2.b) / (l2.a * l2.a + l2.b * l2.b)
    return abs(l1.c - s * l2.c) / l1.norm


def point_line_distance(pt: Point, line: Line) -> float:
    return abs(line.a * pt.x + line.b * pt.y - line.c) / line.norm


def bisect_defect(xi: Line, n: Line, chi: Line) -> float:
    """|cos(theta/2) mismatch| between the xi-n and xi-chi angle cosines."""
    cos_chi = abs(xi.a * chi.a + xi.b * chi.b) / (xi.norm * chi.norm)
    cos_n = abs(xi.a * n.a + xi.b * n.b) / (xi.norm * n.norm)
    return abs(cos_chi - cos_n)


def bisects(xi: Line, n: Line, chi: Line, tol: float = 1e-9) -> bool:
    """True when xi bisects the angle between n and chi (within tol)."""
    return bisect_defect(xi, n, chi) <= tol


def residual_g(cfg: FoldConfig, t: float) -> float:
    """Scalar incidence defect: x-offset of P's image under chi from line l.

    Zero exactly where every incidence of the two-fold operation holds.
    """
    chi = reflect_abc(*cfg.line_n, *fold_xi(t, cfg.h))
    return reflect_xy(*cfg.point_p, *chi)[0] - cfg.k


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
    largest = max(abs(v) for v in (cfg.h, cfg.b, cfg.c, cfg.k, cfg.p, cfg.q))
    return abs(value) <= tol * (1.0 + abs(cfg.h) + largest)


def closed_form_kpq(
    alpha: float, beta: float, gamma: float, h: float, b: float, c: float
) -> tuple[float, float, float]:
    """Closed-form (k, p, q), as an independent cross-check of the solve.

    Note the signs: the quadratic-row coefficient enters k with a plus
    sign, and the leading cubic term of p is -b*h^3*(b^2 + 3); variants
    with the opposite signs fail the coefficient-system roundtrip (the
    adjudication test pins this down numerically).
    """
    b2 = b * b
    k = -(17.0 * b * h**3 + 3.0 * h * h * (c + 2.0 * alpha) + gamma) / (
        2.0 * h * h * (b2 + 1.0)
    )
    p = (
        -b * h**3 * (b2 + 3.0)
        + h * h * ((2.0 * alpha - 3.0 * c) * b2 - c - 2.0 * alpha)
        + 4.0 * b * h * beta
        + (1.0 - b2) * gamma
    ) / (2.0 * h * h * (b2 + 1.0) ** 2)
    q = (
        h**3 * (2.0 * b2 * b2 + 4.0 * b2 + 1.0)
        + b * h * h * (b2 * c + 2.0 * alpha)
        + beta * h * (1.0 - b2)
        - b * gamma
    ) / (h * h * (b2 + 1.0) ** 2)
    return k, p, q


def exact_kpq(q: Quintic, h: float, b: float, c: float) -> tuple[Fraction, ...]:
    """(k, p, q) of the quartic, cubic and quadratic rows of the coefficient
    system, unscaled, by Cramer's rule in Fractions: the exact solution for
    these floats, with nothing of compute_kpq's rotation in it."""
    a4, a3, a2, h, b, c = map(Fraction, (q.a4, q.a3, q.a2, h, b, c))
    b2 = b * b
    rows = [
        [-(1 + b2) / 4, (b2 - 1) / 4, b / 2, a4 + 3 * b * h + c / 2],
        [0, 2 * b * h, h * (1 - b2), a3 - b * c * h + h * h - 2 * b2 * h * h],
        [-h * h * (1 + b2) / 2, 3 * h * h * (1 - b2) / 2, -3 * b * h * h, a2 - b * h**3],
    ]

    def det(cols):  # of the columns cols of the three rows
        x, y, z = ([row[j] for j in cols] for row in rows)
        return (x[0] * (y[1] * z[2] - y[2] * z[1]) - x[1] * (y[0] * z[2] - y[2] * z[0])
                + x[2] * (y[0] * z[1] - y[1] * z[0]))

    whole = det((0, 1, 2))
    return det((3, 1, 2)) / whole, det((0, 3, 2)) / whole, det((0, 1, 3)) / whole


def reference_compute_kpq(q: Quintic, h: float, b: float, c: float) -> tuple[float, float, float]:
    """The (k, p, q) elimination with partial pivoting that the closed-form
    compute_kpq replaced, as it was written on lists, with max() picking each
    pivot and sum() in the back-substitution: the reference whose failures
    the closed form's must match.  Rows 1 and 2 are over 2^n and 2^2n,
    n = round(log2 h), written with r = h / 2^n."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    b2 = b * b
    n = round(math.log2(h)) if math.isfinite(h) else 0
    r, inv = math.ldexp(h, -n), math.ldexp(1.0, -n)
    rows = [
        [-(1.0 + b2) / 4.0, (b2 - 1.0) / 4.0, b / 2.0, q.a4 + 3.0 * b * h + c / 2.0],
        [0.0, 2.0 * b * r, r * (1.0 - b2), q.a3 * inv - b * c * r + h * r - 2.0 * b2 * h * r],
        [-r * r * (1.0 + b2) / 2.0, 3.0 * r * r * (1.0 - b2) / 2.0, -3.0 * b * r * r,
         q.a2 * inv * inv - b * h * r * r],
    ]
    for col in range(3):
        top = max(range(col, 3), key=lambda r: abs(rows[r][col]))
        rows[col], rows[top] = rows[top], rows[col]
        pivot = rows[col][col]
        if pivot == 0.0 or not math.isfinite(pivot):
            raise SingularSystem(f"(k, p, q) pivot {pivot!r} at b = {b:.6g}, h = {h:.6g}")
        for row in rows[col + 1:]:
            factor = row[col] / pivot
            for j in range(col + 1, 4):
                row[j] -= factor * rows[col][j]
    x = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        x[i] = (rows[i][3] - sum(rows[i][j] * x[j] for j in range(i + 1, 3))) / rows[i][i]
    if not all(math.isfinite(v) for v in x):
        raise SingularSystem(f"(k, p, q) = {tuple(x)} at b = {b:.6g}, h = {h:.6g}")
    return x[0], x[1], x[2]


def reference_parse_coefficient(text: str) -> float:
    """The coefficient parser as float(Fraction(text.strip())), with the
    library's error messages: the reference for polynomial.parse_coefficient."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse coefficient {text!r}") from None
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"coefficient {text!r} is outside the float range") from None


def reference_cli_parser() -> argparse.ArgumentParser:
    """The argparse definition that cli.parse_args replaced, kept as its reference
    on well-formed argument lists: what each command's handler receives."""
    parser = argparse.ArgumentParser(prog="origami-quintic", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {name: subs.add_parser(name, allow_abbrev=False)
                for name in ("solve", "config", "compare", "verify")}
    for name in ("solve", "config", "compare"):
        sub = commands[name]
        sub.add_argument("--coeffs", required=True)
        sub.add_argument("--h", type=float, default=None, dest="h_override")
        sub.add_argument("--branch", choices=BRANCHES, default="plus")
        sub.add_argument("--json", default=None)
    commands["solve"].add_argument("--svg", default=None)
    commands["solve"].add_argument("--timing", action="store_true")
    commands["verify"].add_argument("--json", required=True)
    for name in ("solve", "verify"):
        commands[name].add_argument("--tol", type=float, default=1e-9)
    return parser


# The rational Sturm chains that the integer ones replaced, kept as their
# reference: Fraction remainders, then max-norm normalized floats.


def _frac_trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[0] == 0:
        out.pop(0)
    return out


def _frac_rem(num, den):
    out = list(num)
    dn = len(den) - 1
    quot_len = len(out) - dn
    for i in range(quot_len):
        coef = out[i] / den[0]
        for j in range(1, dn + 1):
            out[i + j] -= coef * den[j]
    rem = out[quot_len:]
    return rem if rem else [Fraction(0)]


def _frac_div_exact(num, den):
    out = list(num)
    dn = len(den) - 1
    quot = []
    for i in range(len(out) - dn):
        coef = out[i] / den[0]
        quot.append(coef)
        for j in range(1, dn + 1):
            out[i + j] -= coef * den[j]
    return quot


def _frac_to_floats(coeffs):
    peak = max(abs(c) for c in coeffs)
    return [float(c / peak) for c in coeffs]


def _frac_chain(exact):
    """Sturm chain of a Fraction polynomial over its gcd with its derivative,
    and that gcd (None when the polynomial is square-free)."""
    n = len(exact) - 1
    chain = [exact, _frac_trim([exact[i] * (n - i) for i in range(n)])]
    while len(chain[-1]) > 1:
        rem = _frac_trim([-c for c in _frac_rem(chain[-2], chain[-1])])
        if all(c == 0 for c in rem):
            gcd = chain[-1]
            return [_frac_div_exact(f, gcd) for f in chain], gcd
        chain.append(rem)
    return chain, None


def exact_sturm_chains(coeffs):
    """The Sturm chains of p, g1 = gcd(p, p'), g2 = gcd(g1, g1'), ... down to
    a square-free g_j, each over its own gcd, in Fractions; the first is
    headed by the square-free part p / g1."""
    chains, gcd = [], _frac_trim([Fraction(c) for c in coeffs])
    while gcd is not None:
        chain, gcd = _frac_chain(gcd)
        chains.append(chain)
    return chains


def fraction_sturm_chain(coeffs):
    """The chains of ``exact_sturm_chains``, each element max-norm normalized
    to floats."""
    return [[_frac_to_floats(f) for f in chain] for chain in exact_sturm_chains(coeffs)]


# The root finder's loops as they were written on generic Horner over the
# unpadded coefficient lists, on the rational chains, with every exact sign
# taken in Fractions: the reference that the fixed-degree kernel must match bit
# for bit.  Each Yun factor a_j = s_j / s_(j+1) of the rational chain heads is
# isolated on its own rational chain, and its roots have multiplicity j.


def fraction_sign(poly, x) -> int:
    """The sign of the Fraction polynomial poly at the rational x."""
    value = Fraction(0)
    for c in poly:
        value = value * x + c
    return (value > 0) - (value < 0)


def is_nearest_float(poly, root) -> bool:
    """Whether the Fraction polynomial poly changes sign or vanishes between the
    midpoints of the float root and its two neighbours: root is the float
    nearest a root of poly."""
    here = Fraction(root)
    below, above = (Fraction(math.nextafter(root, to)) for to in (-math.inf, math.inf))
    return fraction_sign(poly, (here + below) / 2) * fraction_sign(poly, (here + above) / 2) <= 0


def reference_real_roots(q: Quintic) -> list[tuple[float, int]]:
    """Each Yun factor a_j, the exact quotient of the Fraction chain heads s_j and
    s_(j+1), isolated on its own Fraction chain: the sign variations at the bounds
    -B and B counted on its exact signs there, the interior ones on its floats."""
    bound = cauchy_bound(q)
    if bound == math.inf:  # no Fraction is infinite
        raise SturmOverflow(f"the Cauchy bound is beyond the float range: the largest "
                            f"|a_i| is {max(map(abs, q[1:]))!r}")
    heads = [chain[0] for chain in exact_sturm_chains(q)]
    # refined on p's own floats when p is square-free
    own = None if len(heads) > 1 else list(q)
    roots = []
    for j, head in enumerate(heads, 1):
        factor = _frac_div_exact(head, heads[j]) if j < len(heads) else head
        if len(factor) == 1:
            continue
        exact = _frac_chain(factor)[0]
        chain = [_frac_to_floats(f) for f in exact]
        vlo, vhi = (_exact_reference_variations(exact, x) for x in (-bound, bound))
        brackets = _reference_isolate(chain, -bound, bound, vlo, vhi)
        for blo, bhi, count in brackets:
            roots.append((reference_refine_root(chain[0], exact[0], blo, bhi, own), count * j))
    roots.sort()
    return roots


def _exact_reference_variations(chain, x):
    signs = [s for s in (fraction_sign(poly, Fraction(x)) for poly in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _reference_variations(chain, x):
    count = 0
    prev = 0.0
    for poly in chain:
        v = evaluate(poly, x)
        if v == 0.0:
            continue
        if v != v:
            raise SturmOverflow(f"a Sturm chain value at x = {x!r} is NaN")
        if prev != 0.0 and (v > 0.0) != (prev > 0.0):
            count += 1
        prev = v
    return count


def _reference_isolate(chain, lo, hi, vlo, vhi):
    brackets = []
    pending = [(lo, hi, vlo, vhi)]
    while pending:
        lo, hi, vlo, vhi = pending.pop()
        count = vlo - vhi
        if count <= 0:
            continue
        min_width = 1e-13 * max(1.0, abs(lo), abs(hi))
        if count == 1 or hi - lo <= min_width:
            brackets.append((lo, hi, count))
            continue
        mid = 0.5 * (lo + hi)
        tries = 0
        while evaluate(chain[0], mid) == 0.0 and tries < 4:
            mid += (hi - lo) * 1e-7
            tries += 1
        if not math.isfinite(mid):
            raise SturmOverflow(f"bisecting ({lo!r}, {hi!r}] overflows: its midpoint, or a "
                                f"nudge off a root, is x = {mid!r}")
        vm = _reference_variations(chain, mid)
        pending += ((mid, hi, vm, vhi), (lo, mid, vlo, vm))
    return brackets


def reference_refine_root(head, exact, lo, hi, own):
    """Illinois regula falsi from the bracket (lo, hi], oriented by head's float
    signs at its ends (else by exact ones), on own's floats when given (else on
    head's) down to adjacent floats: the secant's place kept in [1/16, 15/16] of
    the bracket until that end has moved, a point that rounds onto an end moved
    one float in (halfway when the unclamped r is 0, 1 or NaN), and a float zero
    ending it; then, on the exact head (Fractions), the sign midway picks the
    nearer float, after a doubling walk and a bisection to the pair that holds
    the root when own is None."""
    flo, fhi = evaluate(head, lo), evaluate(head, hi)
    if flo == 0.0:
        flo = -fhi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        slo, shi = fraction_sign(exact, Fraction(lo)), fraction_sign(exact, Fraction(hi))
        if shi == 0:
            shi = fraction_sign(exact, Fraction(math.nextafter(hi, lo)))
            if slo == 0 or shi == slo:
                return hi
        if slo == 0:
            slo = -shi
        if slo == shi:
            return 0.5 * (lo + hi)
        flo, fhi = float(slo), float(shi)
    poly = head if own is None else own
    positive = flo > 0.0
    moved_lo = moved_hi = False
    side = 0
    while True:
        r = flo / (flo - fhi)
        # the secant's place, clamped; the fallback below reads the unclamped r
        place = r
        if not moved_lo and place < 0.0625:
            place = 0.0625
        if not moved_hi and place > 0.9375:
            place = 0.9375
        x = lo + (hi - lo) * place
        if not lo < x < hi:
            if 0.5 < r < 1.0:
                x = math.nextafter(hi, lo)
            elif 0.0 < r <= 0.5:
                x = math.nextafter(lo, hi)
            else:  # an infinite, zero or NaN value: no secant
                x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = evaluate(poly, x)
        if fx == 0.0:
            lo, hi = x, math.nextafter(x, math.inf)
            break
        if (fx > 0.0) == positive:
            lo, flo, moved_lo = x, fx, True
            if side == -1:
                fhi /= 2
            side = -1
        else:
            hi, fhi, moved_hi = x, fx, True
            if side == 1:
                flo /= 2
            side = 1

    def left_of_root(x):
        return (fraction_sign(exact, x) > 0) == positive

    if own is None:
        s = fraction_sign(exact, Fraction(lo))
        if s == 0:
            return lo
        step = math.ulp(lo) if (s > 0) == positive else -math.ulp(lo)
        while fraction_sign(exact, Fraction(lo + step)) == s:
            lo, step = lo + step, 2 * step
        lo, hi = min(lo, lo + step), max(lo, lo + step)
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if left_of_root(Fraction(mid)):
                lo = mid
            else:
                hi = mid
    return hi if left_of_root((Fraction(lo) + Fraction(hi)) / 2) else lo
