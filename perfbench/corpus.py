"""Seeded quintic corpus shared by every workload.

Each case is built from roots stated up front, so the reference real roots
are known without asking the solver.  The product of the linear and
quadratic factors is expanded in exact rational arithmetic and each
coefficient is rounded to a double once, so the only error between the
stated roots and the stored quintic is that final rounding.  Repeated roots
are dyadic rationals with few bits, which keeps their products exact: a
stated double root stays an exact double root of the stored coefficients.

Case classes, and why each exists:

* ``simple``: 1, 3 or 5 real roots, the rest complex pairs, |r| <= 4.  The
  common case; root isolation (Sturm chain, bisection, Newton polish) does
  most of the work.
* ``repeated``: dyadic roots with multiplicity 2 to 4, such as
  (t-1/2)^2 (t+2)^2 (t-3).  Runs the square-free and multiplicity paths,
  and the solver's current ``DegenerateP`` failure on repeated roots.
* ``clustered``: two real roots 1e-4 to 1e-2 apart.  Stresses isolation
  depth and refinement near an almost double root.
* ``fixed``: the hendecagon quintic and the README example, so every
  corpus holds the documented inputs.
* ``extreme`` (wide-scale only): t^5 + E with E = 1e-300, 1e300 and
  -3e250, the scale extremes where the solver currently fails.

Classes are interleaved in a fixed pattern (7 simple, 2 repeated, 1
clustered in every ten), so any prefix of a corpus has the same mix and a
time-limited loop sees the same share of each class whatever the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

ROOT_BOUND = 4.0
# every ten cases: 7 simple, 2 repeated, 1 clustered, spread out
CLASS_PATTERN = (
    "simple", "repeated", "simple", "simple", "clustered",
    "simple", "simple", "repeated", "simple", "simple",
)
# multiplicities of the real roots; "c" marks one complex pair
REPEATED_PATTERNS = (
    (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (2, 1, "c"), (3, "c"), (4, 1),
)
# wide-scale: log-uniform root scale, so that coefficient magnitudes run
# from about 1e-6 (constant term at the small end) to 1e9 (at the large end)
SCALE_LOG10 = (-1.5, 1.5)
SCALE_MANTISSA_BITS = 4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

HENDECAGON = (1.0, 1.0, -4.0, -3.0, 3.0, 1.0)
README_EXAMPLE = (1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)
EXTREME_CONSTANTS = (1e-300, 1e300, -3e250)


@dataclass(frozen=True)
class Case:
    """One quintic with the real roots it was built from."""

    kind: str
    coeffs: tuple[float, ...]
    # distinct real roots, ascending, with their multiplicities
    roots: tuple[tuple[float, int], ...]
    # magnitude of the largest stated root, complex ones included
    root_scale: float

    @property
    def coeffs_arg(self) -> str:
        """--coeffs value that parses back to exactly these doubles."""
        return ",".join(repr(c) for c in self.coeffs)


def generate(workload: str, seed: int, count: int) -> list[Case]:
    """``count`` cases for a workload, the same for the same seed.

    cli-report takes the first cases of the unit-batch corpus.
    """
    if workload == "cli-report":
        workload = "unit-batch"
    rng = random.Random(f"{workload}:{seed}")
    scaled = workload == "wide-scale"
    cases = [_fixed(HENDECAGON, _hendecagon_roots()),
             _fixed(README_EXAMPLE, _simple_real_roots(README_EXAMPLE))]
    if scaled:
        cases += [_extreme(e) for e in EXTREME_CONSTANTS]
    # scale exponents follow a golden-ratio sequence from a seeded start, so
    # every prefix of the corpus covers the scale range evenly and the share
    # of cases that fail at scale varies little from seed to seed
    offset = rng.random()
    i = 0
    while len(cases) < count:
        kind = CLASS_PATTERN[i % len(CLASS_PATTERN)]
        i += 1
        linear, quadratic = _ROOT_MAKERS[kind](rng)
        if scaled:
            s = _scale_factor((offset + i * GOLDEN) % 1.0)
            linear = [r * s for r in linear]
            quadratic = [(a * s, b * s) for a, b in quadratic]
        cases.append(_from_roots(kind, linear, quadratic))
    return cases[:count]


def _from_roots(kind: str, linear: list[Fraction], quadratic: list[tuple]) -> Case:
    """Expand prod (t - r) * prod (t^2 - 2at + a^2 + b^2) exactly."""
    poly = [Fraction(1)]
    factors = [[Fraction(1), -r] for r in linear]
    factors += [[Fraction(1), -2 * a, a * a + b * b] for a, b in quadratic]
    for f in factors:
        out = [Fraction(0)] * (len(poly) + len(f) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(f):
                out[i + j] += x * y
        poly = out
    mult: dict[Fraction, int] = {}
    for r in linear:
        mult[r] = mult.get(r, 0) + 1
    roots = tuple((float(r), m) for r, m in sorted(mult.items()))
    magnitudes = [abs(r) for r in linear] + [math.hypot(a, b) for a, b in quadratic]
    return Case(kind, tuple(float(c) for c in poly), roots, float(max(magnitudes)))


def _uniform_root(rng: random.Random) -> Fraction:
    r = 0.0
    while r == 0.0:  # t = 0 is outside the construction (zero constant term)
        r = rng.uniform(-ROOT_BOUND, ROOT_BOUND)
    return Fraction(r)


def _complex_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    # |a + bi| <= 4 with the imaginary part kept away from zero, so the
    # pair cannot round into two real roots
    rho = rng.uniform(0.5, ROOT_BOUND)
    theta = rng.uniform(0.1, math.pi - 0.1)
    return Fraction(rho * math.cos(theta)), Fraction(rho * math.sin(theta))


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([k for k in range(-16, 17) if k != 0]), 4)


def _simple(rng: random.Random):
    n_real = rng.choice((1, 3, 5))
    linear = [_uniform_root(rng) for _ in range(n_real)]
    return linear, [_complex_pair(rng) for _ in range((5 - n_real) // 2)]


def _repeated(rng: random.Random):
    pattern = rng.choice(REPEATED_PATTERNS)
    mults = [m for m in pattern if m != "c"]
    values: list[Fraction] = []
    while len(values) < len(mults):
        r = _dyadic(rng)
        if r not in values:
            values.append(r)
    linear = [r for r, m in zip(values, mults) for _ in range(m)]
    quadratic = []
    if "c" in pattern:
        quadratic.append((_dyadic(rng), Fraction(rng.randint(1, 12), 4)))
    return linear, quadratic


def _clustered(rng: random.Random):
    gap = 10.0 ** rng.uniform(-4.0, -2.0)
    r = rng.uniform(-ROOT_BOUND, ROOT_BOUND - gap)
    linear = [Fraction(r), Fraction(r + gap)]
    rest, quadratic = [], []
    if rng.random() < 0.5:
        rest = [_uniform_root(rng) for _ in range(3)]
    else:
        rest, quadratic = [_uniform_root(rng)], [_complex_pair(rng)]
    return linear + rest, quadratic


_ROOT_MAKERS = {"simple": _simple, "repeated": _repeated, "clustered": _clustered}


def _scale_factor(u: float) -> Fraction:
    """Log-uniform factor at quantile u, rounded to a short mantissa, so
    scaled dyadic roots stay exact and repeated roots stay repeated."""
    lo, hi = SCALE_LOG10
    s = 10.0 ** (lo + (hi - lo) * u)
    e = math.floor(math.log2(s)) - (SCALE_MANTISSA_BITS - 1)
    return Fraction(round(s / 2.0**e)) * Fraction(2) ** e


def _fixed(coeffs: tuple[float, ...], roots: list[float]) -> Case:
    return Case("fixed", coeffs, tuple((r, 1) for r in sorted(roots)),
                max(abs(r) for r in roots))


def _extreme(constant: float) -> Case:
    # t^5 + E has the one real root -cbrt5(E); the other four are complex
    # with the same modulus
    root = -math.copysign(abs(constant) ** 0.2, constant)
    return Case("extreme", (1.0, 0.0, 0.0, 0.0, 0.0, constant), ((root, 1),), abs(root))


def _hendecagon_roots() -> list[float]:
    return [2.0 * math.cos(2.0 * math.pi * i / 11.0) for i in range(1, 6)]


def _simple_real_roots(coeffs: tuple[float, ...]) -> list[float]:
    """Real roots of a quintic whose real roots are all simple: sign changes
    on a fine grid over the Cauchy bound, then bisection to adjacent doubles.
    Independent of the solver under test."""

    def value(t: float) -> Fraction:
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * Fraction(t) + Fraction(c)
        return acc

    def sign_float(t: float) -> bool:
        acc = 0.0
        for c in coeffs:
            acc = acc * t + c
        return acc > 0.0

    bound = 1.0 + max(abs(c / coeffs[0]) for c in coeffs[1:])
    steps = 100000
    grid = [-bound + 2.0 * bound * i / steps for i in range(steps + 1)]
    roots = []
    for lo, hi in zip(grid, grid[1:]):
        if sign_float(lo) == sign_float(hi):
            continue
        flo = value(lo)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            fmid = value(mid)
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(lo)
    return roots
