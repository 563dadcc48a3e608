"""Correctness sets, generated exactly as ROADMAP's terms define them, and the
counts taken against them with exact arithmetic.

The extreme set: ``random.Random(7)``, and for each of a4..a0 in order a draw
r = rng.random(), then s = rng.choice((-1, 1)); the coefficient is 0.0 if
r < 0.1, s * 5e-324 if r < 0.15, s * 1.7976931348623157e308 * rng.random() if
r < 0.2, and s * ldexp(1 + rng.random(), rng.randint(-1074, 1023)) otherwise.

A root list is wrong when ``real_roots`` raises, when its length is not the
exact number of distinct real roots, or when its multiplicities do not sum to
the exact number of real roots; both numbers are read off the leads of
``conftest.exact_sturm_chains`` at -inf and inf.  Every root of every list that
``real_roots`` returns is also checked to be nearest: the exact sign of the
square-free part changes, or vanishes, between the midpoints to its neighbours.

The dyadic grid: every product of five factors t - n / 2^s, with n in -6..6
and one shared s in 0..6, in the order s = 0..6, then
``itertools.combinations_with_replacement(range(-6, 7), 5)`` for the
numerators: 43,316 quintics.  Each is expanded in Fractions, so every
coefficient is an exact float, and so is every root: a returned root is the
nearest float exactly when it equals a root, and the grid's exact counts are
those of its known roots.

The several-scale set: ``random.Random(5)``, and 20,000 quintics
[1.0] + [s * 10 ** rng.uniform(-12, 12) for each of 5], with
s = rng.choice((-1, 1)) drawn first in each coefficient.  Its 300-sample is
``random.Random(1).sample`` of 300 of them.  The tiny-constant family is
[1, 0, 0, 0, 1, float(f"1e-{k}")], t^5 + t + 10^-k, for k = 1..300.  These
three are counted by the outcome of normalize_monic, build_config, solve_all
and IncidenceResiduals.passes(1e-9), and every root t of a solve that returns
is checked to be nearest, as above.

    PYTHONPATH=src python tests/correctness_sets.py [COUNT]

prints the counts on the first COUNT quintics of every set (all by default).
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from origami_quintic import (
    OrigamiQuinticError,
    Quintic,
    build_config,
    normalize_monic,
    real_roots,
    solve_all,
)
from origami_quintic.errors import SturmOverflow
from origami_quintic.polynomial import worst_item

from conftest import exact_sturm_chains, is_nearest_float

EXTREME_DRAWS = 20_000
GRID_SIZE = 43_316
SEVERAL_SCALE_DRAWS = 20_000
TOL = 1e-9


def extreme_set(count: int = EXTREME_DRAWS) -> list[Quintic]:
    """The first count quintics of the extreme set."""
    rng = random.Random(7)
    quintics = []
    for _ in range(count):
        rest = []
        for _ in range(5):
            r = rng.random()
            s = rng.choice((-1, 1))
            if r < 0.1:
                rest.append(0.0)
            elif r < 0.15:
                rest.append(s * 5e-324)
            elif r < 0.2:
                rest.append(s * 1.7976931348623157e308 * rng.random())
            else:
                rest.append(s * math.ldexp(1 + rng.random(), rng.randint(-1074, 1023)))
        quintics.append(Quintic(1.0, *rest))
    return quintics


def dyadic_grid(count: int = GRID_SIZE) -> list[tuple[Quintic, tuple[float, ...]]]:
    """The first count quintics of the dyadic grid, each with its five roots."""
    cases = []
    for s in range(7):
        for numerators in itertools.combinations_with_replacement(range(-6, 7), 5):
            if len(cases) == count:
                return cases
            coeffs = [Fraction(1)]
            for n in numerators:  # times t - n / 2^s
                root = Fraction(n, 2**s)
                coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            cases.append((Quintic(*map(float, coeffs)), tuple(n / 2**s for n in numerators)))
    return cases


def several_scale_set(count: int = SEVERAL_SCALE_DRAWS) -> list[list[float]]:
    """The first count raw coefficient lists of the several-scale set."""
    rng = random.Random(5)
    quintics = []
    for _ in range(count):
        rest = []
        for _ in range(5):
            s = rng.choice((-1, 1))
            rest.append(s * 10 ** rng.uniform(-12, 12))
        quintics.append([1.0] + rest)
    return quintics


def several_scale_sample() -> list[list[float]]:
    """The 300-sample of the several-scale set."""
    return random.Random(1).sample(several_scale_set(), 300)


def tiny_constant_family() -> list[list[float]]:
    """t^5 + t + 10^-k for k = 1..300, as raw coefficient lists."""
    return [[1, 0, 0, 0, 1, float(f"1e-{k}")] for k in range(1, 301)]


def _variations_at_infinity(chain, side: int) -> int:
    """Sign variations of an exact chain at side * inf: each element's lead's sign,
    flipped at -inf on odd degrees."""
    signs = [(poly[0] > 0) != (side < 0 and len(poly) % 2 == 0) for poly in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def exact_root_counts(chains) -> tuple[int, int]:
    """(distinct real roots, real roots counted with multiplicity) of a quintic, exactly,
    from its ``exact_sturm_chains``: the chain of g_(j-1) / g_j counts the distinct roots
    of g_(j-1) = gcd(g_(j-2), g_(j-2)'), which are the roots of multiplicity j or more."""
    counts = [_variations_at_infinity(chain, -1) - _variations_at_infinity(chain, 1)
              for chain in chains]
    return counts[0], sum(counts)


class Counts(NamedTuple):
    draws: int
    wrong: int
    refused: int  # of the wrong lists, SturmOverflow refusals
    not_nearest_lists: int  # returned lists with a root that is not nearest
    not_nearest_roots: int  # those roots


def count_wrong(quintics: list[Quintic]) -> Counts:
    """The wrong lists among real_roots' answers on the quintics, the refusals, and the
    returned roots that are not nearest, by exact signs of the square-free part p / g1."""
    wrong = refused = far_lists = far_roots = 0
    for q in quintics:
        try:
            roots = real_roots(q)
        except SturmOverflow:
            wrong, refused = wrong + 1, refused + 1
            continue
        except Exception:  # any other raise is a wrong list too
            wrong += 1
            continue
        chains = exact_sturm_chains(q)
        distinct, total = exact_root_counts(chains)
        wrong += len(roots) != distinct or sum(m for _, m in roots) != total
        far = sum(not is_nearest_float(chains[0][0], t) for t, _ in roots)
        far_lists, far_roots = far_lists + bool(far), far_roots + far
    return Counts(len(quintics), wrong, refused, far_lists, far_roots)


class GridCounts(NamedTuple):
    draws: int
    wrong: int
    inexact_lists: int  # lists with a returned root that is not a root
    inexact_roots: int  # those roots


def count_grid(cases: list[tuple[Quintic, tuple[float, ...]]]) -> GridCounts:
    """The wrong lists among real_roots' answers on the grid's quintics, and the
    lists and roots that are not exact, against each quintic's known roots."""
    wrong = inexact_lists = inexact_roots = 0
    for q, exact in cases:
        try:
            roots = real_roots(q)
        except Exception:  # any raise is a wrong list
            wrong += 1
            continue
        wrong += len(roots) != len(set(exact)) or sum(m for _, m in roots) != len(exact)
        missed = sum(t not in exact for t, _ in roots)
        inexact_lists, inexact_roots = inexact_lists + bool(missed), inexact_roots + missed
    return GridCounts(len(cases), wrong, inexact_lists, inexact_roots)


class NearestCounts(NamedTuple):
    solved: int  # solves that returned
    roots: int  # their roots
    not_nearest_lists: int  # returned lists with a root that is not nearest
    not_nearest_roots: int  # those roots


def count_nearest(quintics: list[list[float]]) -> NearestCounts:
    """The roots t of every solve that returns, and those that are not nearest, by exact
    signs of the monic quintic's square-free part p / g1."""
    solved = roots = far_lists = far_roots = 0
    for raw in quintics:
        try:
            q = normalize_monic(raw)
            solutions = solve_all(build_config(q), q)
        except OrigamiQuinticError:
            continue
        head = exact_sturm_chains(q)[0][0]
        far = sum(not is_nearest_float(head, sol.t) for sol in solutions)
        solved, roots = solved + 1, roots + len(solutions)
        far_lists, far_roots = far_lists + bool(far), far_roots + far
    return NearestCounts(solved, roots, far_lists, far_roots)


def count_outcomes(quintics: list[list[float]]) -> Counter:
    """Each solve's outcome: "pass", the class name of the library error it
    raised, or "above tol: <field>", naming its worst residual's field."""
    outcomes = Counter()
    for raw in quintics:
        try:
            q = normalize_monic(raw)
            solutions = solve_all(build_config(q), q)
        except OrigamiQuinticError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        if all(sol.residuals.passes(TOL) for sol in solutions):
            outcomes["pass"] += 1
        else:
            field, _ = worst_item(sol.residuals.worst_field for sol in solutions)
            outcomes[f"above tol: {field}"] += 1
    return outcomes


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else None
    print("extreme set:", count_wrong(extreme_set(count or EXTREME_DRAWS)))
    print("dyadic grid:", count_grid(dyadic_grid(count or GRID_SIZE)))
    for name, quintics in [("several-scale set", several_scale_set(count or SEVERAL_SCALE_DRAWS)),
                           ("300-sample", several_scale_sample()[:count]),
                           ("tiny-constant family", tiny_constant_family()[:count])]:
        print(f"{name}:", dict(sorted(count_outcomes(quintics).items())))
        print(f"{name}, nearest:", count_nearest(quintics))
