"""Correctness sets, generated exactly as ROADMAP's terms define them, and the
counts taken against them with exact arithmetic.

The extreme set: ``random.Random(7)``, and for each of a4..a0 in order a draw
r = rng.random(), then s = rng.choice((-1, 1)); the coefficient is 0.0 if
r < 0.1, s * 5e-324 if r < 0.15, s * 1.7976931348623157e308 * rng.random() if
r < 0.2, and s * ldexp(1 + rng.random(), rng.randint(-1074, 1023)) otherwise.

A root list is wrong when ``real_roots`` raises, when its length is not the
exact number of distinct real roots, or when its multiplicities do not sum to
the exact number of real roots; both numbers are read off the leads of
``conftest.exact_sturm_chains`` at -inf and inf.

    PYTHONPATH=src python tests/correctness_sets.py [COUNT]

prints the counts on the first COUNT draws (all 20,000 by default).
"""

from __future__ import annotations

import math
import random
import sys
from typing import NamedTuple

from origami_quintic import Quintic, real_roots
from origami_quintic.errors import SturmOverflow

from conftest import exact_sturm_chains

EXTREME_DRAWS = 20_000


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


def _variations_at_infinity(chain, side: int) -> int:
    """Sign variations of an exact chain at side * inf: each element's lead's sign,
    flipped at -inf on odd degrees."""
    signs = [(poly[0] > 0) != (side < 0 and len(poly) % 2 == 0) for poly in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def exact_root_counts(q: Quintic) -> tuple[int, int]:
    """(distinct real roots, real roots counted with multiplicity) of q, exactly: the
    chain of g_(j-1) / g_j counts the distinct roots of g_(j-1) = gcd(g_(j-2), g_(j-2)'),
    which are the roots of multiplicity j or more."""
    counts = [_variations_at_infinity(chain, -1) - _variations_at_infinity(chain, 1)
              for chain in exact_sturm_chains(q)]
    return counts[0], sum(counts)


class Counts(NamedTuple):
    draws: int
    wrong: int
    refused: int  # of the wrong lists, SturmOverflow refusals


def count_wrong(quintics: list[Quintic]) -> Counts:
    """The wrong lists among real_roots' answers on the quintics, and the refusals."""
    wrong = refused = 0
    for q in quintics:
        try:
            roots = real_roots(q)
        except SturmOverflow:
            wrong, refused = wrong + 1, refused + 1
            continue
        except Exception:  # any other raise is a wrong list too
            wrong += 1
            continue
        distinct, total = exact_root_counts(q)
        wrong += len(roots) != distinct or sum(m for _, m in roots) != total
    return Counts(len(quintics), wrong, refused)


if __name__ == "__main__":
    print(count_wrong(extreme_set(int(sys.argv[1]) if len(sys.argv) > 1 else EXTREME_DRAWS)))
