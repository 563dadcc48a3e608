"""Quintic coefficient handling, transforms and real-root isolation.

Coefficients are stored densely in descending degree order (a5 .. a0).
The root finder runs integer Sturm chains on p (the float coefficients scaled
exactly to integers; its chain in one straight-line pass when each remainder
drops one degree) and on the gcds g1 = gcd(p, p'), g2 = gcd(g1, g1'), ...,
keeping of each level with a repeated root only its head s_j = g_(j-1) / g_j.
The quotients a_j = s_j / s_(j+1) are the square-free factors of
p = a1 a2^2 a3^3 ... (Yun, SYMSAC 1976): a_j holds the roots of multiplicity
exactly j.  A linear a_j's root is one correctly rounded division; any other
a_j's real roots are counted on the integer leads of its own chain before any
float work, and only two or more are parted by interval bisection; each root is
refined by Illinois regula falsi to adjacent floats, and exact integer signs at
dyadic points pick one.  A root's multiplicity is the index j of the factor it
is found on.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import InexactFrame, SturmOverflow

class _QuinticFields(NamedTuple):
    a5: float
    a4: float
    a3: float
    a2: float
    a1: float
    a0: float


class Quintic(_QuinticFields):
    """Monic quintic t^5 + a4*t^4 + a3*t^3 + a2*t^2 + a1*t + a0 (a5 is 1.0).

    Build one from arbitrary coefficients with ``normalize_monic``.
    """

    __slots__ = ()

    def __new__(cls, a5: float, a4: float, a3: float, a2: float, a1: float,
                a0: float) -> Quintic:
        if a5 != 1.0:
            raise ValueError("expected a monic quintic; call normalize_monic first")
        return tuple.__new__(cls, (a5, a4, a3, a2, a1, a0))

    @classmethod
    def _make(cls, iterable) -> Quintic:  # so that _replace checks the lead too
        return cls(*iterable)


def normalize_monic(coeffs: Sequence[float]) -> Quintic:
    """Scale the six coefficients by the leading one; roots are unchanged.
    A ValueError for a count other than six, a coefficient that is not finite,
    a zero leading coefficient, or a monic one that overflows (a tiny lead)."""
    if len(coeffs) != 6:
        raise ValueError(f"expected 6 coefficients, got {len(coeffs)}")
    values = [float(c) for c in coeffs]
    for i, value in enumerate(values):  # before dividing, which turns an infinite lead into 0s
        if not math.isfinite(value):
            raise ValueError(f"coefficient {i} is {value!r}, not a finite number")
    lead = values[0]
    if lead == 0.0:
        raise ValueError("leading coefficient is zero; not a quintic")
    monic = [c / lead for c in values]  # lead / lead is 1.0
    for i, value in enumerate(monic):
        if not math.isfinite(value):
            raise ValueError(f"monic coefficient {i} is {value!r}: "
                             f"{values[i]!r} / {lead!r} overflows")
    return tuple.__new__(Quintic, monic)


def evaluate(coeffs: Sequence[float], t: float) -> float:
    """Horner evaluation at t of the polynomial with these coefficients,
    highest degree first (a Quintic is its six coefficients)."""
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    return acc


def cauchy_bound(q: Quintic) -> float:
    """A float above the magnitude of every root (monic input): 1 + max |a_i|, or the next
    float above max |a_i| where that sum rounds back onto it (from 2^53 on); infinite at
    the largest float, where ``real_roots`` raises ``SturmOverflow``.  A Python float also
    for NumPy scalars, whose bools isolation's variation counts could not add."""
    peak = float(max(map(abs, q[1:])))
    return max(1.0 + peak, math.nextafter(peak, math.inf))


def real_roots(q: Quintic) -> list[tuple[float, int]]:
    """All real roots of a monic quintic, ascending, with multiplicities.

    Each Yun factor a_j (see the module docstring) holds the roots of multiplicity j,
    each simple in it.  A constant a_j has none, and a linear one's root is
    -a_j[1] / a_j[0], correctly rounded; ``_isolate`` finds any other's on its own Sturm
    chain within the Cauchy bound, refined on p's own floats when p is square-free (a1
    is then p).  A root left at the width floor with count roots of a_j reports
    count * j.  The roots of all factors come sorted.
    """
    bound = cauchy_bound(q)
    if bound == math.inf:  # no float lies above the largest |a_i|
        raise SturmOverflow(f"the Cauchy bound is beyond the float range: the largest "
                            f"|a_i| is {max(map(abs, q[1:]))!r}")
    # the levels of p = g0, g1 = gcd(p, p'), g2 = gcd(g1, g1'), ...: heads s_j = g_(j-1) / g_j,
    # whose roots are p's repeated j times or more, and the last, square-free, level's chain
    levels, f = [], _integer_coefficients(q)
    while f != [1]:
        chain, f = _sturm_chain(f)
        levels.append(chain)
    roots, own = [], q if len(levels) == 1 else None  # p's own floats when p is square-free
    for j, exact in enumerate(levels, 1):
        # a_j = s_j / s_(j+1), the roots repeated exactly j times; the last level's head is a_j
        a = _exact_quotient(exact[0], levels[j][0]) if j < len(levels) else exact[0]
        if len(a) < 3:  # constant, or linear: its root is one correctly rounded division
            if len(a) == 2:  # (+ 0.0 makes a root at zero 0.0 whatever the lead's sign)
                roots.append((-a[1] / a[0] + 0.0, j))
            continue
        roots += [(root, count * j) for root, count in
                  _isolate(_sturm_chain(a)[0] if j < len(levels) else exact, bound, own)]
    return sorted(roots)


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficients descending)

def _exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den for a primitive den dividing num: integer and exact (Gauss)."""
    quot, tail = [], [*den[1:], *[0] * (len(num) - len(den))]
    for _ in range(len(num) - len(den) + 1):
        quot.append(num[0] // den[0])
        num = [c - quot[-1] * d for c, d in zip(num[1:], tail)]
    return quot


def _integer_coefficients(coeffs: Sequence[float]) -> list[int]:
    """The coefficients, dyadic n / 2^k, shifted to integers: a positive multiple."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    top = max([d for _, d in ratios]).bit_length()
    return [n << (top - d.bit_length()) for n, d in ratios]


def _depressed_in_u(q: Quintic) -> Quintic:
    """5^5 q((u - a4) / 5), q in u = 5t + a4: monic, with no u^4 term.  q is n / s
    on integers, s = 2^k and a4 = a / s; the integer monic (5s)^5 q(x / 5s), with
    coefficient i n_i 5^i s^(i-1), is shifted exactly by -a (x = s u - a), and its
    coefficient i over s^i rounded once.  InexactFrame names one that overflows,
    and a nonzero constant that underflows: that is not the root u = 0."""
    n = _integer_coefficients(q)
    s, a = n[0], n[1]
    f = [1] + [c * 5**i * s ** (i - 1) for i, c in enumerate(n[1:], 1)]
    for k in range(5, 0, -1):  # Taylor shift by -a: repeated synthetic division
        for i in range(1, k + 1):
            f[i] -= a * f[i - 1]
    u = []
    for i, c in enumerate(f):
        try:
            u.append(c / s**i)
        except OverflowError:
            u.append(math.inf)
        if u[-1] == math.inf or (i == 5 and c and not u[-1]):
            digits = math.log10(abs(c)) - i * math.log10(s)
            raise InexactFrame(
                f"the u^{5 - i} coefficient {'-' if c < 0 else ''}{10 ** (digits % 1):.4f}"
                f"e{math.floor(digits):+d} {'overflows' if u[-1] else 'underflows to 0.0'}")
    return tuple.__new__(Quintic, u)


def _sturm_chain(exact: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Sturm chain of an integer polynomial f of positive degree, and
    g = gcd(f, f'), primitive; when f has a repeated root (g is not [1]), of the
    chain only its head f / g, the square-free part of f.

    The chain is the subresultant pseudo-remainder sequence of f and f' on |lc|
    (Brown & Traub, J. ACM 1971), with no content taken out: each element is
    -prem = -(|l|^(d+1) num mod den) of the two before it (l = lc(den), d the degree
    drop), formed inline by d + 1 cancellations of the running lead, over lc h^d, with
    lc = |l| of the step before and h = lc^d / h^(d-1), both 1 at first.  Up to sign the
    elements are subresultants and h their leads, integer determinants, so each division
    is exact; each factor is positive, so each element is a positive multiple of the
    rational Sturm remainder, down to a constant ±1.  A zero remainder, a repeated root,
    is detected exactly; the chain then stops on g, and of it ``real_roots`` reads only
    f / g, whose Yun factors it isolates on chains of their own.  ``_quintic_chain`` builds
    a quintic's chain whose remainders each drop one degree; the loop builds the rest: gcd
    levels, Yun factors and quintics where a remainder's lead vanishes.
    """
    degree = len(exact) - 1
    chain = [list(exact), [c * (degree - i) for i, c in enumerate(exact[:-1])]]
    if degree == 5 and (built := _quintic_chain(*chain)):
        return built
    lc = h = 1
    while len(chain[-1]) > 1:
        rem, (lead, *tail), d = chain[-2], chain[-1], len(chain[-2]) - len(chain[-1])
        if lead < 0:
            lead, tail = -lead, [-c for c in tail]
        tail += [0] * d
        for _ in range(d + 1):  # prem: rem's lead cancelled as |lead| rem - rem[0] x^k den
            rem = [lead * c - rem[0] * t for c, t in zip(rem[1:], tail)]
        while rem and not rem[0]:
            del rem[0]
        if not rem:
            return _head_and_gcd(chain[0], chain[-1])
        if len(rem) == 1:  # the last element, -prem, kept as its sign
            return [*chain, [1 if rem[0] < 0 else -1]], [1]
        scale, lc, h = lc * h**d, lead, lead**d // h ** (d - 1)
        chain.append([-c // scale for c in rem])
    return chain, [1]


def _quintic_chain(f: list[int], p: list[int]) -> tuple[list[list[int]], list[int]] | None:
    """``_sturm_chain`` of a quintic f, f' = p, in straight-line integers: each remainder,
    T den[k+1] - L^2 num[k+2] + L num[0] den[k+2] with L = den[0], T = L num[1] - num[0] den[1],
    over the lead before L, squared (as with |L|); None, for the loop, if a lead alone is 0."""
    (a, b, c, d, e, g), (p0, p1, p2, p3, p4) = f, p
    t, m, p00 = p0 * b - a * p1, p0 * a, p0 * p0
    q0, q1, q2, q3 = (t * p1 - p00 * c + m * p2, t * p2 - p00 * d + m * p3,
                      t * p3 - p00 * e + m * p4, t * p4 - p00 * g)
    if not q0:
        return None if q1 or q2 or q3 else _head_and_gcd(f, p)
    t, m, q00 = q0 * p1 - p0 * q1, q0 * p0, q0 * q0
    r0, r1, r2 = ((t * q1 - q00 * p2 + m * q2) // p00, (t * q2 - q00 * p3 + m * q3) // p00,
                  (t * q3 - q00 * p4) // p00)
    if not r0:
        return None if r1 or r2 else _head_and_gcd(f, [q0, q1, q2, q3])
    t, m, r00 = r0 * q1 - q0 * r1, r0 * q0, r0 * r0
    s0, s1 = (t * r1 - r00 * q2 + m * r2) // q00, (t * r2 - r00 * q3) // q00
    if not s0:
        return None if s1 else _head_and_gcd(f, [r0, r1, r2])
    if not (v := (s0 * r1 - r0 * s1) * s1 - s0 * s0 * r2):
        return _head_and_gcd(f, [s0, s1])
    return [f, p, [q0, q1, q2, q3], [r0, r1, r2], [s0, s1], [1 if v > 0 else -1]], [1]


def _head_and_gcd(f: list[int], g: list[int]) -> tuple[list[list[int]], list[int]]:
    """[f / g] and g over its content, positive, for a chain of f that stops on g."""
    content = math.gcd(*g)
    gcd = [c // content for c in g]
    return [_exact_quotient(f, gcd)], gcd


def _normalized(poly: Sequence[int]) -> tuple[float, ...]:
    """Max-norm normalized floats for fast sign counting, which integer true
    division rounds correctly whatever positive multiple of poly was kept (a
    constant is ±1.0); padded to six with leading zeros for the straight-line
    Horner below, which at a finite x then rounds as ``evaluate`` on the unpadded
    list (0.0*x + c is c)."""
    peak = max(map(abs, poly))
    return (0.0,) * (6 - len(poly)) + tuple([c / peak for c in poly])


def _isolate(exact: Sequence[Sequence[int]], bound: float,
             own: Sequence[float] | None) -> list[tuple[float, int]]:
    """The roots in (-B, B], B = bound, of the square-free head of the integer Sturm chain
    exact, left to right, each with its count of roots (above 1 only at the width floor).
    No root lies beyond B, so the sign variations at -B and B are those at -inf and inf,
    read off the integer leads: they count every root, and with none there is no float
    work.  Else the head alone is normalized and evaluated at -B and B, and (-B, B] is
    bisected on the variation counts, in a loop.  A bracket closes at one root or at the
    width floor, and ``_refine_root`` takes it from the head's floats at its ends (at -B
    and B, or a probe's, as nudged), on own when given: one root is the loop's first pop,
    and the chain below the head is normalized only at the first probe.  A probe's count
    is one straight-line pass: element k has degree at most 5 - k, so its Horner starts
    at its coefficient k, which changes at most the sign of a zero; elements of zeros pad
    the chain to six, and a zero value takes the next sign, so zeros count no variation.
    At a finite probe (others are refused) Horner on coefficients of magnitude at most 1
    may reach ±inf but forms no 0.0 * inf or inf - inf: no NaN."""
    # V(-B) and V(B), those at -inf and inf: the leads' signs, at -inf flipped on odd degrees
    vlo = vhi = 0
    up, down = exact[0][0] > 0, (exact[0][0] > 0) == len(exact[0]) % 2
    for g in exact[1:]:
        u, v = g[0] > 0, (g[0] > 0) == len(g) % 2
        vlo, vhi, up, down = vlo + (v != down), vhi + (u != up), u, v
    if vlo == vhi:  # no real root
        return []
    head, top = [0] * (6 - len(exact[0])) + exact[0], _normalized(exact[0])
    a, b, c, d, e, f = top
    roots, last = [], None
    pending = [(-bound, bound, evaluate(top, -bound), evaluate(top, bound), vlo, vhi)]
    while pending:
        lo, hi, flo, fhi, vlo, vhi = pending.pop()
        count = vlo - vhi
        if count <= 0:
            continue
        if count == 1 or hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):  # the width floor
            roots.append((_refine_root(top, head, lo, hi, flo, fhi, own), count))
            continue
        if last is None:  # the first probe: the chain below the head to floats
            lower = [_normalized(g) for g in exact[1:]]
            (_, a1, b1, c1, d1, e1), (_, _, a2, b2, c2, d2), (*_, a3, b3, c3), (*_, a4, b4) = [
                *lower[:-1], *[(0.0,) * 6] * (5 - len(lower))]
            last = lower[-1][5] > 0.0
        x = 0.5 * (lo + hi)
        # never probe exactly at a root of p (would make variation counts ambiguous)
        tries, fx = 0, ((((a * x + b) * x + c) * x + d) * x + e) * x + f
        while fx == 0.0 and tries < 4:
            x += (hi - lo) * 1e-7
            tries += 1
            fx = ((((a * x + b) * x + c) * x + d) * x + e) * x + f
        if not math.isfinite(x):  # B is above about 9e307
            raise SturmOverflow(f"bisecting ({lo!r}, {hi!r}] overflows: its midpoint, or a "
                                f"nudge off a root, is x = {x!r}")
        v1 = (((a1 * x + b1) * x + c1) * x + d1) * x + e1
        v2, v3, v4 = ((a2 * x + b2) * x + c2) * x + d2, (a3 * x + b3) * x + c3, a4 * x + b4
        s4 = v4 > 0.0 if v4 else last
        s3 = v3 > 0.0 if v3 else s4
        s2 = v2 > 0.0 if v2 else s3
        s1 = v1 > 0.0 if v1 else s2
        s0 = fx > 0.0 if fx else s1
        vm = (s0 != s1) + (s1 != s2) + (s2 != s3) + (s3 != s4) + (s4 != last)
        pending += ((x, hi, fx, fhi, vm, vhi), (lo, x, flo, fx, vlo, vm))
    return roots


def _refine_root(head: Sequence[float], exact: Sequence[int], lo: float, hi: float, flo: float,
                 fhi: float, own: Sequence[float] | None = None) -> float:
    """A float at the root of the square-free head in the bracket (lo, hi]: head its
    floats that isolation counted on, flo and fhi their values at lo and hi (isolation's
    probes', or at -B and B those ``_isolate`` takes), exact its integers, and own p's own
    floats when p is square-free.  Oriented by flo and fhi, or by exact signs where those
    show no change, Illinois regula falsi (Dowell & Jarratt, BIT 1971) on own, else head,
    closes the bracket to adjacent floats, kept 1/16 of it from each of isolation's ends,
    which can be probes on a neighbouring root, until that end moves.  On head's rounded
    floats exact signs then walk out, the step doubling, and bisect to the pair that holds
    the root; on own the pair is where p's float Horner changes sign, which rounding noise
    can put away from it.  The exact sign midway picks the nearer float of the pair."""
    if flo == 0.0:  # the bracket is (lo, hi]: that zero is the left neighbour's root
        flo = -fhi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        slo, shi = _sign_between(exact, lo, lo), _sign_between(exact, hi, hi)
        if shi == 0:  # a root at hi: the bracket's, unless the sign changes before it
            shi = _sign_between(exact, math.nextafter(hi, lo), math.nextafter(hi, lo))
            if shi == (slo or shi):
                return hi
        flo, fhi = float(slo or -shi), float(shi)
        if flo == fhi:  # no exact sign change is left
            return 0.5 * (lo + hi)
    positive, low, high, side = flo > 0.0, 0.0625, 0.9375, 0  # the sign left of the root
    a, b, c, d, e, f = own or head
    while True:
        r = flo / (flo - fhi)  # the secant's place in the bracket, kept in [low, high]
        x = lo + (hi - lo) * (low if r < low else high if r > high else r)
        if not lo < x < hi:  # on an end: one float in from it, or halfway if r is 0, 1 or NaN
            x = (math.nextafter(hi, lo) if 0.5 < r < 1.0 else math.nextafter(lo, hi)
                 if 0.0 < r <= 0.5 else 0.5 * (lo + hi))
            if not lo < x < hi:
                break
        fx = ((((a * x + b) * x + c) * x + d) * x + e) * x + f
        if fx == 0.0:  # the root is within the rounding noise: x or the float above it
            lo, hi = x, math.nextafter(x, math.inf)
            break
        if (fx > 0.0) == positive:  # Illinois: halve the other end's value on a repeat
            lo, flo, low = x, fx, 0.0
            if side < 0:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi, high = x, fx, 1.0
            if side > 0:
                flo *= 0.5
            side = 1
    if own is None:
        s = _sign_between(exact, lo, lo)
        if s == 0:
            return lo
        step = math.ulp(lo) if (s > 0) == positive else -math.ulp(lo)
        while _sign_between(exact, lo + step, lo + step) == s:
            lo, step = lo + step, 2.0 * step
        lo, hi = min(lo, lo + step), max(lo, lo + step)
        while lo < (x := 0.5 * (lo + hi)) < hi:
            lo, hi = (x, hi) if (_sign_between(exact, x, x) > 0) == positive else (lo, x)
    return hi if (_sign_between(exact, lo, hi) > 0) == positive else lo


def _sign_between(poly: Sequence[int], lo: float, hi: float) -> int:
    """The exact sign of the integer polynomial poly (six coefficients, leading zeros
    allowed) at (lo + hi) / 2 for finite floats lo and hi (at lo when equal): at that
    dyadic n / 2^k, the sign of poly(n / 2^k) 2^5k, straight-line Horner on ints.  At a
    single float n / s, s = 2^(k-1), that is 2n / 2^k, with no second ratio to combine."""
    n, s = lo.as_integer_ratio()
    if lo == hi:
        n, k = 2 * n, s.bit_length()
    else:
        m, t = hi.as_integer_ratio()
        if s < t:
            n, s, m, t = m, t, n, s
        n, k = n + m * (s // t), s.bit_length()
    a, b, c, d, e, f = poly
    v = ((((a * n + (b << k)) * n + (c << 2 * k)) * n + (d << 3 * k)) * n + (e << 4 * k)) * n
    v += f << 5 * k
    return (v > 0) - (v < 0)


def worst_item(items: Iterable[tuple[str, float]]) -> tuple[str, float]:
    """The first (name, value) pair whose value is NaN, else the first largest.

    A NaN ranks above every number: a gate ``worst <= tol`` must fail on a NaN
    defect, and ``max`` alone drops one unless it comes first.  ValueError when empty.
    """
    return max(items, key=lambda item: (item[1] != item[1], item[1]))


def coefficient_gap(got: Sequence[float], want: Sequence[float]) -> float:
    """Worst per-coefficient error |got - want| / max(1, |want|); NaN if any is NaN, which
    max would drop: their sum is NaN then, and only then, as none is negative."""
    if len(got) != len(want):
        raise ValueError("coefficient sequences differ in length")
    gaps = [abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)]
    return max(gaps) if (total := sum(gaps)) == total else total


_DECIMAL_CHARS = frozenset("0123456789+-.eE")


def parse_coefficient(text: str) -> float:
    """Parse one coefficient: integer, decimal, or fraction 'p/q'.

    The value is float(Fraction(text)), but only p/q is built as a Fraction:
    ``float`` rounds any other text as correctly, and at once whatever its exponent.
    """
    stripped = text.strip()
    try:
        if _DECIMAL_CHARS.issuperset(stripped):
            value = float(stripped)
        else:
            from fractions import Fraction

            if "/" in stripped:
                value = float(Fraction(stripped))
            else:  # Fraction's grammar decides; with every digit 0 it costs no 10**exponent
                Fraction("".join("0" if ch.isdecimal() else ch for ch in stripped))
                value = float(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse coefficient {text!r}") from exc
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(f"coefficient {text!r} is outside the float range")
    mantissa = stripped.lower().partition("e")[0]
    if value == 0.0 and not any(ch.isdecimal() and int(ch) for ch in mantissa):
        return 0.0  # an exact zero, which as a Fraction has no sign
    return value
