import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from origami_quintic import (
    InexactFrame,
    SturmOverflow,
    evaluate,
    normalize_monic,
    polynomial,
    real_roots,
)
from origami_quintic.foldconfig import balance, balance_exponent
from origami_quintic.polynomial import (
    Quintic,
    _depressed_in_u,
    _exact_quotient,
    _integer_coefficients,
    _isolate,
    _normalized,
    _refine_root,
    _sign_between,
    _sturm_chain,
    cauchy_bound,
    coefficient_gap,
    parse_coefficient,
    worst_item,
)

from conftest import (
    HENDECAGON,
    HENDECAGON_ROOTS,
    _frac_chain,
    _frac_div_exact,
    _frac_to_floats,
    exact_sturm_chains,
    fraction_sign,
    fraction_sturm_chain,
    is_nearest_float,
    outcome,
    reference_parse_coefficient,
    reference_real_roots,
)
from correctness_sets import count_grid, count_wrong, dyadic_grid, extreme_set

DEPRESSED_HENDECAGON = tuple(
    float(x) for x in (1, 0, Fraction(-22, 5), Fraction(-11, 25), Fraction(462, 125), Fraction(979, 3125))
)


def coeff_strategy():
    return st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestNormalizeMonic:
    def test_uniform_scaling(self):
        q = normalize_monic([2, 2, -8, -6, 6, 2])
        assert q == HENDECAGON

    def test_already_monic(self):
        q = normalize_monic(HENDECAGON)
        assert q == HENDECAGON

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError, match="^leading coefficient is zero; not a quintic$"):
            normalize_monic([0, 1, 0, 0, 0, 0])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            normalize_monic([1, 2, 3])

    @pytest.mark.parametrize("coeffs, message", [
        ([1e-300, 1e300, 1, 1, 1, 1], "monic coefficient 1 is inf: 1e+300 / 1e-300 overflows"),
        ([-1e-300, 1, 1, 1, 1, 1e300], "monic coefficient 5 is -inf: 1e+300 / -1e-300 overflows"),
        # refused before dividing: an infinite lead would make every other
        # coefficient 0 (or -0), and a NaN or infinite one is no overflow
        ([math.inf, 1, 1, 1, 1, 1], "coefficient 0 is inf, not a finite number"),
        ([-math.inf, 1, 1, 1, 1, 1], "coefficient 0 is -inf, not a finite number"),
        ([math.nan, 1, 1, 1, 1, 1], "coefficient 0 is nan, not a finite number"),
        ([1, math.inf, 0, 0, 0, 1], "coefficient 1 is inf, not a finite number"),
        ([1, math.nan, 0, 0, 0, 1], "coefficient 1 is nan, not a finite number"),
        ([1, 1, 1, 1, 1, math.nan], "coefficient 5 is nan, not a finite number"),
    ])
    def test_monic_coefficient_not_finite_rejected(self, coeffs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            normalize_monic(coeffs)

    @given(
        lead=st.floats(min_value=0.25, max_value=8.0),
        rest=st.lists(coeff_strategy(), min_size=5, max_size=5),
    )
    def test_roots_unchanged(self, lead, rest):
        raw = [lead] + rest
        q = normalize_monic(raw)
        for t in (-1.7, 0.3, 2.1):
            raw_val = np.polyval(raw, t)
            assert evaluate(q, t) == pytest.approx(raw_val / lead, abs=1e-9)


class TestEvaluate:
    def test_constant_term(self, hendecagon):
        assert evaluate(hendecagon, 0.0) == 1.0

    def test_at_one(self, hendecagon):
        # 1 + 1 - 4 - 3 + 3 + 1
        assert evaluate(hendecagon, 1.0) == -1.0

    def test_small_at_computed_roots(self, hendecagon):
        for root, _ in real_roots(hendecagon):
            assert abs(evaluate(hendecagon, root)) <= 1e-9


def fraction_depressed_in_u(q):
    """5^5 q((u - a4) / 5) expanded in Fractions, coefficients descending."""
    shift, out = -Fraction(q[1]), [Fraction(0)] * 6
    for i, c in enumerate(map(Fraction, q)):  # c t^(5-i), t^d = ((u + shift) / 5)^d
        d = 5 - i
        for j in range(d + 1):
            out[5 - j] += c * 5**i * math.comb(d, j) * shift ** (d - j)
    return out


def wide_coeff_strategy():
    """coeff_strategy's draws, and others of every exponent, subnormals included."""
    return st.one_of(coeff_strategy(),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(min_value=-1e-300, max_value=1e-300))


class TestDepress:
    """The quintic in u = 5t + a4: 5^5 q((u - a4) / 5), coefficients rounded once."""

    def test_hendecagon_exact_rationals(self, hendecagon):
        dep = _depressed_in_u(hendecagon)
        assert dep == (1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)
        # coefficient i over 5^i is the depressed quintic in t, rounded once
        assert tuple(c / 5**i for i, c in enumerate(dep)) == DEPRESSED_HENDECAGON

    def test_already_depressed_identity(self):
        # a4 = 0: u = 5t, so coefficient i is q's times 5^i
        q = Quintic(1.0, 0.0, -2.0, 0.5, 3.0, 1.0)
        assert _depressed_in_u(q) == tuple(c * 5**i for i, c in enumerate(q))

    def test_pure_quartic_shift(self):
        # t^4 (t + 5) in u = 5t + 5 is (u - 5)^4 (u + 20)
        assert _depressed_in_u(Quintic(1, 5, 0, 0, 0, 0)) == (1.0, 0.0, -250.0, 2500.0,
                                                              -9375.0, 12500.0)

    @given(rest=st.lists(coeff_strategy(), min_size=5, max_size=5))
    def test_functional_identity(self, rest):
        q = Quintic(1.0, *rest)
        try:
            dep = _depressed_in_u(q)
        except InexactFrame:  # only a nonzero constant below the float range
            assert 0 < abs(fraction_depressed_in_u(q)[5]) < 2.0**-1074
            return
        assert dep.a4 == 0.0
        # 5^5 q(t) must equal the quintic in u at u = 5t + a4
        for t in (-2.2, -0.4, 0.9, 3.0):
            assert evaluate(dep, 5.0 * t + q.a4) / 5**5 == pytest.approx(evaluate(q, t),
                                                                          abs=1e-9)

    @given(rest=st.lists(wide_coeff_strategy(), min_size=5, max_size=5))
    @settings(max_examples=300)
    def test_fraction_expansion_rounded_once(self, rest):
        q = Quintic(1.0, *rest)
        want = fraction_depressed_in_u(q)
        assert want[1] == 0
        try:
            rounded = [float(c) for c in want]
        except OverflowError:
            with pytest.raises(InexactFrame, match="overflows$"):
                _depressed_in_u(q)
            return
        if want[5] and not rounded[5]:
            with pytest.raises(InexactFrame, match=r"u\^0 coefficient .* underflows to 0\.0$"):
                _depressed_in_u(q)
            return
        dep = _depressed_in_u(q)
        assert dep == tuple(rounded)
        assert repr(dep.a4) == "0.0"

    def test_overflow_names_the_coefficient(self):
        with pytest.raises(InexactFrame) as info:
            _depressed_in_u(Quintic(1.0, 3e62, -1.0, 2.0, 1.0, -1.0))
        assert str(info.value) == "the u^0 coefficient 9.7200e+312 overflows"

    def test_underflow_is_not_a_zero_constant(self):
        # q(-a4/5) = 2^-1098 exactly: a1 t cancels a0 at t = -2^-220, and
        # 5^5 2^-1098 is below the least subnormal
        q = Quintic(1.0, 5.0 * 2.0**-220, 0.0, 0.0, 2.0**-854, 2.0**-1074)
        assert fraction_depressed_in_u(q)[5] == 5**5 * Fraction(1, 2**1098)
        with pytest.raises(InexactFrame) as info:
            _depressed_in_u(q)
        assert str(info.value) == "the u^0 coefficient 9.2027e-328 underflows to 0.0"

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            _depressed_in_u(Quintic(2, 0, 0, 0, 0, 1))


def brute_force_roots(coeffs, step=1e-4):
    """Independent oracle: sign-change scan on a dense grid, then plain
    bisection inside each bracket (no Newton, no Sturm)."""
    bound = 1.0 + max(abs(c) for c in coeffs[1:])
    ts = np.arange(-bound, bound + step, step)
    vals = np.polyval(coeffs, ts)
    signs = np.sign(vals)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    roots = []
    for i in idx:
        lo, hi = ts[i], ts[i + 1]
        flo = np.polyval(coeffs, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = np.polyval(coeffs, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    exact = ts[np.nonzero(vals == 0.0)]
    return sorted(roots + list(exact))


class TestRealRoots:
    def test_hendecagon_against_cosine_formula(self, hendecagon):
        found = real_roots(hendecagon)
        assert len(found) == 5
        for (root, mult), want in zip(found, HENDECAGON_ROOTS):
            assert mult == 1
            assert root == pytest.approx(want, abs=1e-10)

    def test_quintuple_zero(self):
        found = real_roots(Quintic(1, 0, 0, 0, 0, 0))
        assert len(found) == 1
        root, mult = found[0]
        assert abs(root) <= 1e-9
        assert mult == 5

    def test_single_real_root(self):
        found = real_roots(Quintic(1, 0, 0, 0, 0, -1))
        assert len(found) == 1
        root, mult = found[0]
        assert root == pytest.approx(1.0, abs=1e-12)
        assert mult == 1

    def test_double_root_factor(self):
        # (t - 1)^2 (t + 2) (t^2 + 1), multiplicities known by construction
        coeffs = np.polymul(np.polymul([1, -2, 1], [1, 2]), [1, 0, 1])
        found = real_roots(Quintic(*(float(c) for c in coeffs)))
        assert [(round(r, 6), m) for r, m in found] == [(-2.0, 1), (1.0, 2)]

    def test_never_empty_and_odd_count(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            q = Quintic(1.0, *rng.uniform(-5, 5, size=5))
            found = real_roots(q)
            total = sum(m for _, m in found)
            assert total >= 1
            assert total % 2 == 1

    def test_against_brute_force_scan(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            coeffs = (1.0, *rng.uniform(-5, 5, size=5))
            q = Quintic(*coeffs)
            expected = brute_force_roots(coeffs)
            found = [r for r, m in real_roots(q) if m % 2 == 1]
            assert len(found) == len(expected)
            for got, want in zip(found, expected):
                assert got == pytest.approx(want, abs=1e-6)

    def test_against_companion_matrix(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            coeffs = (1.0, *rng.uniform(-5, 5, size=5))
            ref = sorted(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
            found = [r for r, _ in real_roots(Quintic(*coeffs))]
            assert len(found) == len(ref)
            for got, want in zip(found, ref):
                assert got == pytest.approx(want, abs=1e-8)

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = Quintic(1.0, *rng.uniform(-5, 5, size=5))
            for root, _ in real_roots(q):  # ten times the refinement width of 1e-12
                assert abs(evaluate(q, root)) <= 1e-11

    def test_depress_root_correspondence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = Quintic(1.0, *rng.uniform(-4, 4, size=5))
            orig = [r for r, _ in real_roots(q)]
            moved = [(r - q.a4) / 5.0 for r, _ in real_roots(_depressed_in_u(q))]
            assert len(orig) == len(moved)
            for a, b in zip(orig, moved):
                assert a == pytest.approx(b, abs=1e-8)


def sturm_levels(coeffs):
    """The (chain, gcd) pairs of _sturm_chain on p's integer coefficients and on
    each gcd g1, g2, ... in turn, down to a square-free g_j."""
    levels, f = [], _integer_coefficients(coeffs)
    while f != [1]:
        chain, f = _sturm_chain(f)
        levels.append((chain, f))
    return levels


def integer_sturm_chain(coeffs):
    """The chains of sturm_levels, normalized as real_roots normalizes them,
    without the padding: the counterpart of fraction_sturm_chain where p is
    square-free, and of its heads otherwise."""
    return [[list(_normalized(g)[6 - len(g):]) for g in chain] for chain, _ in sturm_levels(coeffs)]


def is_positive_multiple(got, want):
    """Whether the integer coefficients got are a positive multiple of the rational ones want."""
    ratio = Fraction(got[0]) / want[0]
    return ratio > 0 and [ratio * c for c in want] == got


def assert_levels_match(coeffs):
    """sturm_levels against the Fraction chains of exact_sturm_chains, as positive
    multiples: each level's head s_j and its primitive gcd g_j, the product of the
    heads after it; the last, square-free level's whole chain, normalized too as
    real_roots normalizes it; and the chain real_roots builds for each nonconstant
    Yun factor a_j = s_j / s_(j+1) against _frac_chain of the Fraction a_j."""
    levels, want = sturm_levels(coeffs), exact_sturm_chains(coeffs)
    heads = [chain[0] for chain in want]
    assert len(levels) == len(want)
    assert [len(chain) for chain, _ in levels[:-1]] == [1] * (len(want) - 1)
    for i, (chain, gcd) in enumerate(levels):
        below = [Fraction(1)]
        for head in heads[i + 1:]:
            below = _times(below, head)
        assert math.gcd(*gcd) == 1 and is_positive_multiple(gcd, below)
        assert is_positive_multiple(chain[0], heads[i])
    chain = levels[-1][0]
    assert len(chain) == len(want[-1]) and all(map(is_positive_multiple, chain, want[-1]))
    assert integer_sturm_chain(coeffs)[-1] == [_frac_to_floats(f) for f in want[-1]]
    for j in range(1, len(levels)):
        factor = _frac_div_exact(heads[j - 1], heads[j])
        if len(factor) > 1:
            chain = _sturm_chain(_exact_quotient(levels[j - 1][0][0], levels[j][0][0]))[0]
            ref = _frac_chain(factor)[0]
            assert len(chain) == len(ref) and all(map(is_positive_multiple, chain, ref))


# floats with binary exponents spanning about 1e-300 to 1e300, zero included
wide_floats = st.builds(
    math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-997, 996)
)


def dyadic_product(linear, pairs, shift):
    """Exact coefficients of prod (t - n / 2^shift) times, for each (a, b) in
    pairs, the factor with roots (a +- b i) / 2^shift; every one is a double."""
    poly = [Fraction(1)]
    factors = [[1, -Fraction(n, 2**shift)] for n in linear]
    factors += [[1, -Fraction(2 * a, 2**shift), Fraction(a * a + b * b, 4**shift)]
                for a, b in pairs]
    for factor in factors:
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        poly = out
    assert all(float(c) == c for c in poly)
    return tuple(float(c) for c in poly)


def refined_brackets(fn):
    """What fn returns, and the (head, lo, hi, flo, fhi) of each ``_refine_root`` call
    it makes, in order: the brackets isolation closes, with the head's floats at them."""
    seen = []

    def spy(head, exact, lo, hi, flo, fhi, own=None, refine=polynomial._refine_root):
        seen.append((head, lo, hi, flo, fhi))
        return refine(head, exact, lo, hi, flo, fhi, own)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomial, "_refine_root", spy)
        return fn(), seen


def brackets_hold_roots(q, roots):
    """Whether real_roots' isolation on the chain of p's square-free part s_1
    gives one bracket (lo, hi] per given exact root, holding it, in order."""
    exact = _sturm_chain(sturm_levels(q)[0][0][0])[0]
    found, brackets = refined_brackets(lambda: _isolate(exact, cauchy_bound(q), None))
    return len(found) == len(roots) and all(
        count == 1 and lo < root <= hi
        for (_, lo, hi, _, _), (_, count), root in zip(brackets, found, roots))


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


_nonzero = st.integers(1, 9) | st.integers(-9, -1)


def _polynomial(draw, degree):
    """A nonzero lead, then small coefficients, zero in about half of the
    draws, or at most two nonzero ones."""
    rest = draw(st.lists(st.just(0) | st.integers(-9, 9), min_size=degree, max_size=degree))
    if degree and draw(st.booleans()):
        rest = [0] * degree
        for i in draw(st.sets(st.integers(0, degree - 1), max_size=2)):
            rest[i] = draw(_nonzero)
    return [draw(_nonzero), *rest]


@st.composite
def primitive_polynomials(draw):
    """Primitive integer polynomials of degree 1 to 5, either sign: one times
    a factor of degree 1 or 2 raised to a power of 0 to 3, so that repeated
    factors are common; sparse ones make remainders that drop two or more
    degrees."""
    degree = draw(st.integers(1, 2))
    factor, power = _polynomial(draw, degree), min(draw(st.sampled_from((0, 0, 1, 2, 3))),
                                                   5 // degree)
    poly = _polynomial(draw, draw(st.integers(power == 0, 5 - degree * power)))
    for _ in range(power):
        poly = _times(poly, factor)
    content = math.gcd(*poly)
    return [c // content for c in poly]


@st.composite
def sparse_polynomials(draw):
    """Integer polynomials of degree 1 to 4 with small coefficients, many of them
    zero, not made primitive: the loop's own inputs."""
    return _polynomial(draw, draw(st.integers(1, 4)))


class TestSturmChain:
    """The integer chains equal the rational ones bit for bit: each level's head,
    the square-free level's whole chain and each Yun factor's."""

    # the drawn ones rarely drop two or more degrees, so four that do, t^5 + t^2
    # (a double root at 0), -(t^4 + t), t^5 - 2t and t^5 + 3t^2 - 1, and t^5 - t^3;
    # each is also drawn times a content, which _sturm_chain keeps, so a division
    # that is not exact would leave an element that is no multiple of the rational one
    @settings(max_examples=400, deadline=None)
    @given(primitive_polynomials(), st.sampled_from((1, 1, 3, 12, 2**40)))
    @example([1, 0, 0, 1, 0, 0], 1)
    @example([-1, 0, 0, -1, 0], 1)
    @example([1, 0, 0, 0, -2, 0], 1)
    @example([1, 0, 0, 3, 0, -1], 1)
    @example([1, 0, -1, 0, 0, 0], 1)
    def test_elements_are_positive_multiples_of_the_rational_ones(self, poly, content):
        assert_levels_match([c * content for c in poly])

    @settings(max_examples=200, deadline=None)
    @given(rest=st.lists(wide_floats, min_size=5, max_size=5))
    def test_wide_exponents(self, rest):
        assert_levels_match((1.0, *rest))

    # small ranges make repeated roots and repeated complex pairs common;
    # with complex roots some chain elements lead negative, which exposes
    # a sign error in the pseudo-remainders
    @settings(max_examples=300, deadline=None)
    @given(
        linear=st.lists(st.integers(-24, 24), min_size=5, max_size=5),
        pairs=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=2),
        shift=st.integers(0, 6),
    )
    def test_dyadic_repeated_roots(self, linear, pairs, shift):
        assert_levels_match(dyadic_product(linear[: 5 - 2 * len(pairs)], pairs, shift))

    @pytest.mark.parametrize("coeffs", [HENDECAGON, (1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)])
    def test_documented_quintics(self, coeffs):
        assert integer_sturm_chain(coeffs) == fraction_sturm_chain(coeffs)

    # sparse quintics, whose remainders drop more than one degree: the next
    # division then spans deg num - deg den = delta > 1 and takes delta + 1
    # passes, delta = 3 for t^5 - 2t and t^5 + t, 2 for t^5 + 3t^2 - 1; in
    # t^5 + 1 the drop lands on a constant, which ends the chain, and the chain
    # of t^5 - t^3, a triple root at 0, ends on the gcd t^2; in t^5 + t^2 + t + 1
    # p' is divided by -(3t^2 + 4t + 5), whose quotient needs all of |lc|^3.
    # The rest pin every exit of a quintic's straight-line pass: a zero
    # remainder ends it on the gcd, and a lead that vanishes alone (as in
    # t^5 + 1, at S2) hands the chain to the loop from [f, f']
    @pytest.mark.parametrize("coeffs", [
        (1.0, 0.0, 0.0, 0.0, -2.0, 0.0),
        (1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0, 3.0, 0.0, -1.0),
        (1.0, 0.0, 0.0, 0.0, 0.0, 1.0),
        (1.0, 0.0, -1.0, 0.0, 0.0, 0.0),  # the gcd at S3
        (1.0, 0.0, 0.0, 1.0, 1.0, 1.0),
        (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),  # t^5: the gcd at f'
        (1.0, 1.0, 0.0, 0.0, 0.0, 0.0),  # t^5 + t^4: the gcd at S2
        (1.0, 0.0, 1.0, 1.0, 0.0, 0.0),  # t^5 + t^3 + t^2: the gcd at S4
        (1.0, 1.0, 0.0, 0.0, 0.0, 1.0),  # t^5 + t^4 + 1: S3's lead vanishes
        (1.0, -3.0, 3.0, -3.0, 3.0, 3.0),  # t^5 - 3t^4 + 3t^3 - 3t^2 + 3t + 3: S4's lead vanishes
    ])
    def test_remainders_dropping_several_degrees(self, coeffs):
        assert_levels_match(coeffs)

    # the loop on its own inputs, of degree 1 to 4 (a quintic's chain reaches it only
    # where a remainder's lead vanishes): t^4 + t's chain is [t^4 + t, 4t^3 + 1, -12t, -1],
    # whose last step spans two degrees and takes 3 passes; the first remainder of t^4 + 1
    # and of t^3 + 1 drops to a constant; 2t^4 - 3t^2 + 1's elements skip every other
    # power, so each pass but the last cancels a zero lead; (t - 1)^2 (t + 1) ends on a gcd
    @settings(max_examples=400, deadline=None)
    @given(sparse_polynomials())
    @example([1, 0, 0, 1, 0])
    @example([1, 0, 0, 0, 1])
    @example([1, 0, 0, 1])
    @example([2, 0, -3, 0, 1])
    @example([1, -1, -1, 1])
    def test_loop_chains_below_degree_five(self, poly):
        chain, gcd = _sturm_chain(poly)
        want, frac_gcd = _frac_chain([Fraction(c) for c in poly])
        if frac_gcd is None:  # square-free: the whole chain
            assert gcd == [1] and len(chain) == len(want)
            assert all(map(is_positive_multiple, chain, want))
        else:  # the head f / g and the primitive gcd
            assert len(chain) == 1 and is_positive_multiple(chain[0], want[0])
            assert math.gcd(*gcd) == 1 and is_positive_multiple(gcd, frac_gcd)

    def test_square_free_part_of_repeated_roots(self):
        # (t - 1)^3 (t + 1/2)^2: p's chain ends on g1 = (t - 1)^2 (t + 1/2), and
        # only its head, the square-free part p / g1 = (t - 1)(t + 1/2), is kept;
        # g1's ends on g2 = t - 1 and keeps only g1 / g2, the same; g2 is
        # square-free and keeps its whole chain. a1 = 1 is constant, and
        # a2 = t + 1/2 and a3 = t - 1 are linear, each root one division
        coeffs = dyadic_product([2, 2, 2, -1, -1], [], 1)
        chains = integer_sturm_chain(coeffs)
        assert [len(chain) for chain in chains] == [1, 1, 2]
        assert chains[0] == chains[1] == [[1.0, -0.5, -0.5]]
        assert chains[2] == [[1.0, -1.0], [1.0]]
        assert_levels_match(coeffs)


# zeros of both signs, subnormals, the normal edge and the largest floats
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
])


class TestRealRootsOracle:
    """The fixed-degree kernel returns what generic Horner loops return."""

    @settings(max_examples=300, deadline=None)
    @given(rest=st.lists(st.one_of(wide_floats, EDGE_FLOATS), min_size=5, max_size=5))
    @example([8254058480958692.0, 0.0, 0.0, 0.0, 0.0])  # the root -a4 lies an ulp inside -B
    @example([5e-324, 0.0, 0.0, 0.0, 0.0])  # t^4 (t + 5e-324): a1 = t + 5e-324, a4 = t
    @example([0.0, 0.0, 1.0, 0.0, 0.0])  # t^2 (t^3 + 1): a2 = t, led by a negative, has root 0.0
    # Illinois lands on a point that rounds onto hi with r = 1 clamped to 15/16: the fallback
    # reads the unclamped r and goes halfway, to -1e-323, the nearer float to the root -7.9e-324
    @example([0.0, 0.0, 0.0, -0.625, -5e-324])
    def test_wide_and_edge_coefficients(self, rest):
        q = Quintic(1.0, *rest)
        assert outcome(lambda: real_roots(q)) == outcome(lambda: reference_real_roots(q))

    # repeated roots end the chain early and leave a square-free part of
    # lower degree, which the kernel pads with more zeros
    @settings(max_examples=300, deadline=None)
    @given(
        linear=st.lists(st.integers(-24, 24), min_size=5, max_size=5),
        pairs=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=2),
        shift=st.integers(0, 6),
    )
    def test_dyadic_repeated_roots(self, linear, pairs, shift):
        q = Quintic(*dyadic_product(linear[: 5 - 2 * len(pairs)], pairs, shift))
        assert outcome(lambda: real_roots(q)) == outcome(lambda: reference_real_roots(q))



class TestCountFirst:
    """Each Yun factor's roots are counted on its chain's integer leads before any float
    work: ``_isolate`` leaves a factor with no root there, closes one root's bracket at
    its first pop, with only the head normalized, and a linear factor is one division."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("_normalized", "_isolate", "_refine_root"):
            def counted(*args, name=name, f=getattr(polynomial, name)):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(polynomial, name, counted)
        return calls

    def test_one_root_normalizes_only_the_head(self, calls):
        q = Quintic(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)  # t^5 + t + 1
        assert real_roots(q) == reference_real_roots(q)
        assert (calls["_normalized"], calls["_isolate"], calls["_refine_root"]) == (1, 1, 1)

    def test_rootless_factor_is_left_at_its_count(self, calls):
        # (t^2 + 1)^2 (t - 3): a1 = t - 3 is linear, and a2 = t^2 + 1 has no real root
        q = Quintic(1.0, -3.0, 2.0, -6.0, 1.0, -3.0)
        assert real_roots(q) == reference_real_roots(q) == [(3.0, 1)]
        assert (calls["_normalized"], calls["_isolate"], calls["_refine_root"]) == (0, 1, 0)

    def test_three_roots_normalize_the_whole_chain(self, calls):
        # (t + 2)(t - 1/2)(t - 3)(t^2 + 1) is square-free: its one chain is p's
        q = Quintic(*dyadic_product([-4, 1, 6], [(0, 2)], 1))
        chain = _sturm_chain(_integer_coefficients(q))[0]
        assert real_roots(q) == reference_real_roots(q)
        assert (calls["_normalized"], calls["_isolate"], calls["_refine_root"]) == (len(chain), 1, 3)
        assert len(chain) == 6

    def test_linear_factors_are_one_division(self, calls):
        # (t + 3/4)^4 (t - 2): a1 = t - 2, and a4 = t + 3/4 is the last level's head
        q = normalize_monic([1, 1, -2.625, -5.0625, -3.05859375, -0.6328125])
        assert real_roots(q) == reference_real_roots(q) == [(-0.75, 4), (2.0, 1)]
        assert not calls

class TestBracketEnds:
    """Each bracket carries the head's floats at its ends, where refinement starts
    without evaluating them again: at -B and B the values ``_isolate`` takes, at a
    probe the probe's, and at a probe nudged off a root the nudged point's; each is read
    off the ``_refine_root`` call that closes the bracket."""

    @staticmethod
    def assert_ends_carried(q):
        for head, lo, hi, flo, fhi in refined_brackets(lambda: outcome(lambda: real_roots(q)))[1]:
            assert repr((flo, fhi)) == repr((evaluate(head, lo), evaluate(head, hi)))

    @settings(max_examples=300, deadline=None)
    @given(rest=st.lists(st.one_of(wide_floats, EDGE_FLOATS), min_size=5, max_size=5))
    def test_wide_and_edge_coefficients(self, rest):
        self.assert_ends_carried(Quintic(1.0, *rest))

    @settings(max_examples=300, deadline=None)
    @given(
        linear=st.lists(st.integers(-24, 24), min_size=5, max_size=5),
        pairs=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=2),
        shift=st.integers(0, 6),
    )
    def test_dyadic_repeated_roots(self, linear, pairs, shift):
        self.assert_ends_carried(Quintic(*dyadic_product(linear[: 5 - 2 * len(pairs)], pairs,
                                                         shift)))

    def test_nudged_probe_carries_the_nudged_value(self):
        # t (t^2 - 1)(t^2 - 4) on (-6, 6]: the first probe, 0.0, is a root, so it is
        # nudged to 1.2e-6, where the head is not zero
        q = Quintic(1.0, 0.0, -5.0, 0.0, 4.0, 0.0)
        roots, brackets = refined_brackets(lambda: real_roots(q))
        ends = {x: fx for _, lo, hi, flo, fhi in brackets for x, fx in ((lo, flo), (hi, fhi))}
        assert [x for x in ends if 0.0 < x < 1e-5] == [1.2e-6]
        assert ends[1.2e-6] == evaluate(brackets[0][0], 1.2e-6) != 0.0
        assert roots == [(-2.0, 1), (-1.0, 1), (0.0, 1), (1.0, 1), (2.0, 1)]


def test_extreme_set_wrong_lists_stay_at_or_below_the_baseline():
    # the first 500 draws of ROADMAP's extreme set, counted against exact Sturm
    # counts, and their returned roots against exact signs; the baselines only go
    # down (all 20,000 draws: 4,799 wrong, 828 refused, and 4,017 of 39,236
    # returned roots in 3,913 lists not nearest; here 107 of 965, in 106 lists)
    counts = count_wrong(extreme_set(500))
    assert counts.wrong <= 131 and counts.refused <= 22
    assert counts.not_nearest_lists <= 106 and counts.not_nearest_roots <= 107


def test_dyadic_grid_lists_stay_at_or_below_the_baseline():
    # the first 2,000 quintics of ROADMAP's dyadic grid, whose roots are floats, so a
    # returned root is nearest exactly when it is a root; the baselines only go down
    # (all 43,316: 0 wrong, 3,382 lists with 5,965 roots that are not exact; here 212
    # lists with 362 roots)
    counts = count_grid(dyadic_grid(2000))
    assert counts.wrong <= 0 and counts.inexact_lists <= 212 and counts.inexact_roots <= 362


def test_cauchy_bound_contains_roots():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = Quintic(1.0, *rng.uniform(-5, 5, size=5))
        bound = cauchy_bound(q)
        assert all(abs(r) < bound for r, _ in real_roots(q))


@pytest.mark.parametrize("a4", [2.0**52, 2.0**53, 2.0**53 + 2.0, 1e70, 1e300])
def test_cauchy_bound_above_large_coefficients(a4):
    # the bound is the next float above a4: 1 + a4 is that float at 2^52, ties up
    # onto it at 2^53 + 2 and rounds back onto a4 at the others; the root lies
    # just beyond -a4
    q = Quintic(1.0, a4, 0.0, 0.0, 0.0, 1.0)
    assert cauchy_bound(q) == math.nextafter(a4, math.inf)
    roots = real_roots(q)
    assert roots and roots[0][0] == pytest.approx(-a4, rel=1e-15)


def test_cauchy_bound_unchanged_below_2_53():
    q = Quintic(1.0, 2.0**53 - 1.0, 0.0, 0.0, 0.0, 1.0)
    assert cauchy_bound(q) == 2.0**53
    # with every |a_i| zero the bound is 1, not the float above 0
    assert cauchy_bound(Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == 1.0


def test_deep_isolation_is_not_recursive():
    # roots near 1e300 and +-1e-75: the bisection from the bound down to the
    # small pair is deeper than the interpreter's recursion limit
    assert real_roots(Quintic(1.0, -1e300, 0.0, 0.0, 0.0, 1.0))


def test_bound_beyond_the_float_range_is_named():
    # the next float above the largest coefficient is infinite
    q = Quintic(1.0, 1.7976931348623157e308, 0.0, 0.0, 0.0, 1.0)
    assert cauchy_bound(q) == math.inf
    with pytest.raises(SturmOverflow, match=r"^the Cauchy bound is beyond the float range: "
                                            r"the largest \|a_i\| is 1\.7976931348623157e\+308$"):
        real_roots(q)


def test_overflowing_probe_is_refused():
    # t (t^4 + 1e308 t^3 + 1), square-free: the first probe, 0.0, is a root of the
    # head, and the nudge off it, (hi - lo) * 1e-7 with hi - lo = 2B, overflows
    q = Quintic(1.0, 1e308, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(SturmOverflow, match=r"^bisecting \(-1\.0000000000000002e\+308, "
                                            r"1\.0000000000000002e\+308\] overflows: its "
                                            r"midpoint, or a nudge off a root, is x = inf$"):
        real_roots(q)


def test_zero_float_count_at_the_bound_is_read_off_the_leads():
    # Horner overflows at the bound, where both ends count two float sign
    # variations; the chain's leads count the one real root, just beyond -a4
    q = Quintic(1.0, 7.95088381429319e+223, 9.677853493331734e-286, 0.0,
                -2.155796641012135e-109, 1.445915818892557e-103)
    assert real_roots(q) == [(-7.95088381429319e+223, 1)]
    assert is_nearest_float(exact_sturm_chains(q)[0][0], -7.95088381429319e+223)


def test_root_within_an_ulp_of_the_bound_is_found():
    # the root lies 6.6e-9 below B = 100663297.0, where the float signs of the
    # chain count V(-B) = V(B) = 3; the leads count it, and B is the float
    # nearest it, 0.44 ulp away
    q = Quintic(1, -100663296, -100663296, -33554432, -1, -1)
    assert cauchy_bound(q) == 100663297.0
    assert real_roots(q) == [(100663297.0, 1)]
    assert is_nearest_float(exact_sturm_chains(q)[0][0], 100663297.0)


def test_root_near_the_bound_beside_others_is_found():
    # -B = -a4 - 1 lies an ulp beyond the root at -a4 - 3.6e-48, and the float head,
    # normalized by a4, comes out positive at -B where p is negative: the float
    # signs counted V(-B) one short and lost that root, while the two small ones
    # kept the count above zero
    q = normalize_monic([1, 8254058480958692, 0, 0, -2, -1])
    assert real_roots(q) == [(-8254058480958692.0, 1), (-0.00010490841646511324, 1),
                             (0.0001049194233957387, 1)]
    assert real_roots(normalize_monic([1, 1e20, 0, 0, -2, -1]))[0] == (-1e20, 1)


def exact_distinct_real_roots(q):
    """V(-inf) - V(inf) of the Fraction Sturm chain of p / g1, from the signs of
    its elements' leads and their degrees."""
    chain = exact_sturm_chains(q)[0]

    def variations(x):
        signs = [(1 if f[0] > 0 else -1) * x ** (len(f) - 1) for f in chain]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(-1) - variations(1)


def signed_units(exponents):
    """+-u 2^k, u in [1, 2) and k drawn from exponents."""
    return st.builds(lambda sign, u, k: sign * math.ldexp(u, k), st.sampled_from((-1.0, 1.0)),
                     st.floats(1.0, 2.0, exclude_max=True), exponents)


small = signed_units(st.integers(-10, 10))


# a4 = +-u 2^k for k in 53..200, where B, the float next above |a4|, lies within
# an ulp of the root near -a4, beside small roots from a3 .. a1, each 0 or
# +-u 2^(-10..10), and a nonzero a0 of the same scale
@settings(max_examples=300, deadline=None)
@given(signed_units(st.integers(53, 200)),
       st.lists(st.one_of(st.just(0.0), small), min_size=3, max_size=3), small)
def test_every_root_beside_a_wide_a4_is_counted(a4, middle, a0):
    q = Quintic(1.0, a4, *middle, a0)
    assert len(real_roots(q)) == exact_distinct_real_roots(q)


class TestMultiplicity:
    """A multiplicity is the index of the exact Yun factor its root is found on, not judged
    at the root."""

    def test_close_simple_roots_stay_simple(self):
        # 1 and 1 + 1e-7 are distinct roots of the float polynomial; a
        # derivative test called each of them double
        q = normalize_monic(np.poly([1, 1 + 1e-7, -2, 0.5, 3]))
        assert [m for _, m in real_roots(q)] == [1, 1, 1, 1, 1]

    def test_fivefold_root(self):
        assert real_roots(Quintic(1, 0, 0, 0, 0, 0)) == [(0.0, 5)]

    def test_fourfold_root_next_to_a_simple_one(self):
        # (t - 3/8)^4 (t - 1/2): the bracket ends lie close to 3/8, where the
        # float chains of g1 and g2 lose their signs unless divided by their gcd
        q = Quintic(*dyadic_product([3, 3, 3, 3, 4], [], 3))
        assert [m for _, m in real_roots(q)] == [4, 1]

    def test_triple_root_bracket(self):
        # (t + 1)^3 t^2: p's undivided chain, whose float signs are noise next
        # to the triple root, counted a root in (-0.9999994, -0.4999993],
        # which holds none, and none at -1
        assert real_roots(Quintic(*dyadic_product([-1, -1, -1, 0, 0], [], 0))) == [
            (-1.0, 3), (0.0, 2)]

    def test_triple_root_next_to_two_simple_ones(self):
        # (t + 1/4)(t - 1/4)(t - 1)^3: the undivided chain returned 1.0 twice
        # and missed 1/4
        q = Quintic(*dyadic_product([-1, 1, 4, 4, 4], [], 2))
        assert real_roots(q) == [(-0.25, 1), (0.25, 1), (1.0, 3)]

    def test_simple_root_between_double_ones(self):
        # (t + 2)^2 (t + 1)(t - 1)^2: refinement returned the bracket's lower
        # end -2, a root of the square-free part, in place of -1
        q = Quintic(*dyadic_product([-2, -2, -1, 1, 1], [], 0))
        assert real_roots(q) == [(-2.0, 2), (-1.0, 1), (1.0, 2)]

    def test_fourfold_root_next_to_a_simple_one_from_the_corpus(self):
        # (t + 3/4)(t + 1/2)^4, a seed-2 unit-batch case; returned
        # [(-0.5, 4), (-0.5, 1)] from p's undivided chain
        roots = real_roots(Quintic(1, 2.75, 3, 1.625, 0.4375, 0.046875))
        assert [m for _, m in roots] == [1, 4]
        assert [r for r, _ in roots] == pytest.approx([-0.75, -0.5], abs=1e-12)

    # each root is found on the Yun factor a_j whose index j is its multiplicity:
    # (t + 3)(t + 1)(t - 1)^2 (t - 3/2), (t + 2)^2 (t + 1/2)(t - 1)(t - 2),
    # (t + 3)(t + 3/2)^2 (t + 1/2)(t - 1/2) and t^4 (t + 1e308). The gcd chains'
    # float counts at the bracket ends, noise beside a multiple root, called the
    # double root of the first three simple, and a probe on p's chain overflowed
    # for the last
    @pytest.mark.parametrize("q, roots", [
        (normalize_monic([1, 0.5, -7, 4, 6, -4.5]), [(-3.0, 1), (-1.0, 1), (1.0, 2), (1.5, 1)]),
        (normalize_monic([1, 1.5, -5.5, -7, 6, 4]), [(-2.0, 2), (-0.5, 1), (1.0, 1), (2.0, 1)]),
        (normalize_monic([1, 6, 11, 5.25, -2.8125, -1.6875]),
         [(-3.0, 1), (-1.5, 2), (-0.5, 1), (0.5, 1)]),
        (Quintic(1.0, 1e308, 0.0, 0.0, 0.0, 0.0), [(-1e+308, 1), (0.0, 4)]),
    ])
    def test_multiplicity_is_the_factor_index(self, q, roots):
        assert real_roots(q) == roots

    # a multiplicity is only as right as its root's bracket, and float signs
    # can still misplace a bracket, so the multiplicities are compared where
    # p's chain gives every root a bracket that holds it
    @settings(max_examples=300, deadline=None)
    @given(
        linear=st.lists(st.integers(-24, 24), min_size=5, max_size=5),
        pairs=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=2),
        shift=st.integers(0, 6),
    )
    def test_dyadic_products(self, linear, pairs, shift):
        linear = linear[: 5 - 2 * len(pairs)]
        q = Quintic(*dyadic_product(linear, pairs, shift))
        stated = Counter(Fraction(n, 2**shift) for n in linear)
        assume(brackets_hold_roots(q, sorted(stated)))
        assert sorted(m for _, m in real_roots(q)) == sorted(stated.values())


# quintics whose coefficients span 2^-40 to 2^41, as the several-scale sets do
several_scales = st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from((-1.0, 1.0)),
                           st.floats(1.0, 2.0), st.integers(-40, 40))


@settings(max_examples=300, deadline=None)
@given(st.lists(several_scales, min_size=5, max_size=5))
def test_roots_come_strictly_ascending(rest):
    # each Yun factor's brackets are disjoint, and real_roots sorts the roots of
    # all factors together; solve_all calls it on the quintic in its 2^e frame
    q = Quintic(1.0, *rest)
    roots = [t for t, _ in real_roots(balance(q, balance_exponent(q)))]
    assert all(a < b for a, b in zip(roots, roots[1:]))


def test_zero_at_the_lower_end_belongs_to_the_left_bracket():
    # (t + 2)(t + 1)(t - 1) on (-2, 0]: -2 is outside the bracket, -1 inside
    poly = _normalized([1, 2, -1, -2])
    assert _refine_root(poly, [0, 0, 1, 2, -1, -2], -2.0, 0.0, evaluate(poly, -2.0),
                        evaluate(poly, 0.0)) == pytest.approx(-1.0, abs=1e-12)


def test_root_at_the_upper_end_is_returned_exactly():
    # t^5 - 1 on (0.5, 1.0]: the head's floats are 0.0 at 1.0, so they do not
    # orient the bracket, and the exact signs show no change before the root at hi
    q = Quintic(1.0, 0.0, 0.0, 0.0, 0.0, -1.0)
    head = _normalized(q)
    assert _refine_root(head, [1, 0, 0, 0, 0, -1], 0.5, 1.0, evaluate(head, 0.5),
                        evaluate(head, 1.0), q) == 1.0


class TestRefinement:
    """Illinois on the head's floats, then exact signs pick the nearer float."""

    def test_exact_roots_of_a_triple_root_quintic(self):
        # (t + 3/4)^3 (t - 1)(t + 2): the floats of the head (t + 3/4)(t - 1)(t + 2)
        # are rounded, so only the walk on exact signs lands on -2 itself
        q = Quintic(1, 3.25, 1.9375, -2.390625, -2.953125, -0.84375)
        assert real_roots(q) == [(-2.0, 1), (-0.75, 3), (1.0, 1)]

    def test_hendecagon_roots_are_nearest_floats(self, hendecagon):
        head = exact_sturm_chains(hendecagon)[0][0]
        roots = [t for t, _ in real_roots(hendecagon)]
        assert len(roots) == 5 and all(is_nearest_float(head, t) for t in roots)

    def test_probes_on_neighbouring_roots(self):
        # (t + 5/2)(t + 2)(t + 3/2)(t + 1/2)(t - 2): isolation's probes land on
        # neighbouring roots, where the float values are noise, so the secant
        # must keep away from those ends or it returns a neighbour's root. Each
        # root is no farther from its exact root than the bisection and Newton
        # polish of schema 6 put it
        q = Quintic(1, 4.5, 1.75, -16.125, -23, -7.5)
        exact = [Fraction(-5, 2), Fraction(-2), Fraction(-3, 2), Fraction(-1, 2), Fraction(2)]
        polished = [-2.5000000000000027, -1.9999999999999953, -1.5000000000000016, -0.5, 2.0]
        roots = real_roots(q)
        assert [m for _, m in roots] == [1] * 5
        for (t, _), want, before in zip(roots, exact, polished):
            assert abs(Fraction(t) - want) <= abs(Fraction(before) - want)

    # points as refinement takes them, a float or midway between it and a
    # neighbour: either sign, subnormal, and near 2^1000, below 2^1024, which overflows
    @settings(max_examples=400, deadline=None)
    @given(
        poly=st.lists(st.integers(-9, 9) | st.integers(-2**80, 2**80), min_size=6, max_size=6),
        x=st.one_of(wide_floats, st.floats(-1e-307, 1e-307),
                    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(990, 1023))),
    )
    def test_sign_between_is_the_sign_of_the_fraction_value(self, poly, x):
        for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
            if math.isfinite(y):
                want = fraction_sign(poly, (Fraction(x) + Fraction(y)) / 2)
                assert _sign_between(poly, x, y) == want


    # the single-float branch at the exponent extremes: the smallest subnormal, whose
    # ratio has the denominator 2^1074, the largest float, and 1.0
    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1.7976931348623157e308,
                                   -1.7976931348623157e308, 1.0, -1.0])
    @pytest.mark.parametrize("poly", [[0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, -1], [1, 0, 0, 0, 0, -1],
                                      [3, -2**1100, 0, 0, 7, -1], [-5, 0, 2**80, 0, 0, 1]])
    def test_sign_at_a_single_float(self, poly, x):
        assert _sign_between(poly, x, x) == fraction_sign(poly, Fraction(x))

# rounding boundaries, written out exactly: the midpoint between the largest
# float and 2**1024, and half the smallest subnormal, with their neighbours
FLOAT_EDGES = [f"{2**1024 - 2**970 + d}" for d in (-1, 0)] + [
    f"{5**1075 + d}e-1075" for d in (-1, 0, 1)
]
# an exponent this long makes Fraction build a huge power of ten
LONG_EXPONENT = re.compile(r"[eE][-+]?[\d_]{5,}")


class TestParseCoefficient:
    @given(st.one_of(
        st.text(),
        st.text(alphabet="0123456789+-./_ \t\u0663\uff11", max_size=20),
        st.from_regex(r"\A\s?[+-]?(\d{1,8}_)?\d{0,20}(\.\d{0,20})?([eE][+-]?\d{1,3})?"
                      r"(/\d{1,3})?\s?\Z"),
        st.floats().map(repr),
        st.floats().map(lambda x: f"{x:.25e}"),
    ))
    def test_matches_fraction_reference(self, text):
        assume(not LONG_EXPONENT.search(text))
        assert outcome(lambda: parse_coefficient(text)) == outcome(
            lambda: reference_parse_coefficient(text))

    # where float() and Fraction differ, or a sign of zero could leak through
    @pytest.mark.parametrize("text", [
        "inf", "-nan", "1e400", "-1e400", "3/0", "\u0663", "\uff11\uff12", "1_000", " -22/5 ",
        "-0", "-0.0e5", "-1e-400", "-\u0660", "-0_0E5", "-0E5", "-\u0661e-400", "", ".", "1e",
        *FLOAT_EDGES,
        # fractions at the float range's end: over /1 the integer below the midpoint parses
        # as the largest float, and the midpoint and 10^400 / 3 overflow Fraction's float()
        *(f"{edge}/1" for edge in FLOAT_EDGES[:2]), "1" + "0" * 400 + "/3",
    ])
    def test_known_differences(self, text):
        assert outcome(lambda: parse_coefficient(text)) == outcome(
            lambda: reference_parse_coefficient(text))


def test_worst_item_contract():
    nan, later_nan = ("a", math.nan), ("b", math.nan)
    # the first NaN wins wherever it stands
    assert worst_item([nan, ("x", math.inf)]) is nan
    assert worst_item([("x", math.inf), ("y", 1.0), nan, later_nan]) is nan
    assert worst_item(iter([("x", 2.0), nan])) is nan
    # a tie returns the first item itself
    first, second = ("first", 3.0), ("second", 3.0)
    assert worst_item([("low", 1.0), first, second]) is first
    # inf beats any finite value
    assert worst_item([("big", 1e308), ("inf", math.inf), ("max", 1.7976931348623157e308)]) == (
        "inf", math.inf)
    # -0.0 ties with 0.0, so the first of them is returned
    negative, positive = ("neg", -0.0), ("pos", 0.0)
    assert worst_item([negative, positive]) is negative
    assert worst_item([positive, negative]) is positive
    assert worst_item([("only", -1.0)]) == ("only", -1.0)
    with pytest.raises(ValueError):
        worst_item([])
    with pytest.raises(ValueError):
        worst_item(iter(()))


def test_coefficient_gap():
    assert coefficient_gap((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert coefficient_gap((1.0, 2.5), (1.0, 2.0)) == pytest.approx(0.25)
    assert coefficient_gap((0.5,), (0.0,)) == pytest.approx(0.5)
    # a NaN anywhere fails a `gap <= limit` gate, first or last; max() would drop it
    assert math.isnan(coefficient_gap((1.0, math.nan, 2.0), (1.0, 0.0, 2.0)))
    assert math.isnan(coefficient_gap((math.nan, 5.0, 1.0), (0.0, 0.0, 0.0)))
    assert math.isnan(coefficient_gap((1.0, 5.0, math.nan), (0.0, 0.0, 0.0)))
    assert math.isnan(coefficient_gap((1.0, 2.0, 3.0), (math.nan, 2.0, math.inf)))
    assert coefficient_gap((3.0, 1.0, 3.0), (0.0, 0.0, 0.0)) == 3.0  # a tie
    assert repr(coefficient_gap((-0.0, 0.0, -0.0), (0.0, -0.0, -0.0))) == "0.0"
    assert coefficient_gap((1e308, -1e308), (-1e308, 1e308)) == math.inf  # |g - w| overflows
    assert coefficient_gap((2.0, 4.0, 0.5), (2.0, 4.5, 0.0)) == 0.5
    with pytest.raises(ValueError):
        coefficient_gap((1.0,), (1.0, 2.0))
    for empty in ((), []):  # no coefficients, no worst error
        with pytest.raises(ValueError):
            coefficient_gap(empty, empty)
