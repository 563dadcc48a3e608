import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_quintic import (
    DegenerateP,
    InexactFrame,
    NegativeDiscriminant,
    OrigamiQuinticError,
    SingularSystem,
    ZeroConstantTerm,
    build_config,
    choose_h,
    compute_bc,
    compute_kpq,
    config_quintic,
    discriminant,
    forward_coefficients,
    normalize_monic,
    solve_all,
)
from origami_quintic import foldconfig
from origami_quintic.foldconfig import (BRANCHES, H_MAX, H_MIN, H_TRIALS, balance,
                                       balance_exponent, drawn)
from origami_quintic.polynomial import Quintic, _depressed_in_u, coefficient_gap

from conftest import closed_form_kpq, exact_kpq, outcome, reference_compute_kpq

SCALED_HENDECAGON = Quintic(1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)


def random_tuple(rng, h_range=(0.25, 4.0), b_max=3.0, box=5.0, min_pk=0.1):
    h = rng.uniform(*h_range)
    b = rng.uniform(-b_max, b_max)
    c = rng.uniform(-box, box)
    q = rng.uniform(-box, box)
    k = rng.uniform(-box, box)
    p = k + rng.choice([-1.0, 1.0]) * rng.uniform(min_pk, box)
    return b, c, k, p, q, h


def quintic_of(b, c, k, p, q, h):
    return Quintic(1.0, *forward_coefficients(b, c, k, p, q, h))


def kpq_system(quintic, h, b, c):
    """The (k, p, q) matrix and right-hand side, as numpy arrays."""
    b2 = b * b
    matrix = np.array(
        [
            [-(1.0 + b2) / 4.0, (b2 - 1.0) / 4.0, b / 2.0],
            [0.0, 2.0 * b * h, h * (1.0 - b2)],
            [-h * h * (1.0 + b2) / 2.0, 3.0 * h * h * (1.0 - b2) / 2.0, -3.0 * b * h * h],
        ]
    )
    rhs = np.array(
        [
            quintic.a4 + 3.0 * b * h + c / 2.0,
            quintic.a3 - b * c * h + h * h - 2.0 * b2 * h * h,
            quintic.a2 - b * h**3,
        ]
    )
    return matrix, rhs


class TestForwardCoefficients:
    def test_reference_tuple(self):
        got = forward_coefficients(0.0, 0.0, -1.5, -2.5, -3.0, 1.0)
        assert got == pytest.approx((1.0, -4.0, -3.0, 3.0, 1.0), abs=1e-12)

    def test_odd_symmetry_kills_even_ends(self):
        for big_k in (0.5, 2.0, 7.0):
            alpha, _, _, _, epsilon = forward_coefficients(
                0.0, 0.0, -big_k, big_k, 0.0, 1.0
            )
            assert alpha == 0.0
            assert epsilon == 0.0

    def test_compatibility_relations(self):
        # the quartic/constant rows and the cubic/linear rows are linked:
        # e - h^4 a = h^4 (c + 3 b h) and h^2 b3 + d = h^3 (2 b c + 2 b^2 h - h)
        rng = np.random.default_rng(21)
        for _ in range(300):
            b, c, k, p, q, h = random_tuple(rng)
            alpha, beta, _, delta, epsilon = forward_coefficients(b, c, k, p, q, h)
            assert (epsilon - h**4 * alpha) == pytest.approx(
                h**4 * (c + 3 * b * h), abs=1e-9
            )
            assert (h * h * beta + delta) == pytest.approx(
                h**3 * (2 * b * c + 2 * b * b * h - h), abs=1e-9
            )


class TestDiscriminant:
    def test_hendecagon_is_zero(self, hendecagon):
        assert discriminant(hendecagon, 1.0) == 0.0

    def test_scaled_hendecagon(self):
        assert discriminant(SCALED_HENDECAGON, 1.0) == pytest.approx(949637.0, abs=1e-6)

    def test_small_h_tends_to_constant_squared(self):
        q = Quintic(1, 0, 0, 0, 0, 2)
        want = 4.0 - 4.0 * 0.1**6 * 0.1**4
        assert discriminant(q, 0.1) == pytest.approx(want, rel=1e-14)

    def test_square_form_on_tuples(self):
        # for coefficients produced by a tuple, D collapses to h^8 (c - b h)^2
        rng = np.random.default_rng(22)
        for _ in range(200):
            b, c, k, p, q, h = random_tuple(rng)
            d = discriminant(quintic_of(b, c, k, p, q, h), h)
            want = h**8 * (c - b * h) ** 2
            assert d == pytest.approx(want, rel=1e-6, abs=1e-7)

    # h^5 underflowing to 0.0 gave ZeroDivisionError, and h^6 overflowing
    # OverflowError, from discriminant, compute_bc and build_config; from 1e31
    # D's h^10 overflows
    @pytest.mark.parametrize("h", [1e-70, 1e-65, 2.0**-129, 2.0**129, 1e60, math.inf, math.nan,
                                   0.0, -1.0, 1e31, 2.0**128])
    def test_h_outside_the_range_is_a_value_error(self, hendecagon, h):
        message = f"^{re.escape(f'h must be from 2^-128 to 2^102 in the frame, got {h!r}')}$"
        with pytest.raises(ValueError, match=message):
            discriminant(hendecagon, h)
        with pytest.raises(ValueError, match=message):
            compute_bc(hendecagon, h)
        # build_config names the caller's h; the hendecagon is its own frame
        message = f"^{re.escape(f'h must be from 2^-128 to 2^102, got {h!r}')}$"
        with pytest.raises(ValueError, match=message):
            build_config(hendecagon, h_override=h)

    def test_the_range_holds_every_trial_h(self, hendecagon):
        assert (H_MIN, H_MAX) == (2.0**-128, 2.0**102)
        assert all(H_MIN <= h <= H_MAX for h in H_TRIALS)
        # the ends are in it; at 2^102 D's 4 h^10 is 2^1022, still finite
        assert discriminant(hendecagon, H_MIN) == 1.0
        assert discriminant(hendecagon, H_MAX) == -(2.0**1022)
        # e = -66: 1e300 in the frame is 1e300 2^66, beyond the float range
        tiny = Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 1e-100)
        assert balance_exponent(tiny) == -66
        with pytest.raises(ValueError, match=r"got 1e\+300$"):
            build_config(tiny, h_override=1e300)
        # e = 200: h = 1 is 2^-200 in the frame, and the span is the caller's
        with pytest.raises(ValueError, match=r"^h must be from 2\^72 to 2\^302, got 1\.0$"):
            build_config(Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 1e300), h_override=1.0)


class TestChooseH:
    def test_hendecagon(self, hendecagon):
        assert choose_h(hendecagon) == 1.0

    def test_scaled_hendecagon(self):
        assert choose_h(SCALED_HENDECAGON) == 1.0

    def test_tiny_constant_term(self):
        q = Quintic(1, 0, 0, 0, 0, 0.001)
        h = choose_h(q)
        assert h <= 1.0
        assert discriminant(q, h) >= 0.0

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            choose_h(Quintic(1, 1, -4, -3, 3, 0))

    def test_always_succeeds_for_nonzero_constant(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            q = Quintic(1.0, *rng.uniform(-5, 5, size=5))
            if q.a0 == 0.0:
                continue
            h = choose_h(q)
            assert discriminant(q, h) >= 0.0


class TestComputeBC:
    def test_hendecagon_both_branches(self, hendecagon):
        for branch in BRANCHES:
            assert compute_bc(hendecagon, 1.0, branch) == (0.0, 0.0, 0.0)

    def test_scaled_hendecagon_plus(self):
        root = math.sqrt(949637.0)
        b, c, d = compute_bc(SCALED_HENDECAGON, 1.0, "plus")
        assert d == 949637.0
        assert b == pytest.approx((979.0 + root) / 4.0, rel=1e-12)
        assert c == pytest.approx((979.0 - 3.0 * root) / 4.0, rel=1e-12)

    def test_scaled_hendecagon_minus(self):
        root = math.sqrt(949637.0)
        b, c, d = compute_bc(SCALED_HENDECAGON, 1.0, "minus")
        assert d == 949637.0
        assert b == pytest.approx((979.0 - root) / 4.0, rel=1e-12)
        assert c == pytest.approx((979.0 + 3.0 * root) / 4.0, rel=1e-12)

    def test_negative_discriminant_rejected(self, hendecagon):
        # at h = 2: (1 - 16)^2 - 4 * 64 * (16 - 16 + 3) < 0
        assert discriminant(hendecagon, 2.0) < 0.0
        with pytest.raises(NegativeDiscriminant):
            compute_bc(hendecagon, 2.0)

    @pytest.mark.parametrize("q, h, d", [
        (Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 1e200), 1.0, "inf"),
        (Quintic(1.0, 0.0, 0.0, 0.0, 1e300, 1e300), 1024.0, "nan"),
    ], ids=["inf", "nan"])
    def test_discriminant_beyond_the_float_range_is_named(self, q, h, d):
        # a quintic outside its frame: D's square overflows, and at h = 2^10 so does
        # its h^6 a1 term, inf - inf; neither may be clamped to 0 or passed on
        with pytest.raises(NegativeDiscriminant, match=f"^D = {d} is not finite at h = "):
            compute_bc(q, h)

    @pytest.mark.parametrize("peak", [2.0**1.5 * (1.0 - 2.0**-52), 2.0**-1.5, 1e60, 1e-60])
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_discriminant_is_finite_at_h_max_in_every_frame(self, peak, branch):
        # in its frame |a_(5-i)| <= 2^(1.5 i), twice that for a0, so at H_MAX D
        # and its rounding floor are finite: D is named negative, never not finite
        for signs in itertools.product((-1.0, 1.0), repeat=5):
            coeffs = [s * peak**i for i, s in enumerate(signs, 1)]
            q = Quintic(1.0, *coeffs[:4], 2.0 * coeffs[4])
            q = balance(q, balance_exponent(q))
            with pytest.raises(NegativeDiscriminant, match=r"^D = -4\.49\d*e\+307 < 0 at h = "):
                compute_bc(q, H_MAX, branch)

    def test_branches_satisfy_compatibility(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            tb, tc, k, p, tq, h = random_tuple(rng)
            q = quintic_of(tb, tc, k, p, tq, h)
            alpha, beta, _, delta, epsilon = q[1:]
            for branch in BRANCHES:
                b, c, _ = compute_bc(q, h, branch)
                r1 = (epsilon - h**4 * alpha) - h**4 * (c + 3 * b * h)
                r2 = (h * h * beta + delta) - h**3 * (2 * b * c + 2 * b * b * h - h)
                assert abs(r1) <= 1e-9
                assert abs(r2) <= 1e-9


class TestComputeKPQ:
    def test_hendecagon_values(self, hendecagon):
        k, p, q = compute_kpq(hendecagon, 1.0, 0.0, 0.0)
        assert k == pytest.approx(-1.5, abs=1e-12)
        assert p == pytest.approx(-2.5, abs=1e-12)
        assert q == pytest.approx(-3.0, abs=1e-12)

    def test_reduced_closed_forms_at_b_c_zero(self, hendecagon):
        # with b = c = 0 and h = 1 the closed forms collapse to
        # p = (-2 a + g) / 2 and q = 1 + b3
        alpha, beta, gamma = hendecagon.a4, hendecagon.a3, hendecagon.a2
        _, p, q = compute_kpq(hendecagon, 1.0, 0.0, 0.0)
        assert p == pytest.approx((-2.0 * alpha + gamma) / 2.0, abs=1e-12)
        assert q == pytest.approx(1.0 + beta, abs=1e-12)

    def test_roundtrip_recovery(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            b, c, k, p, q, h = random_tuple(rng)
            quintic = quintic_of(b, c, k, p, q, h)
            got_k, got_p, got_q = compute_kpq(quintic, h, b, c)
            assert got_k == pytest.approx(k, rel=1e-8, abs=1e-8)
            assert got_p == pytest.approx(p, rel=1e-8, abs=1e-8)
            assert got_q == pytest.approx(q, rel=1e-8, abs=1e-8)

    def test_agrees_with_closed_forms(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            b, c, k, p, q, h = random_tuple(rng)
            quintic = quintic_of(b, c, k, p, q, h)
            solved = compute_kpq(quintic, h, b, c)
            closed = closed_form_kpq(quintic.a4, quintic.a3, quintic.a2, h, b, c)
            for s, cl in zip(solved, closed):
                assert s == pytest.approx(cl, rel=1e-7, abs=1e-7)

    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            b, c, k, p, q, h = random_tuple(rng)
            quintic = quintic_of(b, c, k, p, q, h)
            want = np.linalg.solve(*kpq_system(quintic, h, b, c))
            got = np.array(compute_kpq(quintic, h, b, c))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_non_finite_b_is_singular(self, hendecagon, b):
        with pytest.raises(SingularSystem, match="b = "):
            compute_kpq(hendecagon, 1.0, b, 0.0)

    @pytest.mark.parametrize("h", [1e-300, 1e-160])
    def test_underflowing_h_is_singular(self, hendecagon, h):
        # a solution that is not finite, never ZeroDivisionError
        with pytest.raises(SingularSystem, match="h = "):
            compute_kpq(hendecagon, h, 0.5, 0.0)

    def test_all_five_rows_hold(self):
        # the solution must satisfy the full coefficient system, not just
        # the three rows used to solve it
        rng = np.random.default_rng(27)
        for _ in range(200):
            b, c, k, p, q, h = random_tuple(rng)
            quintic = quintic_of(b, c, k, p, q, h)
            got_k, got_p, got_q = compute_kpq(quintic, h, b, c)
            produced = forward_coefficients(b, c, got_k, got_p, got_q, h)
            assert coefficient_gap(produced, quintic[1:]) <= 1e-9


# zeros of both signs, underflowing and overflowing powers of h, infinities and
# NaN, small dyadic values, and any float at all
KPQ_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 1e-160, 1e160, 1e200, 1e308, math.inf,
                     -math.inf, math.nan]),
    st.builds(lambda n: n / 8.0, st.integers(-32, 32)),
    st.floats(),
)


def signed(low, high):
    """Zeros and floats of either sign from low to high in abs."""
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(low, high),
                     st.floats(-high, -low))


# compute_kpq's error bound in kpq_error's units: over 320,000 random draws and
# 20,000 of test_matches_reference's, h from 2^-40 to 2^40 and |b| up to 1e8, the
# closed form's largest error read 5.9 (the elimination it replaced read 12.7)
KPQ_BOUND = 8.0


def kpq_error(quintic, h, b, c):
    """compute_kpq's largest error against exact_kpq, in units of 2^-53 times the
    problem's scale: the larger of the exact solution's largest entry and, for
    each row, the abs of its right-hand side's terms summed over the row's norm
    (s sqrt(2) / 4, h s and h^2 s sqrt(10) / 2, with s = 1 + b^2)."""
    want = exact_kpq(quintic, h, b, c)
    got = compute_kpq(quintic, h, b, c)
    s = 1.0 + b * b
    scale = max(
        *(abs(float(v)) for v in want),
        (abs(quintic.a4) + abs(3.0 * b * h) + abs(c / 2.0)) / (s * math.sqrt(2.0) / 4.0),
        (abs(quintic.a3) + abs(b * c * h) + h * h + 2.0 * b * b * h * h) / (h * s),
        (abs(quintic.a2) + abs(b) * h**3) / (h * h * s * math.sqrt(10.0) / 2.0),
    )
    return float(max(abs(Fraction(g) - w) for g, w in zip(got, want))) / scale * 2.0**53


class TestComputeKPQReference:
    """The closed form against two references: exact_kpq, the exact solve of
    the unscaled rows, and the elimination it replaced, whose failures it
    must match."""

    # dyadic inputs at which the elimination's second pivots tied, so that its
    # pivot order decided the rounding; the closed form has no pivot order, and
    # holds its bound here too
    @pytest.mark.parametrize("h, b", [(0.375, 3.0), (0.375, -3.0), (0.75, 0.5), (0.75, -2.0),
                                      (1.875, -4.0)])
    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    def test_second_pivots_of_equal_magnitude(self, hendecagon, h, b, c):
        assert kpq_error(hendecagon, h, b, c) <= KPQ_BOUND

    @pytest.mark.parametrize("h, b, c, message", [
        # an h far below 1: a2 / h / h is infinite
        (1e-300, 0.0, 0.0, "SingularSystem: (k, p, q) = (inf, -inf, nan) "),
        (1e-300, -0.0, 0.0, "SingularSystem: (k, p, q) = (inf, -inf, nan) "),
        (1.0, math.nan, 0.0, "SingularSystem: (k, p, q) = (nan, nan, nan) "),
        (math.inf, 0.0, 0.0, "SingularSystem: (k, p, q) = (nan, nan, nan) "),
        (1.0, math.inf, 0.0, "SingularSystem: (k, p, q) = (nan, nan, nan) "),
        (1e-160, 3.0, 0.0, "SingularSystem: (k, p, q) = (inf, inf, inf) "),
        (1.0, 0.0, 1.7e308, "SingularSystem: (k, p, q) = (nan, -inf, nan) "),
        (0.375, -0.0, math.nan, "SingularSystem: (k, p, q) = (nan, nan, nan) "),
        # a subnormal h: a3 / h and a2 / h / h are infinite
        (5e-324, 0.5, 0.0, "SingularSystem: (k, p, q) = (inf, -inf, nan) "),
        (0.0, 1.0, 0.0, "ValueError: h must be positive"),
        (-0.0, 1.0, 0.0, "ValueError: h must be positive"),
        (-1.0, 1.0, 0.0, "ValueError: h must be positive"),
    ])
    def test_failures_match(self, hendecagon, h, b, c, message):
        got = outcome(lambda: compute_kpq(hendecagon, h, b, c))
        assert got.startswith(message)
        # the elimination's class of failure, but where its 1 / 2^n overflowed
        want = outcome(lambda: reference_compute_kpq(hendecagon, h, b, c))
        assert got.split(":")[0] == want.split(":")[0].replace("OverflowError", "SingularSystem")

    # a quintic of zeros: k = u - P and p = cos P + sin Q are sums that cancel
    # to +0.0 whatever the sign of c's zero (the elimination gave p = -0.0)
    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_solutions(self, h, zero):
        quintic = Quintic(1.0, 0.0, 0.0, -0.0, 0.0, 1.0)
        k, p, q = compute_kpq(quintic, h, 0.0, zero)
        assert (k, p, q) == (0.0, 0.0, h)
        assert math.copysign(1.0, k) == math.copysign(1.0, p) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(a4=signed(1e-12, 1e12), a3=signed(1e-12, 1e12), a2=signed(1e-12, 1e12),
           h=st.floats(2.0**-40, 2.0**40), b=signed(1e-8, 1e8), c=signed(1e-12, 1e12))
    def test_matches_reference(self, a4, a3, a2, h, b, c):
        assert kpq_error(Quintic(1.0, a4, a3, a2, 0.0, 1.0), h, b, c) <= KPQ_BOUND

    @settings(max_examples=600, deadline=None)
    @given(a4=KPQ_FLOATS, a3=KPQ_FLOATS, a2=KPQ_FLOATS, h=KPQ_FLOATS, b=KPQ_FLOATS,
           c=KPQ_FLOATS)
    def test_any_floats_solve_finitely_or_raise_a_named_error(self, a4, a3, a2, h, b, c):
        quintic = Quintic(1.0, a4, a3, a2, 0.0, 1.0)
        if h <= 0.0:
            with pytest.raises(ValueError, match="h must be positive"):
                compute_kpq(quintic, h, b, c)
            return
        try:
            solution = compute_kpq(quintic, h, b, c)
        except SingularSystem as exc:
            assert str(exc).startswith("(k, p, q) = (") and " at b = " in str(exc)
        else:
            assert all(math.isfinite(v) for v in solution)


class TestBuildConfig:
    def test_hendecagon_regression(self, hendecagon_config):
        cfg = hendecagon_config
        assert cfg.h == 1.0
        assert cfg.D == 0.0
        assert (cfg.b, cfg.c) == (0.0, 0.0)
        assert cfg.k == pytest.approx(-1.5, abs=1e-12)
        assert cfg.p == pytest.approx(-2.5, abs=1e-12)
        assert cfg.q == pytest.approx(-3.0, abs=1e-12)
        # n passes through the origin here, which the depressed-form
        # analysis cannot represent
        assert cfg.line_n.c == 0.0

    def test_scaled_hendecagon_roundtrip(self):
        cfg = build_config(SCALED_HENDECAGON, h_override=1.0, branch="plus")
        produced = config_quintic(drawn(cfg))
        assert coefficient_gap(produced, SCALED_HENDECAGON) <= 1e-8

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            build_config(Quintic(1, 1, -4, -3, 3, 0))
        # an h out of range is named first
        with pytest.raises(ValueError, match=r"got 1e\+300$"):
            build_config(Quintic(1, 1, -4, -3, 3, 0), h_override=1e300)

    def test_degenerate_p(self):
        # a tuple with p = k survives the forward map but must be rejected
        # on the way back; with c > b h the MINUS branch recovers the tuple
        quintic = quintic_of(0.0, 1.0, 2.0, 2.0, 1.0, 1.0)
        with pytest.raises(DegenerateP):
            build_config(quintic, h_override=1.0, branch="minus")

    def test_degenerate_p_moves_to_the_next_h(self):
        # h = 1 puts P on l, as above; an h build_config chose itself moves on
        # to the next h of choose_h's sequence that compute_bc admits, on the
        # same branch
        quintic = quintic_of(0.0, 1.0, 2.0, 2.0, 1.0, 1.0)
        assert choose_h(quintic) == 1.0
        cfg = build_config(quintic, branch="minus")
        assert (cfg.h, cfg.branch) == (0.5, "minus")
        assert all(s.residuals.passes(1e-9) for s in solve_all(cfg, quintic))

    def test_degenerate_p_at_every_h_is_raised(self, hendecagon, monkeypatch):
        # P on l at every admissible h: the walk re-raises the last h's DegenerateP
        monkeypatch.setattr(foldconfig, "compute_kpq", lambda *args: (1.0, 1.0, 0.0))
        with pytest.raises(DegenerateP, match=r"^P lies on line l \(p = k = 1\) at "
                           r"h = 9\.09495e-13; retry with a different h$"):
            build_config(hendecagon)

    def test_every_h_is_solved_by_compute_bc(self, hendecagon, monkeypatch):
        # one (b, c) path: the walk and an overriding h both call compute_bc,
        # once for each h they build at
        hs = []
        compute_bc = foldconfig.compute_bc
        monkeypatch.setattr(foldconfig, "compute_bc",
                            lambda q, h, branch: hs.append(h) or compute_bc(q, h, branch))
        assert build_config(hendecagon).h == 1.0
        assert hs == [1.0]
        hs.clear()
        # h = 1 puts P on l, then h = 1/2 builds
        assert build_config(quintic_of(0.0, 1.0, 2.0, 2.0, 1.0, 1.0), branch="minus").h == 0.5
        assert hs == [1.0, 0.5]
        hs.clear()
        cfg = build_config(SCALED_HENDECAGON, h_override=1.0)
        assert hs == [cfg.h]

    @pytest.mark.parametrize("coeffs, h", [
        # the repeated-root cases of the seed-0 unit-batch benchmark corpus whose
        # first h in their frame puts P on l: cases 453, 459, 839, 1153, 263, 1749
        ((1.0, 4.75, 8.0, 5.1875, 0.375, -0.5625), 0.25),
        ((1.0, -0.25, -0.125, 0.03125, 0.00390625, -0.0009765625), 0.125),
        ((1.0, -1.75, -4.6875, 9.859375, -1.2109375, -3.515625), 0.5),
        ((1.0, 1.25, -0.3125, -0.390625, 0.15625, -0.015625), 0.25),
        ((1.0, -1.0, -28.1875, 47.25, 195.0, -500.0), 2.0),
        ((1.0, -1.5, -32.0, 48.0, 256.0, -384.0), 2.0),
    ])
    def test_repeated_roots_build_after_a_degenerate_h(self, coeffs, h):
        # choose_h's first h in the quintic's frame puts P on l
        quintic = Quintic(*coeffs)
        e = balance_exponent(quintic)
        with pytest.raises(DegenerateP):
            build_config(quintic, h_override=math.ldexp(choose_h(balance(quintic, e)), e))
        cfg = build_config(quintic)
        assert drawn(cfg).h == h
        assert all(s.residuals.passes(1e-9) for s in solve_all(cfg, quintic))
        # the h it moved on to rebuilds the same configuration, as verify relies on
        assert build_config(quintic, h_override=drawn(cfg).h, branch=cfg.branch) == cfg

    def test_branch_coincidence_at_zero_discriminant(self, hendecagon):
        plus = build_config(hendecagon, branch="plus")
        minus = build_config(hendecagon, branch="minus")
        for field in ("h", "b", "c", "k", "p", "q", "D"):
            assert getattr(plus, field) == getattr(minus, field)

    def test_branch_values_are_the_members(self):
        # the README quintic, D = 949637 at h = 1: the hendecagon has D = 0,
        # where both branches give the same configuration
        quintic = normalize_monic((1, 0, -110, -55, 2310, 979))
        assert BRANCHES == ("plus", "minus")
        for branch, sign in zip(BRANCHES, (1.0, -1.0)):
            cfg = build_config(quintic, branch=branch)
            assert type(cfg.branch) is str and cfg.branch == branch
            frame = balance(quintic, cfg.exponent), math.ldexp(drawn(cfg).h, -cfg.exponent)
            assert (cfg.b, cfg.D) == compute_bc(*frame, branch)[::2]
            assert compute_bc(quintic, 1.0, branch)[0] == (979.0 + sign * math.sqrt(949637.0)) / 4
        # any other value, before the constant term is looked at
        message = "branch must be 'plus' or 'minus', got 'up'"
        for quintic in (quintic, Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match=message):
                build_config(quintic, branch="up")
            with pytest.raises(ValueError, match=message):
                compute_bc(quintic, 1.0, "up")

    def test_roundtrip_both_branches(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            b, c, k, p, q, h = random_tuple(rng)
            quintic = quintic_of(b, c, k, p, q, h)
            for branch in BRANCHES:
                cfg = build_config(quintic, h_override=h, branch=branch)
                gap = coefficient_gap(config_quintic(drawn(cfg)), quintic)
                assert gap <= 1e-8

    def test_h_is_the_scale_of_the_depressed_form_route(self):
        # the classical route scales the depressed quintic d by c and builds at
        # h = 1; for a power of two c, that is the configuration at h = c on d
        # with every length divided by c, so compare needs no scale of its own
        rng = np.random.default_rng(31)
        built = 0
        for _ in range(60):
            d = _depressed_in_u(Quintic(1.0, *rng.uniform(-5.0, 5.0, size=5)))
            for c in (2.0**e for e in range(-3, 4)):
                scaled = Quintic(1.0, *(d[i] / c**i for i in range(1, 6)))
                try:
                    cfg = drawn(build_config(d, h_override=c))
                except OrigamiQuinticError as exc:
                    with pytest.raises(type(exc)):
                        drawn(build_config(scaled, h_override=1.0))
                    continue
                unit = drawn(build_config(scaled, h_override=1.0))
                # bit for bit; D is each frame's, 2^10 times larger per doubling
                assert cfg[:6] == (c, unit.b, unit.c * c, unit.k * c, unit.p * c, unit.q * c)
                doublings = round(math.log2(c)) - cfg.exponent + unit.exponent
                assert cfg.D == math.ldexp(unit.D, 10 * doublings)
                built += 1
        assert built >= 200

    def test_derived_geometry(self, hendecagon_config):
        cfg = hendecagon_config
        assert (cfg.point_q.x, cfg.point_q.y) == (0.0, 1.0)
        assert (cfg.line_m.a, cfg.line_m.b, cfg.line_m.c) == (0.0, 1.0, -1.0)
        assert (cfg.point_p.x, cfg.point_p.y) == (-2.5, -3.0)
        assert (cfg.line_l.a, cfg.line_l.b, cfg.line_l.c) == (1.0, 0.0, -1.5)
        assert (cfg.line_n.a, cfg.line_n.b, cfg.line_n.c) == (1.0, 0.0, 0.0)


def test_requires_monic():
    # a non-monic quintic cannot be built, so it never reaches build_config
    with pytest.raises(ValueError):
        Quintic(2.0, 0, 0, 0, 0, 1)


def fujiwara_exponent(q: Quintic) -> int:
    """round(log2 B) for B = 2 max(|a4|, |a3|^(1/2), |a2|^(1/3), |a1|^(1/4),
    |a0/2|^(1/5)), computed as written, and 0 when it is -2 to 2."""
    bound = 2.0 * max(abs(q.a4), abs(q.a3) ** 0.5, abs(q.a2) ** (1 / 3), abs(q.a1) ** 0.25,
                      abs(q.a0 / 2.0) ** 0.2)
    e = round(math.log2(bound))
    return 0 if abs(e) <= 2 else e


# coefficients from 1e-30 to 1e30 in magnitude, or zero; from 1e-3 to 10, or zero
WIDE_COEFFS = st.one_of(st.just(0.0), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30))
FRAME_COEFFS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


class TestFrame:
    @pytest.mark.parametrize("coeffs, e", [
        ((1.0, 1.0, -4.0, -3.0, 3.0, 1.0), 0),  # the hendecagon keeps its configuration
        ((1.0, 0.0, -110.0, -55.0, 2310.0, 979.0), 4),
        ((1.0, 0.0, 0.0, 0.0, 0.0, 1e300), 200),
        ((1.0, 0.0, 0.0, 0.0, 0.0, 1e-300), -199),
        ((1.0, 0.0, 0.0, 0.0, 0.0, -3e250), 167),
        ((1.0, 0.0, 0.0, 0.0, 0.0, 5e-324), -214),
    ])
    def test_exponent(self, coeffs, e):
        assert balance_exponent(Quintic(*coeffs)) == e

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(WIDE_COEFFS, min_size=5, max_size=5))
    def test_exponent_is_fujiwaras(self, coeffs):
        # log2 B term by term, against B as written; a tie at half an integer may
        # round either way, which random floats do not reach
        assume(coeffs[-1] != 0.0)
        quintic = Quintic(1.0, *coeffs)
        assert balance_exponent(quintic) == fujiwara_exponent(quintic)

    def test_a_bound_beyond_the_float_range_is_refused(self):
        # B = 2e308 is inf, yet e = 1024 is still found, and a0 leaves the range
        quintic = Quintic(1.0, 1e308, 0.0, 0.0, 0.0, 1.0)
        assert balance_exponent(quintic) == 1024
        with pytest.raises(InexactFrame, match=r"^coefficient a0 = 1.0 .*\(e = 1024\)$"):
            build_config(quintic)

    @pytest.mark.parametrize("a4", [-1e300, -1e200, 1e250, -1e70])
    def test_roots_at_several_scales_are_refused(self, a4):
        # the frame of the root near -a4 leaves a0 = 1 below the float range;
        # the message names a0 and e, and never claims that t = 0 is a root
        e = balance_exponent(Quintic(1.0, a4, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(InexactFrame) as info:
            build_config(Quintic(1.0, a4, 0.0, 0.0, 0.0, 1.0))
        assert str(info.value) == (f"coefficient a0 = 1.0 times 2^{-5 * e} is 0.0, not exact: "
                                   f"no frame holds this quintic (e = {e})")

    def test_a_subnormal_that_loses_bits_is_refused(self):
        quintic = Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 3.0)
        assert balance(quintic, -200)[5] == 3.0 * 2.0**1000
        with pytest.raises(InexactFrame, match="coefficient a0 = 3.0 times 2"):
            balance(quintic, 215)  # 3 * 2^-1075 rounds to 2^-1073

    def test_a_subnormal_that_rounds_up_is_refused(self):
        # a0 times 2^-2060 rounds up to 2^-1036, which times 2^2060 overflows
        quintic = Quintic(1.0, 5e123, 0.0, 0.0, 0.0, 1.7976931348623157e308)
        with pytest.raises(InexactFrame, match=r"^coefficient a0 = 1.7976931348623157e\+308 "
                                               r"times 2\^-2060 is 1.3580773062\d*e-312, "):
            build_config(quintic)

    def test_lengths_come_back_in_the_callers_frame(self):
        quintic = Quintic(1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)
        cfg = build_config(quintic)
        assert cfg.exponent == 4
        frame = build_config(balance(quintic, 4))
        assert frame.exponent == 0 and cfg == frame._replace(exponent=4)
        assert drawn(cfg) == cfg._replace(h=16.0 * cfg.h, c=16.0 * cfg.c, k=16.0 * cfg.k,
                                          p=16.0 * cfg.p, q=16.0 * cfg.q)

    def test_readme_quintic_lives_in_its_frame(self):
        # the frame's h is 1/2; the caller's is 8, and rebuilding at it is cfg again
        quintic = normalize_monic([1, 0, -110, -55, 2310, 979])
        cfg = build_config(quintic)
        assert (cfg.h, cfg.exponent, drawn(cfg).h) == (0.5, 4, 8.0)
        assert build_config(quintic, h_override=8.0) == cfg

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(WIDE_COEFFS, min_size=5, max_size=5), k=st.integers(-60, 60),
           branch=st.sampled_from(BRANCHES))
    def test_roots_larger_by_2_to_the_k_shift_the_exponent_only(self, coeffs, k, branch):
        # where the quintic with roots 2^k times larger has its frame 2^k times
        # larger, it has the same frame quintic, so the same configuration, bit
        # for bit, with k more doublings
        assume(coeffs[-1] != 0.0)
        quintic = Quintic(1.0, *coeffs)
        try:
            cfg = build_config(quintic, branch=branch)
        except OrigamiQuinticError:
            assume(False)
        scaled = Quintic(1.0, *(math.ldexp(a, i * k) for i, a in enumerate(coeffs, 1)))
        assume(balance_exponent(scaled) == cfg.exponent + k)
        assert build_config(scaled, branch=branch) == cfg._replace(exponent=cfg.exponent + k)

    @pytest.mark.parametrize("k", [-20, -3, -1, 1, 5, 20])
    def test_scaled_hendecagon_is_the_hendecagon_drawn_larger(self, hendecagon, k):
        # h chosen in each frame: the README's claim, with no h given
        scaled = Quintic(1.0, *(math.ldexp(a, i * k) for i, a in enumerate(hendecagon[1:], 1)))
        want = drawn(build_config(hendecagon)._replace(exponent=k))
        assert drawn(build_config(scaled))[:6] == want[:6]

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(FRAME_COEFFS, min_size=5, max_size=5), k=st.integers(-30, 30),
           branch=st.sampled_from(BRANCHES))
    def test_construction_commutes_with_powers_of_two(self, coeffs, k, branch):
        # the quintic with roots 2^k times larger, at 2^k times the h, is the same
        # configuration drawn 2^k times larger, bit for bit, whatever the two frames
        assume(coeffs[-1] != 0.0)
        quintic = Quintic(1.0, *coeffs)
        try:
            cfg = drawn(build_config(quintic, branch=branch))
        except OrigamiQuinticError:
            assume(False)
        scaled = Quintic(1.0, *(math.ldexp(a, i * k) for i, a in enumerate(coeffs, 1)))
        got = drawn(build_config(scaled, h_override=math.ldexp(cfg.h, k), branch=branch))
        assert got[:6] == (math.ldexp(cfg.h, k), cfg.b, *(math.ldexp(v, k) for v in cfg[2:6]))
        assert got.D == math.ldexp(cfg.D, 10 * (k + cfg.exponent - got.exponent))
