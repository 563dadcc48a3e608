import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_quintic import (
    CHI_EQUALS_N,
    LOW_CONFIDENCE,
    ConfigMismatch,
    IncidenceResiduals,
    OrigamiQuinticError,
    build_config,
    normalize_monic,
    FoldConfig,
    Line,
    Point,
    evaluate,
    fold_xi,
    forward_coefficients,
    real_roots,
    solve_all,
    verify,
)
from origami_quintic.foldconfig import balance
from origami_quintic.foldsolve import _config_values, _reconstruct, check_roundtrip
from origami_quintic.geometry import canonical_abc, reflect_abc, reflect_xy, triple_gap
from origami_quintic.polynomial import Quintic

from conftest import (
    HENDECAGON,
    HENDECAGON_ROOTS,
    ZeroB,
    canonical_gap,
    is_parallel_case,
    make_config,
    outcome,
    parallel_case_check,
    parallel_distance,
    reference_solve_all,
    reference_verify,
    residual_g,
    residual_grid,
)
from correctness_sets import (
    count_nearest,
    count_outcomes,
    several_scale_set,
    tiny_constant_family,
)


def tuple_config(b, c, k, p, q, h):
    cfg = make_config(h=h, b=b, c=c, k=k, p=p, q=q)
    quintic = Quintic(1.0, *forward_coefficients(b, c, k, p, q, h))
    return cfg, quintic


def chi_equals_n_tuple():
    """t = b h maps n to itself (fold perpendicular to n); engineered so that
    value is a root: reflect(P, n) must land on l."""
    h, b, c = 1.0, 1.0, 0.5
    p_pt = Point(1.0, 2.0)
    k, _ = reflect_xy(*p_pt, 1.0, b, c)
    return tuple_config(b, c, k, p_pt.x, p_pt.y, h)


def low_confidence_tuple(offset=0.0):
    """P the foot point of chi at t = 2, moved offset along chi's unit normal,
    and l through its image P', so that t = 2 is a root at which P moves by
    2 * offset.  At offset 0, P = P' lies on l (p = k)."""
    h, b, c = 1.0, 1.0, 0.5
    chi = Line(*reflect_abc(1.0, b, c, *fold_xi(2.0, h)))
    n2 = chi.a * chi.a + chi.b * chi.b
    p = chi.c * chi.a / n2 + offset * chi.a / math.sqrt(n2)
    q = chi.c * chi.b / n2 + offset * chi.b / math.sqrt(n2)
    return tuple_config(b, c, reflect_xy(p, q, *chi)[0], p, q, h)


def parallel_tuple(rng):
    """Tuple engineered so that t = -h/b satisfies the parallel-fold condition
    4h + b(k+p) + 2b(bq+c) + b^3(k-p) = 0."""
    h = rng.uniform(0.5, 2.0)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
    c = rng.uniform(-3.0, 3.0)
    q = rng.uniform(-3.0, 3.0)
    dk = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
    total = -(4.0 * h + 2.0 * b * (b * q + c) + b**3 * dk) / b
    k = (total + dk) / 2.0
    p = (total - dk) / 2.0
    return b, c, k, p, q, h


class TestChiFromXi:
    def test_hendecagon_places_p_on_l(self, hendecagon_config):
        cfg = hendecagon_config
        chi = reflect_abc(*cfg.line_n, *fold_xi(1.6825070656623622, cfg.h))
        x, _ = reflect_xy(*cfg.point_p, *chi)
        assert abs(x - cfg.k) <= 1e-9

    def test_mirror_fixing_n(self):
        # with n: x - 0.5 y = 2 the fold at t = 2 is the same line, so n maps to itself
        cfg = make_config(h=1.0, b=-0.5, c=2.0, k=-1.0, p=3.0, q=0.5)
        assert canonical_gap(fold_xi(2.0, 1.0), cfg.line_n) <= 1e-15
        chi = Line(*reflect_abc(*cfg.line_n, *fold_xi(2.0, 1.0)))
        assert canonical_gap(chi, cfg.line_n) <= 1e-12

    def test_parallel_direction_equidistance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            b, c, k, p, q, h = parallel_tuple(rng)
            cfg = make_config(h=h, b=b, c=c, k=k, p=p, q=q)
            t = -h / b
            xi = fold_xi(t, h)
            chi = Line(*reflect_abc(*cfg.line_n, *fold_xi(t, cfg.h)))
            d1 = parallel_distance(xi, cfg.line_n)
            d2 = parallel_distance(xi, chi)
            assert abs(d1 - d2) <= 1e-9


class TestResidualG:
    def test_zero_at_hendecagon_roots(self, hendecagon_config):
        for t in HENDECAGON_ROOTS:
            assert abs(residual_g(hendecagon_config, t)) <= 1e-9

    def test_large_away_from_roots(self, hendecagon_config):
        assert abs(residual_g(hendecagon_config, 0.0)) > 0.1

    def test_sign_change_across_simple_roots(self, hendecagon_config):
        step = 1e-3
        for t in HENDECAGON_ROOTS:
            left = residual_g(hendecagon_config, t - step)
            right = residual_g(hendecagon_config, t + step)
            assert left * right < 0.0

    def test_matches_reflection_composition(self):
        # against the composition written out from the parameters, not
        # through the library's geometry primitives
        rng = np.random.default_rng(32)
        for _ in range(200):
            h = rng.uniform(0.3, 3.0)
            b, c, q = rng.uniform(-3, 3, size=3)
            k = rng.uniform(-4, 4)
            p = k + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0)
            cfg = make_config(h=h, b=b, c=c, k=k, p=p, q=q)
            ts = rng.uniform(-6, 6, size=8)
            for t, composed in zip(ts, residual_grid(cfg, ts)):
                assert residual_g(cfg, float(t)) == pytest.approx(composed, abs=1e-12)


class TestVerify:
    def test_hendecagon_root_passes(self, hendecagon_config):
        residuals = verify(hendecagon_config, -1.9189859472289947)
        assert residuals.passes(1e-9)

    def test_non_root_rejected(self, hendecagon_config):
        residuals = verify(hendecagon_config, 1.0)
        assert residuals.quintic_value == pytest.approx(1.0, abs=1e-12)
        assert not residuals.passes(1e-9)

    @pytest.mark.parametrize("field", ["q_on_m", "bisect", "intersection_on_chi"])
    def test_nan_residual_fails(self, hendecagon_config, field):
        residuals = verify(hendecagon_config, -1.9189859472289947)
        residuals = residuals._replace(**{field: math.nan})
        assert math.isnan(residuals.worst_field[1])
        assert not residuals.passes(1e-9)

    def test_every_incidence_field(self, hendecagon_config):
        for t in HENDECAGON_ROOTS:
            r = verify(hendecagon_config, t)
            assert r.q_on_m <= 1e-9
            assert r.p_on_l <= 1e-9
            assert r.bisect <= 1e-9
            assert r.quintic_value <= 1e-9
            assert r.intersection_on_chi <= 1e-9
            assert r.equidistant == 0.0

    def test_overflowing_quintic_raises(self, hendecagon_config):
        # h**3 overflows while the configuration's quintic is built
        with pytest.raises(OverflowError):
            verify(hendecagon_config._replace(h=1e150), 1.0)

    def test_parallel_case_residuals(self):
        rng = np.random.default_rng(33)
        b, c, k, p, q, h = parallel_tuple(rng)
        cfg = make_config(h=h, b=b, c=c, k=k, p=p, q=q)
        t = -h / b
        residuals = verify(cfg, t)
        assert residuals.equidistant <= 1e-9
        assert residuals.intersection_on_chi == 0.0
        assert residuals.passes(1e-9)

    @pytest.mark.parametrize("t", [1e155, 1e200, 1e300])
    def test_overflowing_t_is_non_finite(self, hendecagon_config, t):
        # t*t overflows xi's c and its normal's squared length, so chi is n
        # less 0 times xi: n's normal, and a NaN c (0 * inf); the
        # parallel-case distance to it comes back NaN, in the library as in
        # the reference
        chi = Line(*reflect_abc(*hendecagon_config.line_n, *fold_xi(t, hendecagon_config.h)))
        assert chi[:2] == hendecagon_config.line_n[:2] and math.isnan(chi.c)
        residuals = verify(hendecagon_config, t)
        assert repr(residuals) == repr(reference_verify(hendecagon_config, t))
        assert math.isnan(residuals.equidistant)
        assert not residuals.passes(1e-9)

    def test_nan_chi_fails_the_residuals_read_off_it(self, hendecagon_config):
        # chi is built to align with n, so no residual measures the alignment;
        # a chi that P cannot be reflected across must still fail: n this far
        # out reflects to a finite chi across the finite xi of a hendecagon
        # root, and P's image across it overflows to -inf
        cfg = hendecagon_config._replace(c=1e308)
        fixed = _config_values(cfg, Quintic(*HENDECAGON))
        sol = _reconstruct(cfg, HENDECAGON_ROOTS[0], fixed)
        assert all(math.isfinite(v) for v in sol.chi)
        assert sol.p_image == (-math.inf, -math.inf) and sol.s == -math.inf
        assert sol.residuals.q_on_m <= 1e-9 and sol.residuals.quintic_value <= 1e-9
        for field in ("p_on_l", "intersection_on_chi"):
            assert getattr(sol.residuals, field) == math.inf
        assert not sol.residuals.passes(1e-9)
        assert not verify(cfg, HENDECAGON_ROOTS[0]).passes(1e-9)

    def test_worst_field_names_nan_first(self, hendecagon_config):
        residuals = verify(hendecagon_config, 1.0)
        name, worst = residuals.worst_field
        assert getattr(residuals, name) == worst == max(residuals._asdict().values()) > 0.1
        residuals = residuals._replace(bisect=math.nan, quintic_value=5.0)
        name, worst = residuals.worst_field
        assert name == "bisect" and math.isnan(worst)
        ties = IncidenceResiduals(0.0, 2.0, 2.0, 1.0, 0.0, 0.0)
        assert ties.worst_field == ("p_on_l", 2.0)


def test_passes_contract():
    zeros = IncidenceResiduals(*[0.0] * 6)
    assert zeros.passes(0.0) and zeros.passes(1e-9)
    assert IncidenceResiduals(*[-0.0] * 6).passes(0.0)
    for i in range(6):
        # a NaN in any field fails, whatever the others and the tol are
        assert not zeros._replace(**{zeros._fields[i]: math.nan}).passes(1e-9)
        assert not zeros._replace(**{zeros._fields[i]: math.nan}).passes(math.inf)
        # inf fails any finite tol; a value equal to tol passes, one ulp above fails
        assert not zeros._replace(**{zeros._fields[i]: math.inf}).passes(1e300)
        assert zeros._replace(**{zeros._fields[i]: 1e-9}).passes(1e-9)
        assert not zeros._replace(**{zeros._fields[i]: math.nextafter(1e-9, 1.0)}).passes(1e-9)
    assert IncidenceResiduals(1e-9, 1e-9, 0.0, 1e-9, -0.0, 1e-9).passes(1e-9)


class TestParallelCaseCheck:
    def test_engineered_tuples(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            b, c, k, p, q, h = parallel_tuple(rng)
            cfg, quintic = tuple_config(b, c, k, p, q, h)
            t = -h / b
            assert parallel_case_check(cfg, t)
            # the parallel direction is a root exactly because the closed
            # condition holds
            assert abs(evaluate(quintic, t)) <= 1e-9 * (
                1.0 + max(abs(x) for x in quintic)
            )

    def test_zero_b_rejected(self, hendecagon_config):
        with pytest.raises(ZeroB):
            parallel_case_check(hendecagon_config, 1.0)

    def test_false_off_the_direction(self):
        rng = np.random.default_rng(35)
        b, c, k, p, q, h = parallel_tuple(rng)
        cfg = make_config(h=h, b=b, c=c, k=k, p=p, q=q)
        assert parallel_case_check(cfg, -h / b + 0.5) is False

    def test_false_without_condition(self):
        cfg = make_config(h=1.0, b=1.0, c=0.0, k=1.0, p=2.0, q=3.0)
        # 4h + b(k+p) + 2b(bq+c) + b^3(k-p) = 4 + 3 + 6 - 1 = 12 != 0
        assert parallel_case_check(cfg, -1.0) is False


class TestSolveAll:
    def test_hendecagon_full_run(self, hendecagon, hendecagon_config):
        sols = solve_all(hendecagon_config, hendecagon)
        assert len(sols) == 5
        for sol, want in zip(sols, HENDECAGON_ROOTS):
            assert sol.t == pytest.approx(want, abs=1e-10)
            assert sol.residuals.passes(1e-9)
            assert not sol.parallel_case
            assert sol.diagnostics == ()

    def test_single_real_root(self):
        from origami_quintic import build_config

        quintic = Quintic(1, 0, 0, 0, 0, -1)
        cfg = build_config(quintic)
        sols = solve_all(cfg, quintic)
        assert len(sols) == 1
        assert sols[0].t == pytest.approx(1.0, abs=1e-10)
        assert sols[0].residuals.passes(1e-9)

    def test_intercepts_equal_root_oracle(self, hendecagon, hendecagon_config):
        sols = solve_all(hendecagon_config, hendecagon)
        roots = [r for r, _ in real_roots(hendecagon)]
        for sol, root in zip(sols, roots):
            assert sol.t == root
            # xi crosses the x axis at t
            assert sol.xi.a * sol.t - sol.xi.c == pytest.approx(0.0, abs=1e-9)

    def test_images_and_s(self, hendecagon, hendecagon_config):
        cfg = hendecagon_config
        for sol in solve_all(cfg, hendecagon):
            assert sol.q_image.x == pytest.approx(2 * sol.t, abs=1e-9)
            assert sol.q_image.y == pytest.approx(-cfg.h, abs=1e-9)
            assert sol.p_image.x == pytest.approx(cfg.k, abs=1e-9)
            assert sol.s == sol.p_image.y

    def test_s_satisfies_bisector_relation(self):
        # |t (k - p) - h (s - q)| / |PP'| must equal |t - b h| / sqrt(1 + b^2)
        rng = np.random.default_rng(36)
        for _ in range(50):
            h = rng.uniform(0.4, 2.5)
            b, c, q = rng.uniform(-2, 2, size=3)
            k = rng.uniform(-4, 4)
            p = k + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 4.0)
            cfg, quintic = tuple_config(b, c, k, p, q, h)
            if abs(quintic.a0) < 1e-9:
                continue
            for sol in solve_all(cfg, quintic):
                dx, dy = cfg.k - cfg.p, sol.s - cfg.q
                lhs = abs(sol.t * dx - cfg.h * dy) / math.hypot(dx, dy)
                rhs = abs(sol.t - cfg.b * cfg.h) / math.hypot(1.0, cfg.b)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_parallel_root_is_covered(self):
        rng = np.random.default_rng(37)
        b, c, k, p, q, h = parallel_tuple(rng)
        cfg, quintic = tuple_config(b, c, k, p, q, h)
        sols = solve_all(cfg, quintic)
        target = -h / b
        nearest = min(sols, key=lambda s: abs(s.t - target))
        assert nearest.t == pytest.approx(target, abs=1e-9)
        assert nearest.parallel_case
        assert nearest.residuals.equidistant <= 1e-9
        assert nearest.residuals.passes(1e-9)

    def test_chi_equals_n_diagnostic(self):
        cfg, quintic = chi_equals_n_tuple()
        h, b = cfg.h, cfg.b
        assert abs(evaluate(quintic, b * h)) <= 1e-12
        sols = solve_all(cfg, quintic)
        flagged = [s for s in sols if s.diagnostics]
        assert len(flagged) == 1
        assert flagged[0].t == pytest.approx(b * h, abs=1e-9)
        assert CHI_EQUALS_N in flagged[0].diagnostics
        assert flagged[0].residuals.passes(1e-9)

    def test_low_confidence_diagnostic(self):
        cfg, quintic = low_confidence_tuple()
        assert abs(evaluate(quintic, 2.0)) <= 1e-12
        sols = solve_all(cfg, quintic)
        at_two = min(sols, key=lambda s: abs(s.t - 2.0))
        assert at_two.t == pytest.approx(2.0, abs=1e-9)
        assert LOW_CONFIDENCE in at_two.diagnostics
        assert CHI_EQUALS_N not in at_two.diagnostics
        assert math.dist(at_two.p_image, cfg.point_p) <= 1e-12
        assert at_two.residuals.passes(1e-9)

    def test_double_root_still_verifies(self):
        from origami_quintic import build_config

        # (t - 1)^2 (t + 2) (t^2 + 1): real roots 1 (double) and -2 (simple)
        quintic = Quintic(1.0, 0.0, -2.0, 2.0, -3.0, 2.0)
        cfg = build_config(quintic)
        sols = solve_all(cfg, quintic)
        assert [(round(s.t, 9), s.multiplicity) for s in sols] == [(-2.0, 1), (1.0, 2)]
        for sol in sols:
            assert sol.residuals.passes(1e-9)

    def test_config_mismatch(self, hendecagon):
        crooked = make_config(h=1.0, b=0.0, c=0.0, k=-1.5, p=-2.5, q=-2.0)
        with pytest.raises(ConfigMismatch):
            solve_all(crooked, hendecagon)

    def test_requires_monic_source(self, hendecagon_config):
        with pytest.raises(ValueError):
            solve_all(hendecagon_config, Quintic(2, 2, -8, -6, 6, 2))


def oracle_cases():
    """(cfg, quintic) pairs: built configurations of the documented, random and
    extreme quintics, forward tuples, a third of them with a parallel root, and
    the tuples that raise the chi_equals_n and low_confidence diagnostics."""
    rng = np.random.default_rng(40)
    quintics = [HENDECAGON, (1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)]
    quintics += [(1.0, 0.0, 0.0, 0.0, 0.0, e) for e in (1e-300, 1e300, -3e250)]
    for _ in range(150):
        real = rng.uniform(-4.0, 4.0, size=rng.choice([1, 3, 5]))
        pairs = [complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)) for _ in range((5 - len(real)) // 2)]
        roots = [*real, *pairs, *(z.conjugate() for z in pairs)]
        quintics.append(tuple(float(c.real) for c in np.poly(roots)))
    cases = []
    for coeffs in quintics:
        quintic = normalize_monic(coeffs)
        cases.append((lambda q=quintic: build_config(q), quintic))
    for i in range(150):
        if i % 3 == 0:
            params = parallel_tuple(rng)
        else:
            params = (*rng.uniform(-3.0, 3.0, size=5), rng.uniform(0.3, 3.0))
        cfg, quintic = tuple_config(*(float(v) for v in params))
        cases.append((lambda cfg=cfg: cfg, quintic))
    # at offset 7.5e-10, P moves by 1.5e-9, between 1e-9 (1 + |p|) = 1.1e-9 and
    # the low-confidence threshold 1e-9 (1 + |p| + |q|) = 1.9e-9
    for cfg, quintic in (chi_equals_n_tuple(), low_confidence_tuple(),
                         low_confidence_tuple(7.5e-10)):
        cases.append((lambda cfg=cfg: cfg, quintic))
    return cases


class TestKernelOracle:
    """solve_all and verify against the reference per-root reconstruction."""

    def test_solve_all_matches_reference(self):
        parallel, flagged = 0, set()
        for make_cfg, quintic in oracle_cases():
            want = outcome(lambda: reference_solve_all(make_cfg(), quintic))
            assert outcome(lambda: solve_all(make_cfg(), quintic)) == want
            parallel += "parallel_case=True" in want
            flagged.update(d for d in (CHI_EQUALS_N, LOW_CONFIDENCE) if repr(d) in want)
        assert parallel >= 40
        # the per-configuration threshold and canonical n are read by these two
        assert flagged == {CHI_EQUALS_N, LOW_CONFIDENCE}

    def test_verify_matches_reference(self):
        rng = np.random.default_rng(41)
        for make_cfg, quintic in oracle_cases():
            try:
                cfg = make_cfg()
                sols = solve_all(cfg, quintic)
            except (OrigamiQuinticError, ValueError):
                continue
            for sol in sols:
                for t in (sol.t, sol.t + rng.normal()):
                    want = outcome(lambda: reference_verify(cfg, t))
                    assert outcome(lambda: verify(cfg, t)) == want


def test_check_roundtrip_overflow_is_mismatch():
    # h**3 overflows a float
    with pytest.raises(ConfigMismatch, match="overflows at h = 1e[+]150"):
        check_roundtrip(make_config(h=1e150, b=0.0, c=0.0, k=-1.5, p=-2.5, q=-3.0), HENDECAGON)


class TestIsParallelCase:
    def test_detects_direction(self):
        cfg = make_config(h=1.0, b=2.0, c=0.5, k=0.0, p=1.0, q=1.0)
        assert is_parallel_case(cfg, -0.5)
        assert not is_parallel_case(cfg, 0.0)

    def test_vertical_n_never_parallel(self, hendecagon_config):
        for t in (-3.0, 0.0, 2.5):
            assert not is_parallel_case(hendecagon_config, t)


def test_equivalence_of_zero_sets_small():
    # sign-scan zeros of the incidence defect against the root oracle
    # (the acceptance suite runs the full-size version)
    rng = np.random.default_rng(38)
    done = 0
    draws = 0
    while done < 20:
        draws += 1
        assert draws < 200, "too many draws rejected; zero sets likely disagree"
        h = rng.uniform(0.5, 2.0)
        b, c, q = rng.uniform(-2, 2, size=3)
        k = rng.uniform(-3, 3)
        p = k + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        cfg, quintic = tuple_config(b, c, k, p, q, h)
        if abs(quintic.a0) < 1e-6:
            continue
        roots = [r for r, _ in real_roots(quintic)]
        bound = 1.0 + max(abs(x) for x in quintic[1:])
        ts = np.linspace(-bound, bound, 20001)
        vals = np.array([residual_g(cfg, float(t)) for t in ts])
        signs = np.sign(vals)
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        if len(idx) != len(roots):
            # grid too coarse for this draw's root separation; skip honestly
            continue
        for i, want in zip(idx, roots):
            lo, hi = float(ts[i]), float(ts[i + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if residual_g(cfg, mid) * residual_g(cfg, lo) > 0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(want, abs=1e-6)
        done += 1


@pytest.mark.parametrize("coeffs, e", [
    ((1.0, 0.0, -110.0, -55.0, 2310.0, 979.0), 4),
    ((1.0, 0.0, 0.0, 0.0, 0.0, 1e300), 200),
    ((1.0, 0.0, 0.0, 0.0, 0.0, 1e-300), -199),
    ((1.0, 0.0, 0.0, 0.0, 0.0, -3e250), 167),
    # three real roots, from 1.9e-7 to 2.5e-6
    ((1.0, -3.2e-6, 1.9e-12, -3.0e-19, 1.0e-26, -1.0e-34), -17),
])
def test_roots_are_the_frames_times_2_to_the_e(coeffs, e):
    # the roots are found in the frame and handed back exactly; the residuals
    # stay the frame's, which is where verify measures them too
    quintic = normalize_monic(coeffs)
    cfg = build_config(quintic)
    assert cfg.exponent == e
    sols = solve_all(cfg, quintic)
    assert [s.t for s in sols] == [math.ldexp(t, e) for t, _ in real_roots(balance(quintic, e))]
    for sol in sols:
        assert sol.residuals.passes(1e-9)
        assert verify(cfg, sol.t) == sol.residuals


def test_correctness_set_passes_stay_at_or_above_the_baseline():
    # the first 500 draws of ROADMAP's several-scale set (472 pass, 28 ConfigMismatch)
    # and the whole tiny-constant family (19 pass, 16 ConfigMismatch, 265 NoValidH);
    # the baselines only go up
    assert count_outcomes(several_scale_set(500))["pass"] >= 472
    assert count_outcomes(tiny_constant_family())["pass"] >= 19


def test_correctness_set_roots_not_nearest_stay_at_or_below_the_baseline():
    # the roots of every solve that returns, against exact signs of the square-free
    # part: 20 of 1,115 in 19 lists on the first 500 several-scale draws (all 20,000:
    # 1,220 of 44,892 in 1,161 lists), and 1 of 19 on the tiny-constant family; the
    # baselines only go down
    assert count_nearest(several_scale_set(500)).not_nearest_roots <= 20
    assert count_nearest(tiny_constant_family()).not_nearest_roots <= 1


# Four of this quintic's five real roots lie below 1e-13 in its 2^39 frame,
# where the isolation floor 1e-13 max(1, |x|) is absolute: two floor brackets
# form and both refine to 0.0.  In the frame a3..a0 of the configuration's
# quintic round to 0.0, so it is t^5 + 0.5 t^4; it passes the 1e-8 gate, and
# t = 0 is its root, so every residual reads at most 2e-16.
@pytest.mark.xfail(strict=True, reason="roots below the absolute isolation floor "
                   "come back as 0.0 twice, and verify")
def test_roots_below_the_isolation_floor_are_found_or_refused():
    q = normalize_monic([1, 274877906944, -1, -402653184, -1, 0.00390625])
    want = [-274877906944.0, -0.03827327586067037, -3.115929295953425e-06,
            3.1134457690548645e-06, 0.03827327834782992]  # exact bisection in Fractions
    try:
        sols = solve_all(build_config(q), q)
    except OrigamiQuinticError:
        return  # refusing the quintic is right too
    got = [s.t for s in sols]
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, want))


_moderate = st.floats(-10.0, 10.0)


# _reconstruct tests chi's normal against n's by their cross product before it
# compares their canonical triples; the diagnostics must be those of the
# triple gap alone: at xi perpendicular to n (t = b h, chi = n) and nearby, where
# the gap crosses 1e-9, at xi parallel to n (t = -h / b), and at a t that is
# not finite, where chi and the residuals are NaN
@settings(max_examples=500, deadline=None)
@given(b=_moderate, c=_moderate, k=_moderate, p=_moderate, q=_moderate, h=st.floats(0.01, 10.0),
       t=st.one_of(st.floats(-100.0, 100.0), st.sampled_from((math.inf, -math.inf, math.nan))),
       kind=st.sampled_from(("free", "perpendicular", "parallel")),
       offset=st.sampled_from((0.0, 1e-12, -1e-11, 3e-10, 1e-9, -2e-9, 5e-9, 1e-8)))
def test_chi_equals_n_is_the_triple_gap_rule(b, c, k, p, q, h, t, kind, offset):
    if kind == "perpendicular":
        t = b * h + offset
    elif kind == "parallel" and b:
        t = -h / b + offset
    cfg = make_config(h=h, b=b, c=c, k=k, p=p, q=q)
    sol = _reconstruct(cfg, t, _config_values(cfg, Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
    n_canonical = canonical_abc(1.0, b, c, math.hypot(1.0, b))
    chi = canonical_abc(*sol.chi, math.hypot(sol.chi.a, sol.chi.b))
    want = (CHI_EQUALS_N,) if triple_gap(chi, n_canonical) <= 1e-9 else ()
    if math.hypot(sol.p_image.x - p, sol.p_image.y - q) <= 1e-9 * (1.0 + abs(p) + abs(q)):
        want += (LOW_CONFIDENCE,)
    assert sol.diagnostics == want
