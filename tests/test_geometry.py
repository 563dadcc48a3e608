import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from origami_quintic import Line, Point, fold_xi
from origami_quintic.geometry import reflect_abc, reflect_xy
from conftest import (
    CoincidentLines,
    CoincidentPoints,
    NotParallel,
    bisect_defect,
    bisects,
    fold_chi,
    intersect,
    line_through,
    lines_equal,
    outcome,
    parallel_distance,
    point_line_distance,
    reference_canonical_gap,
    reference_reflect_line,
    reference_reflect_point,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# every double, subnormals, zeros, infinities and NaN included
anything = st.floats()
normal_part = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


# 1e-8 to 1e8 in size, either sign
magnitude = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-8.0, 8.0)).map(
    lambda se: se[0] * 10.0 ** se[1])


def line_strategy():
    return (
        st.tuples(normal_part, normal_part, st.floats(min_value=-10.0, max_value=10.0))
        .filter(lambda abc: math.hypot(abc[0], abc[1]) >= 0.1)
        .map(lambda abc: Line(*abc))
    )


def point_strategy():
    return st.builds(Point, x=finite, y=finite)


class TestLine:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Line(0.0, 0.0, 1.0)

    def test_canonical_gap_scale_invariant(self):
        assert reference_canonical_gap(Line(1, 2, 3), Line(10, 20, 30)) <= 1e-15
        assert reference_canonical_gap(Line(1, 2, 3), Line(-1, -2, -3)) <= 1e-15


class TestFoldXi:
    def test_reference_solution_line(self):
        t = 1.6825070656623622
        line = fold_xi(t, 1.0)
        assert (line.a, line.b, line.c) == (t, -1.0, t * t)
        # x intercept at t, image of Q at (2t, -1)
        assert point_line_distance(Point(t, 0.0), line) <= 1e-15
        x, y = reflect_xy(0.0, 1.0, *line)
        assert x == pytest.approx(2 * t, abs=1e-12)
        assert y == pytest.approx(-1.0, abs=1e-12)

    def test_zero_parameter_gives_x_axis(self):
        line = fold_xi(0.0, 1.0)
        assert lines_equal(line, Line(0.0, 1.0, 0.0))

    def test_plain_substitution(self):
        assert fold_xi(1.0, 2.0) == Line(1.0, -2.0, 1.0)

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            fold_xi(1.0, 0.0)


class TestFoldChi:
    def test_reference_midpoint_and_normal(self):
        line = fold_chi(-2.5, -3.0, -1.5, -4.84)
        assert point_line_distance(Point(-2.0, -3.92), line) <= 1e-12
        assert (line.a, line.b) == pytest.approx((1.0, -1.84), abs=1e-15)

    def test_perpendicular_bisector(self):
        assert lines_equal(fold_chi(0.0, 0.0, 2.0, 0.0), Line(1.0, 0.0, 1.0))

    def test_plain_substitution(self):
        assert lines_equal(fold_chi(1.0, 2.0, 3.0, 3.0), Line(2.0, 1.0, 6.5))

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            fold_chi(1.0, 2.0, 1.0, 2.0)

    @given(
        p=finite, q=finite, k=finite, s=finite
    )
    def test_reflects_p_onto_line_x_equals_k(self, p, q, k, s):
        if abs(k - p) + abs(s - q) < 1e-3:
            return
        x, y = reflect_xy(p, q, *fold_chi(p, q, k, s))
        assert x == pytest.approx(k, abs=1e-9)
        assert y == pytest.approx(s, abs=1e-9)


class TestReflectPoint:
    @given(t=finite, h=st.floats(min_value=0.1, max_value=10.0))
    def test_q_image(self, t, h):
        x, y = reflect_xy(0.0, h, *fold_xi(t, h))
        assert x == pytest.approx(2 * t, abs=1e-12)
        assert y == pytest.approx(-h, abs=1e-12)

    @given(line=line_strategy(), u=finite)
    def test_fixed_points_on_mirror(self, line, u):
        n2 = line.a**2 + line.b**2
        base = Point(line.c * line.a / n2, line.c * line.b / n2)
        d = math.sqrt(n2)
        pt = Point(base.x - line.b / d * u, base.y + line.a / d * u)
        x, y = reflect_xy(*pt, *line)
        assert math.hypot(x - pt.x, y - pt.y) <= 1e-9 * (1 + abs(u))

    def test_hand_computed(self):
        image = reflect_xy(0.0, 0.0, 1.0, 1.0, 1.0)
        assert image == pytest.approx((1.0, 1.0), abs=1e-15)
        assert image == reference_reflect_point(Point(0.0, 0.0), Line(1.0, 1.0, 1.0))

    @given(pt=point_strategy(), line=line_strategy())
    def test_involution(self, pt, line):
        x, y = reflect_xy(*reflect_xy(*pt, *line), *line)
        assert math.hypot(x - pt.x, y - pt.y) <= 1e-12

    @given(p1=point_strategy(), p2=point_strategy(), line=line_strategy())
    def test_isometry(self, p1, p2, line):
        (x1, y1), (x2, y2) = reflect_xy(*p1, *line), reflect_xy(*p2, *line)
        before = math.hypot(p1.x - p2.x, p1.y - p2.y)
        after = math.hypot(x1 - x2, y1 - y2)
        assert after == pytest.approx(before, abs=1e-12)


def assert_near_exact_reflection(got, target, mirror):
    """The reflection of the target across the mirror, against the one in
    Fractions: a and b within 8 ulps of the target normal's length, and c
    within 8 ulps of max(|tc|, |t| |mc| / |m|), the larger of its two terms."""
    t, m = [Fraction(v) for v in target], [Fraction(v) for v in mirror]
    f = 2 * (t[0] * m[0] + t[1] * m[1]) / (m[0] * m[0] + m[1] * m[1])
    exact = [tv - f * mv for tv, mv in zip(t, m)]
    norm = math.hypot(target[0], target[1])
    c_size = max(abs(target[2]), norm * abs(mirror[2]) / math.hypot(mirror[0], mirror[1]))
    for value, want, size in zip(got, exact, (norm, norm, c_size)):
        assert abs(Fraction(value) - want) <= 8 * Fraction(math.ulp(size))


class TestReflectLine:
    def test_mirror_fixes_itself(self):
        line = Line(2.0, -1.0, 3.0)
        assert reference_canonical_gap(Line(*reflect_abc(*line, *line)), line) <= 1e-12

    def test_parallel_offset(self):
        image = Line(*reflect_abc(1, 0, 0, 1, 0, 1))
        assert lines_equal(image, Line(1, 0, 2))

    def test_hendecagon_alignment(self):
        # reflecting n across xi must give the fold that places P onto l
        chi = reflect_abc(1.0, 0.0, 0.0, *fold_xi(1.6825070656623622, 1.0))
        x, _ = reflect_xy(-2.5, -3.0, *chi)
        assert x == pytest.approx(-1.5, abs=1e-9)

    @given(target=line_strategy(), mirror=line_strategy())
    def test_involution_canonical(self, target, mirror):
        twice = Line(*reflect_abc(*reflect_abc(*target, *mirror), *mirror))
        assert reference_canonical_gap(twice, target) <= 1e-10

    @given(target=st.tuples(anything, anything, anything),
           mirror=st.tuples(anything, anything, anything))
    def test_float_form_matches_point_formula(self, target, mirror):
        # the float-level reflection against the one built on Point objects
        assume(target[:2] != (0.0, 0.0) and mirror[:2] != (0.0, 0.0))
        target, mirror = Line(*target), Line(*mirror)
        assert outcome(lambda: Line(*reflect_abc(*target, *mirror))) == outcome(
            lambda: reference_reflect_line(target, mirror))

    @given(target=st.tuples(magnitude, magnitude, magnitude),
           mirror=st.tuples(magnitude, magnitude, magnitude))
    def test_exact_oracle(self, target, mirror):
        assert_near_exact_reflection(reflect_abc(*target, *mirror), target, mirror)

    @given(a=magnitude, b=magnitude, c=st.floats(1.0, 1e30), sign=st.sampled_from((-1.0, 1.0)),
           t=magnitude, h=st.floats(2.0**-40, 2.0**-10))
    def test_exact_oracle_far_from_the_origin(self, a, b, c, sign, t, h):
        # this far out, one unit along the target can be below the ulp of
        # its points, so two points cannot give its image
        mirror = fold_xi(t, h)
        got = reflect_abc(a, b, sign * c, *mirror)
        assert_near_exact_reflection(got, (a, b, sign * c), mirror)

    @given(target=line_strategy(), mirror=line_strategy(), pt=point_strategy())
    def test_consistent_with_point_reflection(self, target, mirror, pt):
        # the image of any point of the target lies on the image line
        n2 = target.a**2 + target.b**2
        on_target = Point(
            pt.x - (target.a * pt.x + target.b * pt.y - target.c) / n2 * target.a,
            pt.y - (target.a * pt.x + target.b * pt.y - target.c) / n2 * target.b,
        )
        image_line = Line(*reflect_abc(*target, *mirror))
        image_pt = Point(*reflect_xy(*on_target, *mirror))
        assert point_line_distance(image_pt, image_line) <= 1e-9


class TestIntersect:
    def test_fold_with_vertical(self):
        cross = intersect(fold_xi(1.0, 1.0), Line(1.0, 0.0, 0.0))
        assert (cross.x, cross.y) == pytest.approx((0.0, -1.0), abs=1e-15)

    def test_axes(self):
        cross = intersect(Line(1, 0, 0), Line(0, 1, 0))
        assert (cross.x, cross.y) == (0.0, 0.0)

    def test_parallel_marker(self):
        assert intersect(Line(1, 0, 0), Line(1, 0, 1)) is None

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentLines):
            intersect(Line(1, 2, 3), Line(2, 4, 6))

    @given(l1=line_strategy(), l2=line_strategy())
    def test_point_on_both(self, l1, l2):
        try:
            cross = intersect(l1, l2)
        except CoincidentLines:
            return
        if cross is None:
            return
        scale = 1.0 + abs(cross.x) + abs(cross.y)
        assert point_line_distance(cross, l1) <= 1e-9 * scale
        assert point_line_distance(cross, l2) <= 1e-9 * scale

    def test_rational_crossing_formula_agrees_with_generic_solve(self):
        # the fold-line crossing has the closed form
        # x = (b t^2 + c h)/(b t + a h), y = -t (a t - c)/(b t + a h)
        rng = np.random.default_rng(8)
        for _ in range(200):
            t = rng.uniform(-5, 5)
            h = rng.uniform(0.2, 4)
            a, b, c = rng.uniform(-3, 3, size=3)
            denom = b * t + a * h
            if abs(a) + abs(b) < 0.1 or abs(denom) < 1e-3:
                continue
            cross = intersect(fold_xi(t, h), Line(a, b, c))
            assert cross is not None
            assert cross.x == pytest.approx((b * t * t + c * h) / denom, abs=1e-9)
            assert cross.y == pytest.approx(-t * (a * t - c) / denom, abs=1e-9)
            scale = 1.0 + abs(cross.x) + abs(cross.y)
            assert point_line_distance(cross, fold_xi(t, h)) <= 1e-12 * scale
            assert point_line_distance(cross, Line(a, b, c)) <= 1e-12 * scale


class TestParallelDistance:
    def test_vertical_pair(self):
        assert parallel_distance(Line(1, 0, 0), Line(1, 0, 3)) == pytest.approx(3.0)

    def test_rescaled_normal(self):
        assert parallel_distance(Line(2, 0, 0), Line(1, 0, 3)) == pytest.approx(3.0)

    def test_parallel_fold_distance_formula(self):
        # xi at t = -h/b is x + b y = -h/b; distance to n: x + b y = c
        # must be |h/b + c| / sqrt(1 + b^2)
        for h, b, c in ((1.0, 0.5, 2.0), (2.0, -1.5, -0.7), (0.7, 2.0, 0.0)):
            xi = fold_xi(-h / b, h)
            got = parallel_distance(xi, Line(1.0, b, c))
            assert got == pytest.approx(abs(h / b + c) / math.hypot(1.0, b), rel=1e-12)

    def test_not_parallel_rejected(self):
        with pytest.raises(NotParallel):
            parallel_distance(Line(1, 0, 0), Line(0, 1, 0))


class TestBisects:
    def test_symmetric_slopes(self):
        x_axis = Line(0.0, 1.0, 0.0)
        up = Line(1.0, -1.0, 0.0)
        down = Line(1.0, 1.0, 0.0)
        assert bisects(x_axis, up, down, tol=1e-12)

    def test_asymmetric_slopes(self):
        x_axis = Line(0.0, 1.0, 0.0)
        assert not bisects(x_axis, Line(1.0, -1.0, 0.0), Line(2.0, -1.0, 0.0), tol=1e-9)

    @given(n=line_strategy(), t=finite, h=st.floats(min_value=0.1, max_value=5.0))
    def test_reflection_always_bisects(self, n, t, h):
        xi = fold_xi(t, h)
        chi = Line(*reflect_abc(*n, *xi))
        assert bisect_defect(xi, n, chi) <= 1e-12


def test_line_through_degenerate():
    with pytest.raises(ValueError):
        line_through(Point(1.0, 2.0), Point(1.0, 2.0))
