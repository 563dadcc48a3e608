"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np

from origami_quintic import (
    FoldConfig,
    Line,
    Point,
    build_config,
    compute_kpq,
    discriminant,
    forward_coefficients,
    normalize_monic,
    real_roots,
    solve_all,
    verify,
)
from origami_quintic.foldconfig import BRANCHES, drawn
from origami_quintic.geometry import reflect_xy
from origami_quintic.polynomial import Quintic, _depressed_in_u, coefficient_gap

from conftest import closed_form_kpq, parallel_case_check, residual_g, residual_grid

HENDECAGON = [1.0, 1.0, -4.0, -3.0, 3.0, 1.0]


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def spec_tuple(rng):
    """Random parameter tuple with the ranges the roundtrip suite fixes:
    h in [0.25, 4], |b| <= 3, |c|,|k|,|p|,|q| <= 5, |p - k| >= 0.1."""
    h = rng.uniform(0.25, 4.0)
    b = rng.uniform(-3.0, 3.0)
    c = rng.uniform(-5.0, 5.0)
    q = rng.uniform(-5.0, 5.0)
    k = rng.uniform(-5.0, 5.0)
    while True:
        p = rng.uniform(-5.0, 5.0)
        if abs(p - k) >= 0.1:
            break
    return b, c, k, p, q, h


def test_criterion_1_hendecagon_configuration():
    q = normalize_monic(HENDECAGON)
    build_config(q, h_override=1.0)  # warm-up
    start = time.perf_counter()
    cfg = build_config(q, h_override=1.0)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    want = {"D": 0.0, "b": 0.0, "c": 0.0, "k": -1.5, "p": -2.5, "q": -3.0}
    worst = max(abs(getattr(cfg, name) - value) for name, value in want.items())
    _report(
        1,
        "hendecagon configuration regression at h=1 within 1e-12",
        worst <= 1e-12 and elapsed_ms < 10.0,
        f"worst gap {worst:.2e}, {elapsed_ms:.2f} ms",
    )


def test_criterion_2_hendecagon_roots():
    q = normalize_monic(HENDECAGON)
    cfg = build_config(q)
    solve_all(cfg, q)  # warm-up
    start = time.perf_counter()
    sols = solve_all(cfg, q)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    expected = sorted(2.0 * math.cos(2.0 * math.pi * i / 11.0) for i in range(1, 6))
    ok = len(sols) == 5
    worst_root = max(abs(s.t - e) for s, e in zip(sols, expected)) if ok else math.inf
    worst_res = max(s.residuals.worst_field[1] for s in sols) if ok else math.inf
    _report(
        2,
        "five hendecagon roots at 2cos(2pi i/11) within 1e-10, residuals <= 1e-9",
        ok and worst_root <= 1e-10 and worst_res <= 1e-9 and elapsed_ms < 100.0,
        f"root gap {worst_root:.2e}, residual {worst_res:.2e}, {elapsed_ms:.1f} ms",
    )


def test_criterion_3_depressed_route_numbers():
    q = normalize_monic(HENDECAGON)
    _depressed_in_u(q)  # warm-up
    start = time.perf_counter()
    # the depressed quintic scaled by 5, in u = 5t + a4: exact integers, and its
    # coefficient i over 5^i is the depressed quintic in t
    u = _depressed_in_u(q)
    d_value = discriminant(u, 1.0)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    dep_want = [
        float(x)
        for x in (Fraction(-22, 5), Fraction(-11, 25), Fraction(462, 125), Fraction(979, 3125))
    ]
    dep_got = [u[i] / 5**i for i in range(2, 6)]
    dep_gap = max(abs(g - w) / abs(w) for g, w in zip(dep_got, dep_want))
    _report(
        3,
        "u quintic (1, 0, -110, -55, 2310, 979) and D=949637 exactly, u_i / 5^i (1e-14 rel)",
        u == (1.0, 0.0, -110.0, -55.0, 2310.0, 979.0)
        and d_value == 949637.0
        and dep_gap <= 1e-14
        and elapsed_ms < 10.0,
        f"u {list(u)}, D {d_value!r}, dep {dep_gap:.2e}, {elapsed_ms:.2f} ms",
    )


def test_criterion_4_roundtrip_property_suite():
    rng = np.random.default_rng(20240229)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        b, c, k, p, q, h = spec_tuple(rng)
        coeffs = forward_coefficients(b, c, k, p, q, h)
        quintic = Quintic(1.0, *coeffs)
        for branch in BRANCHES:
            cfg = drawn(build_config(quintic, h_override=h, branch=branch))
            again = forward_coefficients(cfg.b, cfg.c, cfg.k, cfg.p, cfg.q, cfg.h)
            worst = max(worst, coefficient_gap(again, coeffs))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "1000 random tuples, both branches: coefficient roundtrip error <= 1e-8",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_5_geometric_algebraic_equivalence():
    rng = np.random.default_rng(11235)
    start = time.perf_counter()
    grid_points = 400001
    done = 0
    rejected = 0
    worst_value_gap = 0.0
    while done < 200:
        assert rejected < 400, "too many rejected draws; the zero sets likely disagree"
        h = rng.uniform(0.5, 2.0)
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-4.0, 4.0)
        q = rng.uniform(-4.0, 4.0)
        k = rng.uniform(-4.0, 4.0)
        p = k + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 4.0)
        coeffs = forward_coefficients(b, c, k, p, q, h)
        quintic = Quintic(1.0, *coeffs)
        if abs(quintic.a0) < 1e-9:
            rejected += 1
            continue
        cfg = FoldConfig(h=h, b=b, c=c, k=k, p=p, q=q, branch="plus", D=0.0)
        expected = [r for r, _ in real_roots(quintic)]
        bound = 1.0 + max(abs(x) for x in coeffs)
        ts = np.linspace(-bound - 0.5, bound + 0.5, grid_points)
        step = ts[1] - ts[0]
        # a pair of roots inside one grid cell cannot be seen by any scan;
        # such draws are rejected before comparing, never patched after
        gaps = np.diff(expected)
        if len(gaps) and gaps.min() < 4.0 * step:
            rejected += 1
            continue
        vals = residual_grid(cfg, ts)
        # the vectorized formula must agree with the library defect
        for idx in rng.integers(0, grid_points, size=5):
            lib = residual_g(cfg, float(ts[idx]))
            assert abs(vals[idx] - lib) <= 1e-9 * (1.0 + abs(lib))
        signs = np.sign(vals)
        brackets = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        assert len(brackets) == len(expected), (
            f"scan found {len(brackets)} zeros, root finder {len(expected)}"
        )
        for i, want in zip(brackets, expected):
            lo, hi = float(ts[i]), float(ts[i + 1])
            glo = residual_g(cfg, lo)
            assert glo * residual_g(cfg, hi) < 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if residual_g(cfg, mid) * glo > 0.0:
                    lo = mid
                    glo = residual_g(cfg, lo)
                else:
                    hi = mid
            zero = 0.5 * (lo + hi)
            worst_value_gap = max(worst_value_gap, abs(zero - want))
        done += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        "200 random configs: incidence-defect zeros equal quintic roots within 1e-6",
        worst_value_gap <= 1e-6 and elapsed < 30.0,
        f"worst gap {worst_value_gap:.2e}, rejected {rejected}, {elapsed:.1f} s",
    )


def test_criterion_6_parallel_case_coverage():
    rng = np.random.default_rng(555)
    worst_equi = 0.0
    all_parallel = True
    all_pass = True
    for _ in range(20):
        h = rng.uniform(0.5, 2.0)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        c = rng.uniform(-3.0, 3.0)
        q = rng.uniform(-3.0, 3.0)
        dk = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        total = -(4.0 * h + 2.0 * b * (b * q + c) + b**3 * dk) / b
        k, p = (total + dk) / 2.0, (total - dk) / 2.0
        cfg = FoldConfig(h=h, b=b, c=c, k=k, p=p, q=q, branch="plus", D=0.0)
        quintic = Quintic(1.0, *forward_coefficients(b, c, k, p, q, h))
        target = -h / b
        assert parallel_case_check(cfg, target)
        sols = solve_all(cfg, quintic)
        nearest = min(sols, key=lambda s: abs(s.t - target))
        assert abs(nearest.t - target) <= 1e-9 * (1.0 + abs(target))
        all_parallel &= nearest.parallel_case
        all_pass &= nearest.residuals.passes(1e-9)
        worst_equi = max(worst_equi, nearest.residuals.equidistant)
        residuals = verify(cfg, target)
        worst_equi = max(worst_equi, residuals.equidistant)
    _report(
        6,
        "20 parallel-fold configs: t=-h/b verifies, equidistant <= 1e-9, flagged parallel",
        all_parallel and all_pass and worst_equi <= 1e-9,
        f"worst equidistant {worst_equi:.2e}",
    )


def test_criterion_7_reflection_kernel_properties():
    rng = np.random.default_rng(777)
    worst_inv = worst_iso = worst_image = 0.0
    for _ in range(1000):
        while True:
            a, b = rng.uniform(-5.0, 5.0, size=2)
            if math.hypot(a, b) >= 0.1:
                break
        mirror = Line(a, b, rng.uniform(-10.0, 10.0))
        p1 = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        p2 = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        i1 = Point(*reflect_xy(*p1, *mirror))
        i2 = Point(*reflect_xy(*p2, *mirror))
        back = Point(*reflect_xy(*i1, *mirror))
        worst_inv = max(worst_inv, math.hypot(back.x - p1.x, back.y - p1.y))
        worst_iso = max(
            worst_iso,
            abs(math.hypot(i1.x - i2.x, i1.y - i2.y) - math.hypot(p1.x - p2.x, p1.y - p2.y)),
        )
        t = rng.uniform(-10.0, 10.0)
        h = rng.uniform(0.1, 10.0)
        x, y = reflect_xy(0.0, h, *Line(t, -h, t * t))
        worst_image = max(worst_image, abs(x - 2.0 * t), abs(y + h))
    _report(
        7,
        "1000 random cases: involution, isometry, Q image identities at 1e-12",
        max(worst_inv, worst_iso, worst_image) <= 1e-12,
        f"involution {worst_inv:.2e}, isometry {worst_iso:.2e}, image {worst_image:.2e}",
    )


def test_criterion_8_k_closed_form_adjudication():
    """The closed form for k carries the quadratic coefficient with a plus
    sign.  The minus-sign variant evaluates to -9/2 on the reference
    configuration (b=c=0, h=1, quartic 1, quadratic -3) while the closed-form
    solve, an independent numpy solve of the coefficient system's rows and
    the coefficient system itself agree on -3/2; the build must side with
    the solve."""
    alpha, gamma = 1.0, -3.0
    b, c, h = 0.0, 0.0, 1.0
    minus_variant = -(17 * b * h**3 + 3 * h * h * (c + 2 * alpha) - gamma) / (
        2 * h * h * (b * b + 1)
    )
    q = normalize_monic(HENDECAGON)
    solved_k = compute_kpq(q, h, b, c)[0]
    closed_k = closed_form_kpq(alpha, q.a3, gamma, h, b, c)[0]
    # independent linear solve: the coefficient system is linear in
    # (k, p, q), so its quartic, cubic and quadratic rows give the matrix
    base = np.array(forward_coefficients(b, c, 0.0, 0.0, 0.0, h)[:3])
    units = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    matrix = np.column_stack(
        [np.array(forward_coefficients(b, c, *unit, h)[:3]) - base for unit in units]
    )
    oracle_k = float(np.linalg.solve(matrix, np.array([alpha, q.a3, gamma]) - base)[0])

    with_solved = forward_coefficients(b, c, solved_k, -2.5, -3.0, h)
    with_minus = forward_coefficients(b, c, minus_variant, -2.5, -3.0, h)
    target = (1.0, -4.0, -3.0, 3.0, 1.0)
    ok = (
        minus_variant == -4.5
        and abs(solved_k - (-1.5)) <= 1e-12
        and abs(closed_k - (-1.5)) <= 1e-12
        and abs(oracle_k - (-1.5)) <= 1e-12
        and coefficient_gap(with_solved, target) <= 1e-12
        and coefficient_gap(with_minus, target) > 0.1
    )
    _report(
        8,
        "k closed-form sign adjudication: -9/2 variant rejected, -3/2 solve confirmed",
        ok,
        f"minus variant {minus_variant}, solve {solved_k}, numpy oracle {oracle_k}",
    )
