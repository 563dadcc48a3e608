import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from origami_quintic import (
    Line,
    build_config,
    render_gallery,
    solve_all,
)
from origami_quintic.polynomial import Quintic
from origami_quintic.render import _clip, marked_points


@pytest.fixture
def hendecagon_solutions(hendecagon, hendecagon_config):
    return solve_all(hendecagon_config, hendecagon)


def test_solution_svg_is_well_formed(hendecagon_config, hendecagon_solutions):
    # one solution is drawn as a gallery of one panel
    doc = render_gallery(hendecagon_config, hendecagon_solutions[:1])
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert len(root.findall("{http://www.w3.org/2000/svg}svg")) == 1


def test_gallery_svg_is_well_formed(hendecagon_config, hendecagon_solutions):
    doc = render_gallery(hendecagon_config, hendecagon_solutions)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")


def test_every_class_is_defined(hendecagon_config, hendecagon_solutions):
    doc = render_gallery(hendecagon_config, hendecagon_solutions)
    style = re.search(r"<style>(.*?)</style>", doc, re.S).group(1)
    defined = set(re.findall(r"\.([a-z]+)\{", style))
    used = set(re.findall(r'class="([a-z]+)"', doc))
    assert used <= defined


def test_deterministic_output(hendecagon_config, hendecagon_solutions):
    first = render_gallery(hendecagon_config, hendecagon_solutions)
    second = render_gallery(hendecagon_config, hendecagon_solutions)
    assert first == second


def test_largest_root_panel_annotations(hendecagon_config, hendecagon_solutions):
    sol = hendecagon_solutions[-1]  # t = 2 cos(2 pi / 11) = 1.6825...
    doc = render_gallery(hendecagon_config, [sol])  # one 460 x 360 panel
    assert "t = 1.683" in doc
    # the Q' marker must sit at world (2t, -h) under the panel's affine map:
    # the marked points' box padded 20% a side (at least 5% of its larger
    # side), fitted uniformly inside a 28 px margin, centred, y flipped
    points = marked_points(hendecagon_config, sol)
    xs, ys = [p.x for p in points], [p.y for p in points]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    spread = max(w, h, 1.0)
    pad_x, pad_y = 0.2 * max(w, 0.25 * spread), 0.2 * max(h, 0.25 * spread)
    scale = min((460 - 56) / (w + 2 * pad_x), (360 - 56) / (h + 2 * pad_y))
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))
    want_x = 230.0 + (2 * sol.t - cx) * scale
    want_y = 180.0 - (-1.0 - cy) * scale
    circles = [
        (float(m.group(1)), float(m.group(2)))
        for m in re.finditer(r'<circle class="marker" cx="([-\d.]+)" cy="([-\d.]+)"', doc)
    ]
    gap = min(abs(x - want_x) + abs(y - want_y) for x, y in circles)
    assert gap <= 0.5


def test_gallery_panel_count(hendecagon_config, hendecagon_solutions):
    doc = render_gallery(hendecagon_config, hendecagon_solutions)
    assert doc.count("<svg x=") == 5
    assert all(f">{tag})</text>" in doc for tag in "abcde")


def test_single_solution_gallery(hendecagon_config, hendecagon_solutions):
    doc = render_gallery(hendecagon_config, hendecagon_solutions[:1])
    assert doc.count("<svg x=") == 1


def test_empty_gallery_rejected(hendecagon_config):
    with pytest.raises(ValueError, match="^gallery needs at least one solution$"):
        render_gallery(hendecagon_config, [])


def test_panel_count_matches_solver_output():
    rng = np.random.default_rng(41)
    produced = 0
    for _ in range(50):
        quintic = Quintic(1.0, *rng.uniform(-4, 4, size=5))
        if abs(quintic.a0) < 1e-6:
            continue
        cfg = build_config(quintic)
        sols = solve_all(cfg, quintic)
        doc = render_gallery(cfg, sols)
        assert doc.count("<svg x=") == len(sols)
        ET.fromstring(doc)
        produced += 1
    assert produced >= 40


def test_axis_parallel_line_outside_the_window_is_not_drawn():
    # x = 10 and y = -5 miss the unit square on the axis each runs along
    assert _clip(Line(1.0, 0.0, 10.0), (0.0, 1.0, 0.0, 1.0)) is None
    assert _clip(Line(0.0, 1.0, -5.0), (0.0, 1.0, 0.0, 1.0)) is None


def test_slanted_lines_are_clipped_from_their_foot_point():
    # x + y = 1 runs corner to corner of the unit square, and x + y = 5 misses it;
    # x - 2y = 0 crosses [-1, 1]^2 from its left side to its right
    assert _clip(Line(1.0, 1.0, 1.0), (0.0, 1.0, 0.0, 1.0)) == ((1.0, 0.0), (0.0, 1.0))
    assert _clip(Line(1.0, 1.0, 5.0), (0.0, 1.0, 0.0, 1.0)) is None
    assert _clip(Line(1.0, -2.0, 0.0), (-1.0, 1.0, -1.0, 1.0)) == ((-1.0, -0.5), (1.0, 0.5))
