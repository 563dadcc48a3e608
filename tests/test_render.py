import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from origami_quintic import (
    EmptySolutions,
    build_config,
    render_gallery,
    render_solution,
    solve_all,
)
from origami_quintic.polynomial import Quintic
from origami_quintic.render import auto_viewport, marked_points


@pytest.fixture
def hendecagon_solutions(hendecagon, hendecagon_config):
    return solve_all(hendecagon_config, hendecagon)


def test_solution_svg_is_well_formed(hendecagon_config, hendecagon_solutions):
    doc = render_solution(hendecagon_config, hendecagon_solutions[0])
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")


def test_gallery_svg_is_well_formed(hendecagon_config, hendecagon_solutions):
    doc = render_gallery(hendecagon_config, hendecagon_solutions)
    ET.fromstring(doc)


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
    single = render_solution(hendecagon_config, hendecagon_solutions[0])
    assert single == render_solution(hendecagon_config, hendecagon_solutions[0])


def test_largest_root_panel_annotations(hendecagon_config, hendecagon_solutions):
    sol = hendecagon_solutions[-1]  # t = 2 cos(2 pi / 11) = 1.6825...
    doc = render_solution(hendecagon_config, sol)
    assert "t = 1.683" in doc
    # the Q' marker must sit at world (2t, -h) mapped through the same
    # affine the renderer uses: uniform scale, centered, y flipped
    vp = auto_viewport(marked_points(hendecagon_config, sol))
    inner_w = vp.width_px - 2 * vp.margin_px
    inner_h = vp.height_px - 2 * vp.margin_px
    scale = min(inner_w / (vp.xmax - vp.xmin), inner_h / (vp.ymax - vp.ymin))
    cx, cy = 0.5 * (vp.xmin + vp.xmax), 0.5 * (vp.ymin + vp.ymax)
    want_x = vp.width_px / 2.0 + (2 * sol.t - cx) * scale
    want_y = vp.height_px / 2.0 - (-1.0 - cy) * scale
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
    with pytest.raises(EmptySolutions):
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
