"""SVG diagrams of a fold configuration and its solutions.

World space has a y-up axis; the y flip lives inside the affine map and
the scale is uniform so angles survive on screen.  Output is plain
SVG 1.1 text, deterministic for identical inputs, with every style class
defined inline.
"""

from __future__ import annotations

import math

from .foldconfig import FoldConfig, drawn
from .foldsolve import FoldSolution
from .geometry import Line, Point, foot_and_direction_abc

_STYLE = (
    ".axis{stroke:#999999;stroke-width:1;fill:none}"
    ".construction{stroke:#222222;stroke-width:1.4;fill:none}"
    ".fold{stroke:#cc3311;stroke-width:1.8;fill:none}"
    ".crease{stroke:#7788aa;stroke-width:1;stroke-dasharray:6 4;fill:none}"
    ".marker{fill:#111111;stroke:none}"
    ".midmarker{fill:#7788aa;stroke:none}"
    ".label{font-family:sans-serif;font-size:13px;fill:#111111}"
    ".foldlabel{font-family:sans-serif;font-size:13px;fill:#cc3311}"
    ".panel{font-family:sans-serif;font-size:15px;fill:#111111}"
)


_MARGIN_PX = 28  # the least gap between the padded box and a panel's edge


class _Mapper:
    """Uniform-scale affine world-to-pixel map (y up in world space) of one
    panel: the bounding box of the marked points, padded 20 percent on each
    side, fitted inside the margin and centred."""

    def __init__(self, points: list[Point], width_px: int, height_px: int):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        spread = max(xmax - xmin, ymax - ymin, 1.0)
        pad_x = 0.2 * max(xmax - xmin, 0.25 * spread)
        pad_y = 0.2 * max(ymax - ymin, 0.25 * spread)
        xmin, xmax, ymin, ymax = xmin - pad_x, xmax + pad_x, ymin - pad_y, ymax + pad_y
        inner_w = width_px - 2 * _MARGIN_PX
        inner_h = height_px - 2 * _MARGIN_PX
        self.scale = min(inner_w / (xmax - xmin), inner_h / (ymax - ymin))
        self.cx = 0.5 * (xmin + xmax)
        self.cy = 0.5 * (ymin + ymax)
        self.width_px, self.height_px = width_px, height_px
        self.px = width_px / 2.0
        self.py = height_px / 2.0
        # the world rectangle actually visible after uniform-scale centring
        half_w, half_h = self.px / self.scale, self.py / self.scale
        self.window = (self.cx - half_w, self.cx + half_w, self.cy - half_h, self.cy + half_h)

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (self.px + (x - self.cx) * self.scale, self.py - (y - self.cy) * self.scale)


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _clip(line: Line, window: tuple[float, float, float, float]) -> tuple[Point, Point] | None:
    """Segment of an infinite line inside a world rectangle, or None."""
    xmin, xmax, ymin, ymax = window
    fx, fy, dx, dy = foot_and_direction_abc(line.a, line.b, line.c)
    lo, hi = -math.inf, math.inf
    for pos, vel, bound_lo, bound_hi in ((fx, dx, xmin, xmax), (fy, dy, ymin, ymax)):
        if vel == 0.0:
            if pos < bound_lo or pos > bound_hi:
                return None
            continue
        t0 = (bound_lo - pos) / vel
        t1 = (bound_hi - pos) / vel
        if t0 > t1:
            t0, t1 = t1, t0
        lo, hi = max(lo, t0), min(hi, t1)
    if lo >= hi:
        return None
    return Point(fx + lo * dx, fy + lo * dy), Point(fx + hi * dx, fy + hi * dy)


def _segment(m: _Mapper, p1: Point, p2: Point, cls: str) -> str:
    x1, y1 = m.to_px(p1.x, p1.y)
    x2, y2 = m.to_px(p2.x, p2.y)
    return (
        f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
        f' x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
    )


def _infinite_line(m: _Mapper, line: Line, cls: str, label: str, label_cls: str) -> list[str]:
    seg = _clip(line, m.window)
    if seg is None:
        return []
    out = [_segment(m, seg[0], seg[1], cls)]
    # label near the end that sits higher on screen, nudged inward
    lx, ly = m.to_px(seg[1].x, seg[1].y)
    ox, oy = m.to_px(seg[0].x, seg[0].y)
    if oy < ly:
        lx, ly = ox, oy
    lx = min(max(lx + 6.0, 12.0), m.width_px - 16.0)
    ly = min(max(ly + 14.0, 16.0), m.height_px - 6.0)
    out.append(f'<text class="{label_cls}" x="{_fmt(lx)}" y="{_fmt(ly)}">{label}</text>')
    return out


def _dot(m: _Mapper, p: Point, cls: str, r: float = 3.0) -> str:
    x, y = m.to_px(p.x, p.y)
    return f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r:g}"/>'


def _text(m: _Mapper, p: Point, label: str, dy: float = -6.0) -> str:
    x, y = m.to_px(p.x, p.y)
    return f'<text class="label" x="{_fmt(x + 6.0)}" y="{_fmt(y + dy)}">{label}</text>'


def _solution_body(cfg: FoldConfig, sol: FoldSolution, m: _Mapper) -> list[str]:
    window = m.window
    parts: list[str] = []
    # axes
    if window[2] < 0.0 < window[3]:
        parts.append(_segment(m, Point(window[0], 0.0), Point(window[1], 0.0), "axis"))
    if window[0] < 0.0 < window[1]:
        parts.append(_segment(m, Point(0.0, window[2]), Point(0.0, window[3]), "axis"))
    # construction lines and folds
    parts += _infinite_line(m, cfg.line_l, "construction", "ℓ", "label")
    parts += _infinite_line(m, cfg.line_m, "construction", "m", "label")
    parts += _infinite_line(m, cfg.line_n, "construction", "n", "label")
    parts += _infinite_line(m, sol.xi, "fold", "ξ", "foldlabel")
    parts += _infinite_line(m, sol.chi, "fold", "χ", "foldlabel")
    # dashed images of the folded points
    q, q_img = cfg.point_q, sol.q_image
    p, p_img = cfg.point_p, sol.p_image
    parts.append(_segment(m, q, q_img, "crease"))
    parts.append(_segment(m, p, p_img, "crease"))
    for pt, name in ((q, "Q"), (q_img, "Q′"), (p, "P"), (p_img, "P′")):
        parts.append(_dot(m, pt, "marker"))
        parts.append(_text(m, pt, name))
    for mid in marked_points(cfg, sol)[4:6]:  # the crease midpoints
        parts.append(_dot(m, mid, "midmarker", r=2.2))
    t_mark = Point(sol.t, 0.0)
    parts.append(_dot(m, t_mark, "marker"))
    parts.append(_text(m, t_mark, f"t = {sol.t:.4g}", dy=16.0))
    return parts


def marked_points(cfg: FoldConfig, sol: FoldSolution) -> list[Point]:
    q, p = cfg.point_q, cfg.point_p
    return [
        q,
        sol.q_image,
        p,
        sol.p_image,
        Point(0.5 * (q.x + sol.q_image.x), 0.5 * (q.y + sol.q_image.y)),
        Point(0.5 * (p.x + sol.p_image.x), 0.5 * (p.y + sol.p_image.y)),
        Point(sol.t, 0.0),
        Point(0.0, 0.0),
    ]


def render_gallery(cfg: FoldConfig, sols: list[FoldSolution]) -> str:
    """Grid of panels, one per solution, labeled a), b), ... in root order; ValueError if none."""
    if not sols:
        raise ValueError("gallery needs at least one solution")
    cfg = drawn(cfg)  # in the caller's lengths, as the solutions are
    cols = 1 if len(sols) == 1 else 2
    rows = (len(sols) + cols - 1) // cols
    pw, ph = 460, 360
    gap = 12
    total_w = cols * pw + (cols + 1) * gap
    total_h = rows * ph + (rows + 1) * gap
    panels = []
    for i, sol in enumerate(sols):
        m = _Mapper(marked_points(cfg, sol), pw, ph)
        x = gap + (i % cols) * (pw + gap)
        y = gap + (i // cols) * (ph + gap)
        inner = "\n".join(_solution_body(cfg, sol, m))
        tag = chr(ord("a") + i)
        panels.append(
            f'<svg x="{x}" y="{y}" width="{pw}" height="{ph}" '
            f'viewBox="0 0 {pw} {ph}">\n'
            f'<rect x="0.5" y="0.5" width="{pw - 1}" height="{ph - 1}" '
            'style="fill:#ffffff;stroke:#cccccc"/>\n'
            f"{inner}\n"
            f'<text class="panel" x="10" y="20">{tag})</text>\n'
            "</svg>"
        )
    body = "\n".join(panels)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">\n'
        f"<style>{_STYLE}</style>\n"
        f"{body}\n"
        "</svg>\n"
    )
