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
from .geometry import Line, Point

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

_PANEL_W, _PANEL_H = 460, 360
_GAP_PX = 12  # between panels, and around them
_MARGIN_PX = 28  # the least gap between the padded box and a panel's edge


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _clip(line: Line, window: tuple[float, float, float, float]) -> tuple[Point, Point] | None:
    """Segment of an infinite line inside a world rectangle, or None."""
    xmin, xmax, ymin, ymax = window
    a, b, c = line
    n2 = a * a + b * b
    inv = 1.0 / math.sqrt(n2)
    # from the foot point, nearest the origin, along the normal turned a quarter left
    fx, fy, dx, dy = c * a / n2, c * b / n2, -b * inv, a * inv
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


def _panel(cfg: FoldConfig, sol: FoldSolution, i: int, cols: int) -> list[str]:
    """SVG lines of panel i, labeled by its letter, in a grid cols panels wide: one
    solution, drawn at the one uniform scale (y up in world space) that fits the bounding
    box of its marked points, padded 20 percent on each side, inside the margin, centred."""
    points = marked_points(cfg, sol)
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    spread = max(xmax - xmin, ymax - ymin, 1.0)
    pad_x = 0.2 * max(xmax - xmin, 0.25 * spread)
    pad_y = 0.2 * max(ymax - ymin, 0.25 * spread)
    xmin, xmax, ymin, ymax = xmin - pad_x, xmax + pad_x, ymin - pad_y, ymax + pad_y
    scale = min((_PANEL_W - 2 * _MARGIN_PX) / (xmax - xmin),
                (_PANEL_H - 2 * _MARGIN_PX) / (ymax - ymin))
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    # the world rectangle actually visible after uniform-scale centring
    half_w, half_h = _PANEL_W / 2.0 / scale, _PANEL_H / 2.0 / scale
    window = xmin, xmax, ymin, ymax = cx - half_w, cx + half_w, cy - half_h, cy + half_h

    def px(p: Point) -> tuple[float, float]:
        return _PANEL_W / 2.0 + (p.x - cx) * scale, _PANEL_H / 2.0 - (p.y - cy) * scale

    def segment(p1: Point, p2: Point, cls: str) -> str:
        (x1, y1), (x2, y2) = px(p1), px(p2)
        return (f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
                f' x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')

    def dot(p: Point, cls: str, r: float = 3.0) -> str:
        x, y = px(p)
        return f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r:g}"/>'

    def text(p: Point, label: str, dy: float = -6.0) -> str:
        x, y = px(p)
        return f'<text class="label" x="{_fmt(x + 6.0)}" y="{_fmt(y + dy)}">{label}</text>'

    x = _GAP_PX + (i % cols) * (_PANEL_W + _GAP_PX)
    y = _GAP_PX + (i // cols) * (_PANEL_H + _GAP_PX)
    parts = [f'<svg x="{x}" y="{y}" width="{_PANEL_W}" height="{_PANEL_H}" '
             f'viewBox="0 0 {_PANEL_W} {_PANEL_H}">',
             f'<rect x="0.5" y="0.5" width="{_PANEL_W - 1}" height="{_PANEL_H - 1}" '
             'style="fill:#ffffff;stroke:#cccccc"/>']
    if ymin < 0.0 < ymax:
        parts.append(segment(Point(xmin, 0.0), Point(xmax, 0.0), "axis"))
    if xmin < 0.0 < xmax:
        parts.append(segment(Point(0.0, ymin), Point(0.0, ymax), "axis"))
    for line, cls, label, label_cls in ((cfg.line_l, "construction", "ℓ", "label"),
                                        (cfg.line_m, "construction", "m", "label"),
                                        (cfg.line_n, "construction", "n", "label"),
                                        (sol.xi, "fold", "ξ", "foldlabel"),
                                        (sol.chi, "fold", "χ", "foldlabel")):
        seg = _clip(line, window)
        if seg is None:
            continue
        parts.append(segment(*seg, cls))
        # label near the end that sits higher on screen, nudged inward
        (ox, oy), (lx, ly) = px(seg[0]), px(seg[1])
        if oy < ly:
            lx, ly = ox, oy
        lx = min(max(lx + 6.0, 12.0), _PANEL_W - 16.0)
        ly = min(max(ly + 14.0, 16.0), _PANEL_H - 6.0)
        parts.append(f'<text class="{label_cls}" x="{_fmt(lx)}" y="{_fmt(ly)}">{label}</text>')
    # dashed images of the folded points
    q, q_img, p, p_img, q_mid, p_mid, t_mark, _ = points
    parts += (segment(q, q_img, "crease"), segment(p, p_img, "crease"))
    for pt, name in ((q, "Q"), (q_img, "Q′"), (p, "P"), (p_img, "P′")):
        parts += (dot(pt, "marker"), text(pt, name))
    parts += (dot(q_mid, "midmarker", 2.2), dot(p_mid, "midmarker", 2.2), dot(t_mark, "marker"),
              text(t_mark, f"t = {sol.t:.4g}", 16.0),
              f'<text class="panel" x="10" y="20">{chr(ord("a") + i)})</text>', "</svg>")
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
    total_w = cols * _PANEL_W + (cols + 1) * _GAP_PX
    total_h = rows * _PANEL_H + (rows + 1) * _GAP_PX
    body = "\n".join([line for i, sol in enumerate(sols) for line in _panel(cfg, sol, i, cols)])
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">\n'
        f"<style>{_STYLE}</style>\n"
        f"{body}\n"
        "</svg>\n"
    )
