"""Deterministic SVG rendering of spectra, heatmaps, contours and trees.

Every renderer maps equal inputs to byte-identical SVG 1.1 documents: no
timestamps, no generated ids, fixed decimal formatting throughout.  The
heatmap maps z-scored magnitude linearly onto a blue-to-red gradient whose
endpoints are fixed at rgb(0,0,255) and rgb(255,0,0); the mapping is stated
in the document's metadata.

The spectrum, heatmap and F0-track renderers import numpy (and the heatmap
`aems.zscore`) only when called; the time-tree and quadrant renderers need
only the standard library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .aems import FrequencyZone, PolyFit, Spectrum
    from .pitch import F0Track, PolyContourModel
    from .rhythm import QuadrantStats
    from .timetree import TimeTree

__all__ = [
    "svg_spectrum",
    "svg_heatmap",
    "svg_f0_track",
    "svg_timetree",
    "svg_quadrants",
]

_FG = "#222222"
_GRID = "#cccccc"
_ACCENT = "#0055aa"
_POLY = "#cc4400"
_ZONE = "#22884466"  # translucent band fill
_W, _H = 640.0, 360.0  # document size of every plot but the two below
_HEATMAP_H = 120.0  # the heatmap is one 640-wide row
_SQUARE = 420.0  # the quadrant scatter is square


def _fmt(x: float) -> str:
    return f"{float(x):.3f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _document(width: float, height: float, body: list[str], description: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f"<desc>{_escape(description)}</desc>\n"
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


class _Frame:
    """Maps data coordinates into a pixel rectangle (y grows upward in data)."""

    def __init__(self, x0, x1, y0, y1, px, py, pw, ph):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.px, self.py, self.pw, self.ph = px, py, pw, ph

    def x(self, v: float) -> float:
        span = self.x1 - self.x0
        t = 0.0 if span == 0 else (v - self.x0) / span
        return self.px + t * self.pw

    def y(self, v: float) -> float:
        span = self.y1 - self.y0
        t = 0.0 if span == 0 else (v - self.y0) / span
        return self.py + self.ph - t * self.ph


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{_fmt(frame.px)}" y="{_fmt(frame.py)}" width="{_fmt(frame.pw)}" '
        f'height="{_fmt(frame.ph)}" fill="none" stroke="{_FG}" stroke-width="1"/>',
        f'<text x="{_fmt(frame.px + frame.pw / 2)}" y="{_fmt(frame.py + frame.ph + 30)}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle" fill="{_FG}">'
        f"{_escape(x_label)}</text>",
        f'<text x="12" y="{_fmt(frame.py + frame.ph / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" fill="{_FG}" '
        f'transform="rotate(-90 12 {_fmt(frame.py + frame.ph / 2)})">{_escape(y_label)}</text>',
    ]
    for t in (frame.x0, frame.x1):
        parts.append(
            f'<text x="{_fmt(frame.x(t))}" y="{_fmt(frame.py + frame.ph + 14)}" '
            f'font-family="sans-serif" font-size="10" text-anchor="middle" fill="{_FG}">'
            f"{_fmt(t)}</text>"
        )
    for t in (frame.y0, frame.y1):
        parts.append(
            f'<text x="{_fmt(frame.px - 4)}" y="{_fmt(frame.y(t) + 3)}" '
            f'font-family="sans-serif" font-size="10" text-anchor="end" fill="{_FG}">'
            f"{_fmt(t)}</text>"
        )
    return parts


def _polyline(xs: Iterable[float], ys: Iterable[float], frame: _Frame, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>'


def svg_spectrum(
    spec: Spectrum,
    fit: PolyFit | None = None,
    zones: Sequence[FrequencyZone] = (),
) -> str:
    """Spectrum magnitudes with an optional polynomial overlay and zone markers.

    Zones draw as a translucent band between their bounds plus a vertical
    line at the center; an empty zone list draws none.
    """
    import numpy as np

    freqs = spec.freqs
    mags = spec.magnitudes
    top = float(np.max(mags)) if len(mags) else 1.0
    frame = _Frame(float(freqs[0]), float(freqs[-1]) if len(freqs) > 1 else float(freqs[0]) + 1.0,
                   0.0, top if top > 0 else 1.0, 50, 20, _W - 70, _H - 70)
    body: list[str] = []
    for z in zones:
        x_lo, x_hi = frame.x(z.lo_hz), frame.x(z.hi_hz)
        body.append(
            f'<rect x="{_fmt(x_lo)}" y="{_fmt(frame.py)}" width="{_fmt(x_hi - x_lo)}" '
            f'height="{_fmt(frame.ph)}" fill="{_ZONE}"/>'
        )
        body.append(
            f'<line x1="{_fmt(frame.x(z.center_hz))}" y1="{_fmt(frame.py)}" '
            f'x2="{_fmt(frame.x(z.center_hz))}" y2="{_fmt(frame.py + frame.ph)}" '
            f'stroke="#228844" stroke-width="1.5"/>'
        )
    body.append(_polyline(freqs, mags, frame, _ACCENT))
    if fit is not None and len(freqs) > 1:
        xs = np.linspace(freqs[0], freqs[-1], 200)
        ys = np.clip(fit.evaluate(xs), 0.0, top if top > 0 else 1.0)
        body.append(_polyline(xs, ys, frame, _POLY, 1.2))
    body.extend(_axes(frame, "frequency (Hz)", "magnitude"))
    return _document(_W, _H, body, "envelope modulation spectrum")


def _blue_red(t: float) -> str:
    """Linear blue-to-red gradient; t = 0 is rgb(0,0,255), t = 1 is rgb(255,0,0)."""
    t = min(max(t, 0.0), 1.0)
    r = round(255 * t)
    b = round(255 * (1.0 - t))
    return f"rgb({r},0,{b})"


def svg_heatmap(spec: Spectrum) -> str:
    """One-row heatmap of the z-scored spectrum on a blue-to-red scale.

    The minimum z maps to pure blue, the maximum to pure red, linearly in
    between; a constant spectrum (zero span) renders entirely blue.
    """
    import numpy as np

    from .aems import zscore

    mags = np.asarray(spec.magnitudes, dtype=np.float64)
    degenerate = len(mags) < 2 or float(np.std(mags, ddof=1)) == 0.0
    z = np.zeros(len(mags)) if degenerate else zscore(mags)
    z_min, z_max = (float(np.min(z)), float(np.max(z))) if len(z) else (0.0, 0.0)
    span = z_max - z_min
    freqs = spec.freqs
    px, py, pw, ph = 50.0, 16.0, _W - 70.0, _HEATMAP_H - 52.0
    cell_w = pw / max(1, len(z))
    body: list[str] = []
    for k, zv in enumerate(z):
        t = 0.0 if span == 0 else (float(zv) - z_min) / span
        body.append(
            f'<rect x="{_fmt(px + k * cell_w)}" y="{_fmt(py)}" width="{_fmt(cell_w)}" '
            f'height="{_fmt(ph)}" fill="{_blue_red(t)}"/>'
        )
    body.append(
        f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        f'fill="none" stroke="{_FG}" stroke-width="1"/>'
    )
    for label, xpos in ((freqs[0], px), (freqs[-1], px + pw)) if len(freqs) else ():
        body.append(
            f'<text x="{_fmt(xpos)}" y="{_fmt(py + ph + 14)}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle" fill="{_FG}">{_fmt(label)}</text>'
        )
    body.append(
        f'<text x="{_fmt(px + pw / 2)}" y="{_fmt(py + ph + 30)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" fill="{_FG}">frequency (Hz)</text>'
    )
    desc = (
        "z-scored magnitude heatmap; linear gradient from rgb(0,0,255) at min z "
        "to rgb(255,0,0) at max z"
    )
    return _document(_W, _HEATMAP_H, body, desc)


def svg_f0_track(track: F0Track, models: Sequence[PolyContourModel] = ()) -> str:
    """Voiced F0 frames as dots with fitted polynomial contours on top."""
    import numpy as np

    ts, vs = track.voiced_frames()
    if len(ts):
        t_lo, t_hi = float(track.times_s[0]), float(track.times_s[-1])
        v_lo, v_hi = float(np.min(vs)) * 0.9, float(np.max(vs)) * 1.1
    else:
        t_lo, t_hi, v_lo, v_hi = 0.0, 1.0, 0.0, 1.0
    frame = _Frame(t_lo, t_hi if t_hi > t_lo else t_lo + 1.0, v_lo, v_hi if v_hi > v_lo else v_lo + 1.0,
                   50, 20, _W - 70, _H - 70)
    body = [
        f'<circle cx="{_fmt(frame.x(t))}" cy="{_fmt(frame.y(v))}" r="2" fill="{_ACCENT}"/>'
        for t, v in zip(ts, vs)
    ]
    for model in models:
        if model.domain is not None:
            lo, hi = model.domain.start_s, model.domain.end_s
            origin = model.domain.start_s
        else:
            lo, hi, origin = t_lo, t_hi, t_lo
        xs = np.linspace(lo, hi, 100)
        ys = model.fit.evaluate(xs - origin)
        body.append(_polyline(xs, ys, frame, _POLY, 1.8))
    body.extend(_axes(frame, "time (s)", "F0 (Hz)"))
    return _document(_W, _H, body, "F0 track with polynomial contour models")


def svg_timetree(tree: TimeTree) -> str:
    """Node-link rendering: leaves across the bottom, marks at every node.

    Nodes are drawn in postorder; an internal node sits above the mean x of
    its children.
    """
    leaf_levels = [level for node, level, entering in tree.walk() if entering and node.is_leaf]
    depth = max(1, max(leaf_levels))
    px, py, pw, ph = 30.0, 30.0, _W - 60.0, _H - 90.0
    slot = pw / len(leaf_levels)

    body: list[str] = []
    child_xs: list[list[float]] = [[]]  # x of the finished children of each open node
    next_leaf = 0
    for node, level, entering in tree.walk():
        if entering:
            child_xs.append([])
            continue
        xs = child_xs.pop()
        y = py + ph * (level / depth)
        if node.is_leaf:
            x = px + (next_leaf + 0.5) * slot
            next_leaf += 1
            body.append(
                f'<text x="{_fmt(x)}" y="{_fmt(py + ph + 20)}" font-family="sans-serif" '
                f'font-size="12" text-anchor="middle" fill="{_FG}">{_escape(node.label or "")}</text>'
            )
            body.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(x)}" y2="{_fmt(py + ph + 6)}" '
                f'stroke="{_GRID}" stroke-width="1"/>'
            )
        else:
            x = sum(xs) / len(xs)
            child_y = py + ph * ((level + 1) / depth)
            for cx in xs:
                body.append(
                    f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(cx)}" y2="{_fmt(child_y)}" '
                    f'stroke="{_FG}" stroke-width="1.2"/>'
                )
        weight = "bold" if node.mark in ("s", "r") else "normal"
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="8" fill="#ffffff" stroke="{_FG}" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4)}" font-family="sans-serif" font-size="11" '
            f'font-weight="{weight}" text-anchor="middle" fill="{_FG}">{_escape(node.mark)}</text>'
        )
        child_xs[-1].append(x)

    return _document(_W, _H, body, "metrical time tree")


def svg_quadrants(stats: QuadrantStats) -> str:
    """Scatter of successive z-score pairs with quadrant counts in the corners."""
    pts = stats.points
    extent = max([1.0] + [max(abs(a), abs(b)) for a, b in pts]) * 1.15
    frame = _Frame(-extent, extent, -extent, extent, 50, 20, _SQUARE - 70, _SQUARE - 70)
    body = [
        f'<line x1="{_fmt(frame.x(0))}" y1="{_fmt(frame.py)}" x2="{_fmt(frame.x(0))}" '
        f'y2="{_fmt(frame.py + frame.ph)}" stroke="{_GRID}" stroke-width="1"/>',
        f'<line x1="{_fmt(frame.px)}" y1="{_fmt(frame.y(0))}" x2="{_fmt(frame.px + frame.pw)}" '
        f'y2="{_fmt(frame.y(0))}" stroke="{_GRID}" stroke-width="1"/>',
    ]
    colors = {"LL": "#cc4400", "SS": "#0055aa", "LS": "#228844", "SL": "#886600", "origin": "#555555"}
    for (a, b), quadrant in zip(pts, stats.quadrants):
        body.append(
            f'<circle cx="{_fmt(frame.x(a))}" cy="{_fmt(frame.y(b))}" r="3" '
            f'fill="{colors[quadrant]}" fill-opacity="0.8"/>'
        )
    corners = {
        "LL": (frame.px + frame.pw - 8, frame.py + 16, "end"),
        "SS": (frame.px + 8, frame.py + frame.ph - 8, "start"),
        "LS": (frame.px + frame.pw - 8, frame.py + frame.ph - 8, "end"),
        "SL": (frame.px + 8, frame.py + 16, "start"),
    }
    counts = stats.counts
    for name, (x, y, anchor) in corners.items():
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="12" '
            f'text-anchor="{anchor}" fill="{colors[name]}">{name}={counts[name]}</text>'
        )
    body.extend(_axes(frame, "z(i)", "z(i+1)"))
    return _document(_SQUARE, _SQUARE, body, "duration z-score quadrant scatter")
