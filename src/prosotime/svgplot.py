"""Deterministic SVG rendering of spectra, heatmaps, contours and trees.

Every renderer maps equal inputs to byte-identical SVG 1.1 documents: no
timestamps, no generated ids, fixed decimal formatting throughout.  The
heatmap maps z-scored magnitude linearly onto a blue-to-red gradient whose
endpoints are fixed at rgb(0,0,255) and rgb(255,0,0); the mapping is stated
in the document's metadata.

Each `svg_<plot>_chunks` yields a document as text chunks, built as they are
consumed, so that a large plot can be streamed to disk; `svg_<plot>` joins them.

The spectrum and heatmap renderers import numpy (and the heatmap
`aems.zscore`) only when called and format their rows in batches (`_rows`);
the F0-track renderer, contour models included, and the time-tree and
quadrant renderers need only the standard library.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice
from operator import eq, ne
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

    from ._polyfit import PolyFit
    from .aems import FrequencyZone, Spectrum
    from .pitch import F0Track, PolyContourModel
    from .rhythm import QuadrantStats
    from .timetree import TimeTree

__all__ = [
    "svg_spectrum", "svg_spectrum_chunks",
    "svg_heatmap", "svg_heatmap_chunks",
    "svg_f0_track", "svg_f0_track_chunks",
    "svg_timetree", "svg_timetree_chunks",
    "svg_quadrants", "svg_quadrants_chunks",
]

_FG = "#222222"
_GRID = "#cccccc"
_ACCENT = "#0055aa"
_POLY = "#cc4400"
_ZONE = "#22884466"  # translucent band fill
_W, _H = 640.0, 360.0  # document size of every plot but the two below
_HEATMAP_H = 120.0  # the heatmap is one 640-wide row
_SQUARE = 420.0  # the quadrant scatter is square
_ROWS = 4096  # rows per formatted batch
_NODES = 128  # time-tree nodes per formatted chunk


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


# The element writers take coordinates already formatted by _fmt, so that a
# renderer formats each value once however many elements share it.  Each
# returns one whole line.


def _text(x: str, y: str, content: str, size: int = 12, anchor: str = "middle", fill: str = _FG,
          weight: str = "", transform: str = "") -> str:
    """Sans-serif text; content must already be escaped."""
    weight = f' font-weight="{weight}"' if weight else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{weight} '
            f'text-anchor="{anchor}" fill="{fill}"{transform}>{content}</text>\n')


def _line(x1: str, y1: str, x2: str, y2: str, stroke: str, width: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>\n'


def _rect(x: str, y: str, width: str, height: str, fill: str | None = None) -> str:
    """A filled rectangle, or with no fill a 1-px outline in the foreground colour."""
    paint = f'fill="{fill}"' if fill else f'fill="none" stroke="{_FG}" stroke-width="1"'
    return f'<rect x="{x}" y="{y}" width="{width}" height="{height}" {paint}/>\n'


def _circle(cx: str, cy: str, r: str, fill: str, extra: str = "") -> str:
    return f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="{fill}"{extra}/>\n'


def _head(width: float, height: float, description: str) -> str:
    """The opening tag, description and white background that start every document."""
    w, h = _fmt(width), _fmt(height)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        f"<desc>{_escape(description)}</desc>\n"
        f"{_rect('0', '0', w, h, '#ffffff')}"
    )


class _Frame:
    """Maps data coordinates into a pixel rectangle (y grows upward in data).

    An empty range (x1 <= x0, and likewise for y) is widened to one unit.  A
    range too far from zero for that to widen (|x0| >= 2**53) maps every value
    to the left (or bottom) edge.
    """

    def __init__(self, x0, x1, y0, y1, px, py, pw, ph):
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.px, self.py, self.pw, self.ph = px, py, pw, ph
        self.x_span = (x1 - x0) or math.inf
        self.y_span = (y1 - y0) or math.inf

    def x(self, v: float) -> float:
        return self.px + (v - self.x0) / self.x_span * self.pw

    def y(self, v: float) -> float:
        return self.py + self.ph - (v - self.y0) / self.y_span * self.ph


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    bottom = frame.py + frame.ph
    mid_y = _fmt(frame.py + frame.ph / 2)
    tick_y, tick_x = _fmt(bottom + 14), _fmt(frame.px - 4)
    return [
        _rect(_fmt(frame.px), _fmt(frame.py), _fmt(frame.pw), _fmt(frame.ph)),
        _text(_fmt(frame.px + frame.pw / 2), _fmt(bottom + 30), _escape(x_label)),
        _text("12", mid_y, _escape(y_label), transform=f"rotate(-90 12 {mid_y})"),
        *(_text(_fmt(frame.x(t)), tick_y, _fmt(t), 10) for t in (frame.x0, frame.x1)),
        *(_text(tick_x, _fmt(frame.y(t) + 3), _fmt(t), 10, "end") for t in (frame.y0, frame.y1)),
    ]


def _rows(row: str, n: int, columns: Callable[[int, int], tuple[np.ndarray, ...]]) -> Iterator[str]:
    """row % each of n rows, a chunk per _ROWS rows; columns(a, b) gives rows a:b, an array per % field."""
    import numpy as np

    for a in range(0, n, _ROWS):
        with np.errstate(all="ignore"):  # as with Python floats: the same rounding, inf and nan silently
            cols = np.column_stack(columns(a, min(a + _ROWS, n)))
        yield (row * len(cols)) % tuple(cols.ravel().tolist())


def _points(xs: np.ndarray, ys: np.ndarray, frame: _Frame) -> str:
    """The "x,y " pairs of a polyline through arrays of data coordinates."""
    return "".join(_rows("%.3f,%.3f ", len(xs), lambda a, b: (frame.x(xs[a:b]), frame.y(ys[a:b]))))


def _polyline(points: str, color: str, width: float = 1.5) -> str:
    """A polyline through points, "x,y " pairs (the last space is dropped)."""
    return f'<polyline points="{points[:-1]}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>\n'


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """np.linspace(lo, hi, num), num > 1, as Python floats by its operations."""
    div, delta = num - 1, hi - lo
    step = delta / div
    if step:
        return [*(k * step + lo for k in range(div)), hi]
    return [*(k / div * delta + lo for k in range(div)), hi]  # numpy's way for a step that underflows


def svg_spectrum(
    spec: Spectrum,
    fit: PolyFit | None = None,
    zones: Sequence[FrequencyZone] = (),
) -> str:
    """Spectrum magnitudes with an optional polynomial overlay and zone markers.

    Zones draw as a translucent band between their bounds plus a vertical
    line at the center; an empty zone list draws none.
    """
    return "".join(svg_spectrum_chunks(spec, fit, zones))


def svg_spectrum_chunks(spec: Spectrum, fit: PolyFit | None = None,
                        zones: Sequence[FrequencyZone] = ()) -> Iterator[str]:
    """`svg_spectrum` as text chunks."""
    import numpy as np

    frame = _Frame(*spec.freqs[[0, -1]].tolist(), 0.0, spec.magnitudes.max().item(), 50, 20, _W - 70, _H - 70)
    top, bottom, height = _fmt(frame.py), _fmt(frame.py + frame.ph), _fmt(frame.ph)
    yield _head(_W, _H, "envelope modulation spectrum")
    for z in zones:
        x_lo, x_hi = frame.x(z.lo_hz), frame.x(z.hi_hz)
        center = _fmt(frame.x(z.center_hz))
        yield _rect(_fmt(x_lo), top, _fmt(x_hi - x_lo), height, _ZONE)
        yield _line(center, top, center, bottom, "#228844", "1.5")
    yield _polyline(_points(spec.freqs, spec.magnitudes, frame), _ACCENT)
    if fit is not None and len(spec) > 1:
        xs = np.linspace(frame.x0, frame.x1, 200)  # the frequencies rise, so x1 is the last one
        yield _polyline(_points(xs, np.clip(fit.evaluate(xs), 0.0, frame.y1), frame), _POLY, 1.2)
    yield from _axes(frame, "frequency (Hz)", "magnitude")
    yield "</svg>\n"


def svg_heatmap(spec: Spectrum) -> str:
    """One-row heatmap of the z-scored spectrum on a blue-to-red scale.

    With t from 0 at the minimum z to 1 at the maximum, a cell is rgb(r,0,b), r = 255t and
    b = 255(1 - t) rounded half to even; a constant or one-bin spectrum (no z-scores) is all blue.
    """
    return "".join(svg_heatmap_chunks(spec))


def svg_heatmap_chunks(spec: Spectrum) -> Iterator[str]:
    """`svg_heatmap` as text chunks."""
    import numpy as np

    from .aems import zscore
    from .errors import DegenerateInputError

    try:
        z = zscore(spec.magnitudes)
    except DegenerateInputError:
        z = np.zeros(len(spec))
    t = np.clip((z - z.min()) / (np.ptp(z) or math.inf), 0.0, 1.0)  # all z equal: every t is 0
    px, py, pw, ph = 50.0, 16.0, _W - 70.0, _HEATMAP_H - 52.0
    cell_w = pw / len(t)
    y, width, height = _fmt(py), _fmt(cell_w), _fmt(ph)
    yield _head(_W, _HEATMAP_H, "z-scored magnitude heatmap; linear gradient from rgb(0,0,255) "
                "at min z to rgb(255,0,0) at max z")
    yield from _rows(_rect("%.3f", y, width, height, "rgb(%d,0,%d)"), len(t), lambda a, b: (
        px + np.arange(a, b) * cell_w, np.rint(255 * t[a:b]), np.rint(255 * (1.0 - t[a:b]))))
    yield _rect(_fmt(px), y, _fmt(pw), height)
    tick_y = _fmt(py + ph + 14)
    for label, xpos in zip(spec.freqs[[0, -1]].tolist(), (px, px + pw)):
        yield _text(_fmt(xpos), tick_y, _fmt(label), 10)
    yield _text(_fmt(px + pw / 2), _fmt(py + ph + 30), "frequency (Hz)")
    yield "</svg>\n"


def svg_f0_track(track: F0Track, models: Sequence[PolyContourModel] = ()) -> str:
    """Voiced F0 frames as dots with fitted polynomial contours on top."""
    return "".join(svg_f0_track_chunks(track, models))


def svg_f0_track_chunks(track: F0Track, models: Sequence[PolyContourModel] = ()) -> Iterator[str]:
    """`svg_f0_track` as text chunks, one per _ROWS frames.

    The dots are computed from the track's columns a block at a time, with
    Python floats and the operations of _Frame.x and _Frame.y.  In a block
    made mostly of runs of equal F0 values, which have equal bits, each
    value's y is formatted once.  Each model's polyline is computed with
    Python floats too, by the operations of the numpy code it replaced: 100
    times placed as np.linspace places them, valued as PolyFit.evaluate
    values them (PolyFit._at), so the bytes are those numpy gave.
    """
    from .pitch import _voiced_range

    times, f0 = track._times, track._f0
    t_lo, t_hi, v_lo, v_hi = 0.0, 1.0, 0.0, 1.0
    if voiced := _voiced_range(f0):
        t_lo, t_hi = times[0], times[-1]
        v_lo, v_hi = voiced[0] * 0.9, voiced[1] * 1.1
    frame = _Frame(t_lo, t_hi, v_lo, v_hi, 50, 20, _W - 70, _H - 70)
    px, x0, x_span, pw = frame.px, frame.x0, frame.x_span, frame.pw
    bottom, y0, y_span, ph = frame.py + frame.ph, frame.y0, frame.y_span, frame.ph
    dot, run_dot = _circle("%.3f", "%.3f", "2", _ACCENT), _circle("%.3f", "%s", "2", _ACCENT)
    yield _head(_W, _H, "F0 track with polynomial contour models")
    for a in range(0, len(f0), _ROWS):
        ts, vs = times[a:a + _ROWS], f0[a:a + _ROWS]
        if math.isnan(sum(vs)):  # an unvoiced frame: the voiced ones alone are drawn
            voiced = [*map(eq, vs, vs)]  # False at a NaN
            ts, vs = compress(ts, voiced), [*compress(vs, voiced)]
            if not vs:
                continue
        fields = [None] * (2 * len(vs))
        fields[::2] = [px + (t - x0) / x_span * pw for t in ts]  # frame.x(t), without the call
        if 2 * sum(map(ne, vs, islice(vs, 1, None))) < len(vs):  # mostly runs of equal values
            fy = {v: "%.3f" % (bottom - (v - y0) / y_span * ph) for v in set(vs)}  # frame.y(v), once a value
            fields[1::2] = map(fy.__getitem__, vs)
            yield (run_dot * len(vs)) % tuple(fields)
        else:
            fields[1::2] = [bottom - (v - y0) / y_span * ph for v in vs]
            yield (dot * len(vs)) % tuple(fields)
    for model in models:  # 100 points each, as np.linspace places them and PolyFit.evaluate values them
        lo, hi = (t_lo, t_hi) if model.domain is None else (model.domain.start_s, model.domain.end_s)
        at = model.fit._at
        pts = [(frame.x(x), frame.y(at(x - lo))) for x in _linspace(lo, hi, 100)]
        yield _polyline(("%.3f,%.3f " * len(pts)) % tuple(chain.from_iterable(pts)), _POLY, 1.8)
    yield from _axes(frame, "time (s)", "F0 (Hz)")
    yield "</svg>\n"


def svg_timetree(tree: TimeTree) -> str:
    """Node-link rendering: leaves across the bottom, marks at every node.

    Nodes are drawn in postorder; an internal node sits above the mean x of
    its children.
    """
    return "".join(svg_timetree_chunks(tree))


def svg_timetree_chunks(tree: TimeTree) -> Iterator[str]:
    """`svg_timetree` as text chunks, one per _NODES nodes in postorder.

    A chunk is one % of the templates of its nodes' shapes (a leaf, or an
    internal node of so many children, and its mark) over their fields: each
    node's x, formatted once, its label, and the y of its level and of its
    children's, each level's formatted once per chunk.  In postorder a node's
    children are the last of the nodes drawn whose parent is not yet, and it
    takes their place.
    """
    from .timetree import _order

    order, levels = _order(tree, preorder=False)
    marks, labels, offsets = tree._marks, tree.labels, tree._offsets
    depth = max(1, max(levels))  # the deepest node is a leaf
    px, py, pw, ph = 30.0, 30.0, _W - 60.0, _H - 90.0
    slot = pw / (len(labels) - labels.count(None))  # leaves, which alone have labels
    label_y, tick_y = _fmt(py + ph + 20), _fmt(py + ph + 6)
    ring = f' stroke="{_FG}" stroke-width="1"'
    leaf = _text("%s", label_y, "%s") + _line("%s", "%s", "%s", tick_y, _GRID, "1")
    edge = _line("%s", "%s", "%s", "%s", _FG, "1.2")
    templates = {}  # (children, mark) -> the node's template
    xs, fxs = [], []  # x and formatted x of each node drawn whose parent is not yet
    next_leaf = 0
    yield _head(_W, _H, "metrical time tree")
    for start in range(0, len(order), _NODES):
        block = order[start:start + _NODES]
        ys = {}  # level -> formatted y, y + 4 and the y of the level below
        for level in set(map(levels.__getitem__, block)):
            y = py + ph * (level / depth)
            ys[level] = _fmt(y), _fmt(y + 4), _fmt(py + ph * ((level + 1) / depth))
        shapes, fields = [], []
        for node in block:
            fy, fy4, kid_fy = ys[levels[node]]
            kids = offsets[node + 1] - offsets[node]
            if not kids:
                x = px + (next_leaf + 0.5) * slot
                fx = "%.3f" % x  # _fmt(x), without the call
                next_leaf += 1
                fields += (fx, _escape(labels[node]), fx, fy, fx)
            else:
                x = sum(xs[-kids:]) / kids
                fx = "%.3f" % x
                for kid_fx in fxs[-kids:]:
                    fields += (fx, fy, kid_fx, kid_fy)
                del xs[-kids:], fxs[-kids:]
            fields += (fx, fy, fx, fy4)
            xs.append(x)
            fxs.append(fx)
            shapes.append((kids, marks[node]))
        for kids, mark in set(shapes).difference(templates):
            weight = "bold" if mark in ("s", "r") else "normal"
            templates[kids, mark] = (edge * kids if kids else leaf) + _circle("%s", "%s", "8", "#ffffff", ring) \
                + _text("%s", "%s", mark, 11, weight=weight)
        yield "".join(map(templates.__getitem__, shapes)) % tuple(fields)
    yield "</svg>\n"


def svg_quadrants(stats: QuadrantStats) -> str:
    """Scatter of successive z-score pairs with quadrant counts in the corners."""
    return "".join(svg_quadrants_chunks(stats))


def svg_quadrants_chunks(stats: QuadrantStats) -> Iterator[str]:
    """`svg_quadrants` as text chunks."""
    extent = max(chain([1.0], map(abs, stats.z_i), map(abs, stats.z_next))) * 1.15
    frame = _Frame(-extent, extent, -extent, extent, 50, 20, _SQUARE - 70, _SQUARE - 70)
    colors = {"LL": "#cc4400", "SS": "#0055aa", "LS": "#228844", "SL": "#886600", "origin": "#555555"}
    yield _head(_SQUARE, _SQUARE, "duration z-score quadrant scatter")
    x0, y0 = _fmt(frame.x(0)), _fmt(frame.y(0))
    yield _line(x0, _fmt(frame.py), x0, _fmt(frame.py + frame.ph), _GRID, "1")
    yield _line(_fmt(frame.px), y0, _fmt(frame.px + frame.pw), y0, _GRID, "1")
    for a, b, quadrant in stats.rows():
        yield _circle(_fmt(frame.x(a)), _fmt(frame.y(b)), "3", colors[quadrant], ' fill-opacity="0.8"')
    corners = {
        "LL": (frame.px + frame.pw - 8, frame.py + 16, "end"),
        "SS": (frame.px + 8, frame.py + frame.ph - 8, "start"),
        "LS": (frame.px + frame.pw - 8, frame.py + frame.ph - 8, "end"),
        "SL": (frame.px + 8, frame.py + 16, "start"),
    }
    counts = stats.counts
    for name, (x, y, anchor) in corners.items():
        yield _text(_fmt(x), _fmt(y), f"{name}={counts[name]}", anchor=anchor, fill=colors[name])
    yield from _axes(frame, "z(i)", "z(i+1)")
    yield "</svg>\n"
