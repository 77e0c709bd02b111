"""Deterministic SVG rendering of tables held in memory as named columns.

Output is plain string-built SVG with a fixed canvas, a fixed tick
algorithm, and fixed number formatting, so identical inputs produce
byte-identical files; golden-file comparisons are safe.  A table is drawn
from the same columns its CSV is written from, and columns of numbers or of
their text give the same bytes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 70.0, 42.0, 48.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf")
# the dash attribute of each pass through the palette, so up to 21 lines
# keep distinct (colour, dash) pairs; the first seven lines are solid
DASHES = ("", ' stroke-dasharray="6,3"', ' stroke-dasharray="1.5,2.5"')
HIST_BIN_WIDTH = 0.2
_MAX = sys.float_info.max


@dataclass(frozen=True)
class PlotSpec:
    """What to draw from a table.

    kind "lines": columns `y` against column `x` on the left scale, and
    columns `y2`, when given, on a right scale.
    kind "histogram": column `value` binned at `HIST_BIN_WIDTH` over [lo, hi].
    Either kind draws one line or overlaid histogram per distinct entry of
    `group` when given.
    """

    kind: str
    x: str | None = None
    y: tuple[str, ...] = ()
    y2: tuple[str, ...] = ()
    value: str | None = None
    group: str | None = None
    lo: float | None = None
    hi: float | None = None
    title: str = ""

    def __post_init__(self):
        if self.kind not in ("lines", "histogram"):
            raise ValueError(f"unknown plot kind {self.kind!r}")
        if self.kind == "histogram":
            if self.value is None or self.lo is None or self.hi is None:
                raise ValueError("histogram plots need value, lo and hi")
            if self.hi <= self.lo:
                raise ValueError("histogram range is degenerate")
        else:
            if self.x is None or not self.y:
                raise ValueError(f"{self.kind} plots need x and at least one y column")


def _numeric(source: str, spec: PlotSpec, columns) -> dict[str, np.ndarray]:
    """The spec's numeric columns as finite float arrays, once every column
    the spec names is known to exist.  Text converts as by `float`."""
    numeric = [spec.value] if spec.kind == "histogram" else [spec.x, *spec.y, *spec.y2]
    for name in numeric + ([spec.group] if spec.group else []):
        if name not in columns:
            raise ValueError(f"{source}: missing column {name!r}")
    out = {}
    for name in numeric:
        values = np.asarray(columns[name], dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"{source}: column {name!r} has non-finite values")
        out[name] = values
    return out


def _groups(spec: PlotSpec, columns) -> list[tuple[str, np.ndarray | slice]]:
    """(group value, row selector) per distinct entry of the spec's `group`
    column, in sorted order of their text; ("", every row) without one."""
    if not spec.group:
        return [("", slice(None))]
    order, index = np.unique(np.asarray(columns[spec.group], dtype=str), return_inverse=True)
    return [(str(g), index == i) for i, g in enumerate(order)]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    # about six ticks, on steps of 1, 2 or 5 times a power of ten: the
    # multiples k * step inside [lo, hi], with a tick kept that misses an end
    # by rounding only (0.6 / 0.05 is 11.999...), and zero unsigned
    raw = (hi - lo) / 6
    mag = 10.0 ** np.floor(np.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    k = np.arange(np.ceil(lo / step - 1e-9), np.floor(hi / step + 1e-9) + 1.0)
    return [float(t) + 0.0 for t in k * step]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _px(v: float) -> str:
    return f"{v:.2f}"


def _coords(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
            f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
            f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
        ]
        if title:
            self.text(WIDTH / 2, 24, title, anchor="middle", size=15)

    def text(self, x, y, content, anchor="start", size=11):
        self.parts.append(
            f'<text x="{_px(x)}" y="{_px(y)}" font-family="monospace" font-size="{size}" '
            f'text-anchor="{anchor}" fill="#000000">{content}</text>'
        )

    def line(self, x1, y1, x2, y2, stroke="#888888", width=1.0, dash=""):
        self.parts.append(
            f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{stroke}" stroke-width="{width:g}"{dash}/>'
        )

    def polyline(self, xs: np.ndarray, ys: np.ndarray, stroke, dash=""):
        self.parts.append(
            f'<polyline points="{_coords(xs, ys)}" fill="none" stroke="{stroke}" stroke-width="1.5"{dash}/>'
        )

    def polygon(self, xs: np.ndarray, ys: np.ndarray, fill):
        self.parts.append(f'<polygon points="{_coords(xs, ys)}" fill="{fill}" fill-opacity="0.45"/>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _pad(v: float) -> float:
    """The margin drawn either side of a constant v: 1, or where v +/- 1
    rounds back to v (|v| >= 2^53), the relative 2^-50 |v|, a few ulps."""
    return 1.0 if v - 1.0 < v < v + 1.0 else abs(v) * 2.0**-50


class _Scale:
    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v):
        """Pixel position of a value, or elementwise of an array of values."""
        t = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + t * (self.px_hi - self.px_lo)


def _padded(values: np.ndarray) -> tuple[float, float]:
    """The axis range of a column: 5% of its span beyond either end, or
    `_pad` of a constant.  Near the largest double the pad shrinks and the
    ends are clamped, so the range and its span stay finite wherever the
    column's span is."""
    lo, hi = float(values.min()), float(values.max())
    pad = _pad(lo) if hi == lo else 0.05 * (hi - lo)
    pad = min(pad, (_MAX - (hi - lo)) / 4)
    return max(lo - pad, -_MAX), min(hi + pad, _MAX)


def _column_scale(source: str, names, cols, px_lo: float, px_hi: float) -> _Scale:
    """The `_padded` scale of the named columns together, from px_lo to
    px_hi; rejects columns whose span is wider than the largest double."""
    values = np.concatenate([cols[name] for name in names])
    if not np.isfinite(float(values.max()) - float(values.min())):
        what = ", ".join(map(repr, names))
        raise ValueError(f"{source}: the scale of column{'s' * (len(names) > 1)} {what} "
                         "is wider than the largest double")
    return _Scale(*_padded(values), px_lo, px_hi)


def _axes(cv: _Canvas, xs: _Scale, ys: _Scale, right: _Scale | None = None):
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    cv.line(x0, y0, x1, y0, "#000000")
    cv.line(x0, y0, x0, y1, "#000000")
    for t in _nice_ticks(xs.lo, xs.hi):
        px = xs(t)
        cv.line(px, y0, px, y0 + 4, "#000000")
        cv.text(px, y0 + 16, _fmt(t), anchor="middle")
    for t in _nice_ticks(ys.lo, ys.hi):
        py = ys(t)
        cv.line(x0 - 4, py, x0, py, "#000000")
        cv.text(x0 - 7, py + 3.5, _fmt(t), anchor="end")
    if right is not None:
        cv.line(x1, y0, x1, y1, "#000000")
        for t in _nice_ticks(right.lo, right.hi):
            py = right(t)
            cv.line(x1, py, x1 + 4, py, "#000000")
            cv.text(x1 + 7, py + 3.5, _fmt(t), anchor="start")


def _legend(cv: _Canvas, labels: list[tuple[str, str, str]]):
    """One swatch per (label, colour, dash), drawn as its line is."""
    x = MARGIN_L + 8
    y = MARGIN_T + 14
    for label, color, dash in labels:
        cv.line(x, y - 4, x + 18, y - 4, color, 2.4, dash)
        cv.text(x + 24, y, label)
        y += 15


def render_svg(csv_path: str | Path, spec: PlotSpec, out_path: str | Path, columns) -> Path:
    """Render one table into a deterministic SVG at `out_path`; returns it.

    `columns` maps the table's column names to their values; `csv_path`, the
    file the table is written to, names it in error messages.  A table with
    zero rows yields an axes-only plot.  A table lacking a column named by
    the spec is rejected with the missing column named, and so is a plotted
    column with a NaN or an infinity, or a scale whose columns span more
    than the largest double.
    """
    out_path = Path(out_path)
    render = _render_histogram if spec.kind == "histogram" else _render_lines
    out_path.write_text(render(Path(csv_path).name, spec, columns), encoding="utf-8")
    return out_path


def _render_lines(source: str, spec: PlotSpec, columns) -> str:
    cols = _numeric(source, spec, columns)
    cv = _Canvas(spec.title)
    xvals = cols[spec.x]
    if xvals.size == 0:
        xs = _Scale(0.0, 1.0, MARGIN_L, WIDTH - MARGIN_R)
        ys = _Scale(0.0, 1.0, HEIGHT - MARGIN_B, MARGIN_T)
        _axes(cv, xs, ys)
        return cv.render()

    xs = _column_scale(source, (spec.x,), cols, MARGIN_L, WIDTH - MARGIN_R)
    ys = _column_scale(source, spec.y, cols, HEIGHT - MARGIN_B, MARGIN_T)
    right = _column_scale(source, spec.y2, cols, HEIGHT - MARGIN_B, MARGIN_T) if spec.y2 else None
    _axes(cv, xs, ys, right)

    labels = []
    px = xs(xvals)
    series = [(name, ys) for name in spec.y] + [(name, right) for name in spec.y2]
    groups = _groups(spec, columns)
    for name, scale in series:
        for group, rows in groups:
            cycle, index = divmod(len(labels), len(PALETTE))
            color, dash = PALETTE[index], DASHES[cycle % len(DASHES)]
            cv.polyline(px[rows], scale(cols[name][rows]), color, dash)
            labels.append((f"{name} {spec.group} {group}" if spec.group else name, color, dash))
    _legend(cv, labels)
    cv.text(WIDTH / 2, HEIGHT - 10, spec.x, anchor="middle")
    return cv.render()


def _render_histogram(source: str, spec: PlotSpec, columns) -> str:
    values = _numeric(source, spec, columns)[spec.value]
    cv = _Canvas(spec.title)
    edges = np.arange(spec.lo, spec.hi + HIST_BIN_WIDTH * 0.5, HIST_BIN_WIDTH)
    if edges.size < 2:
        edges = np.array([spec.lo, spec.hi])

    grouped = [(group, values[rows]) for group, rows in _groups(spec, columns)]
    counts = [np.histogram(v, bins=edges)[0] if v.size else np.zeros(edges.size - 1) for _, v in grouped]
    peak = max((float(c.max()) for c in counts), default=0.0)
    xs = _Scale(float(edges[0]), float(edges[-1]), MARGIN_L, WIDTH - MARGIN_R)
    ys = _Scale(0.0, peak if peak > 0 else 1.0, HEIGHT - MARGIN_B, MARGIN_T)
    _axes(cv, xs, ys)

    # the outline runs base, (left, top) and (right, top) of every bin, base
    ex = xs(edges)
    outline_x = np.concatenate(([ex[0]], np.column_stack((ex[:-1], ex[1:])).ravel(), [ex[-1]]))
    base = ys(0.0)
    labels = []
    for idx, ((gname, _), c) in enumerate(zip(grouped, counts)):
        color = PALETTE[idx % len(PALETTE)]
        cv.polygon(outline_x, np.concatenate(([base], np.repeat(ys(c), 2), [base])), color)
        if gname:
            labels.append((gname, color, ""))
    if labels:
        _legend(cv, labels)
    cv.text(WIDTH / 2, HEIGHT - 10, spec.value, anchor="middle")
    return cv.render()
