"""Static SVG rendering of embeddings and local-model coefficients.

SVG is written by hand: no plotting dependency, byte-deterministic output
for a fixed input, and easy to assert on in tests (one ``<circle>`` per
data item).  Every piece of text taken from the caller (titles, legend
entries, category values, coefficient names) passes through one XML
escape, so names like ``a<b`` or ``x&y`` keep the file well-formed.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .errors import SlisemapError

# Categorical palette for label colouring (10 distinguishable hues).
PALETTE = ["#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
           "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd"]

# Five-stop gradient for continuous colouring.
_GRADIENT = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98),
             (253, 231, 37)]

WIDTH, HEIGHT = 640, 480
MARGIN = 48
_KMEANS_MAX_ITERS = 100


def _f(v: float) -> str:
    return f"{v:.3f}"


def gradient_color(t: float) -> str:
    """Hex colour at position t in [0, 1] of the continuous scale."""
    t = min(1.0, max(0.0, t))
    pos = t * (len(_GRADIENT) - 1)
    i = min(int(pos), len(_GRADIENT) - 2)
    frac = pos - i
    rgb = [round(a + frac * (b - a))
           for a, b in zip(_GRADIENT[i], _GRADIENT[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def kmeans(X: np.ndarray, k: int, seed: int):
    """Plain Lloyd iterations with seeded random-row initialization.

    Returns ``(centroids, assignment)``.  Empty clusters keep their
    previous centroid.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centroids = X[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=int)
    for it in range(_KMEANS_MAX_ITERS):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if it > 0 and (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(k):
            members = X[assign == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
    return centroids, assign


def _scale(values, lo_px, hi_px):
    v = np.asarray(values, dtype=float)
    vmin, vmax = v.min(), v.max()
    span = vmax - vmin
    if span == 0.0:
        span = 1.0
    return lo_px + (v - vmin) / span * (hi_px - lo_px), vmin, vmax


def scatter_svg(Z: np.ndarray, color_values=None, *, categorical: bool = False,
                title: str = "", legend_label: str = "") -> str:
    """Scatter plot of a 2-D (or wider; first two columns) embedding.

    ``color_values``: per-point numbers; rendered with the categorical
    palette when ``categorical`` else with the continuous gradient and a
    min/max legend.  Without colours all points share one hue.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] < 1:
        raise SlisemapError("embedding must be a 2-D matrix")
    z1 = Z[:, 0]
    z2 = Z[:, 1] if Z.shape[1] > 1 else np.zeros_like(z1)
    xs, x0, x1 = _scale(z1, MARGIN, WIDTH - MARGIN)
    ys, y0, y1 = _scale(z2, HEIGHT - MARGIN, MARGIN)  # y axis points up

    if color_values is None:
        colors = ["#4c72b0"] * Z.shape[0]
        legend = []
    elif categorical:
        vals = np.asarray(color_values)
        uniq = sorted(set(vals.tolist()))
        cmap = {v: PALETTE[i % len(PALETTE)] for i, v in enumerate(uniq)}
        colors = [cmap[v] for v in vals.tolist()]
        legend = [(f"{legend_label or 'label'} {v}", cmap[v]) for v in uniq]
    else:
        vals = np.asarray(color_values, dtype=float)
        vmin, vmax = float(vals.min()), float(vals.max())
        span = (vmax - vmin) or 1.0
        colors = [gradient_color((v - vmin) / span) for v in vals]
        legend = [(f"min {legend_label}: {vmin:.4g}", gradient_color(0.0)),
                  (f"max {legend_label}: {vmax:.4g}", gradient_color(1.0))]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#cccccc"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">'
                     f'{escape(title)}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="11">z1 [{x0:.3g}, {x1:.3g}]</text>')
    parts.append(f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 14 {HEIGHT // 2})">'
                 f'z2 [{y1:.3g}, {y0:.3g}]</text>')
    for x, y, c in zip(xs, ys, colors):
        parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="3" fill="{c}" '
                     f'fill-opacity="0.8"/>')
    for i, (text, color) in enumerate(legend):
        ly = MARGIN + 14 + 16 * i
        parts.append(f'<rect x="{WIDTH - MARGIN - 130}" y="{ly - 9}" '
                     f'width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 116}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(text)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def model_panels_svg(centroids: np.ndarray, counts, coef_names) -> str:
    """Small-multiples bar charts of clustered local-model coefficients.

    One panel per centroid; bars are the coefficient values, annotated with
    the member count of the cluster.
    """
    centroids = np.asarray(centroids, dtype=float)
    k, q = centroids.shape
    if len(coef_names) != q:
        raise SlisemapError(
            f"{q} coefficients but {len(coef_names)} names")
    cols = min(3, k)
    rows = (k + cols - 1) // cols
    pw, ph = 300, 180
    width, height = cols * pw + 2 * MARGIN, rows * ph + 2 * MARGIN
    vmax = max(float(np.abs(centroids).max()), 1e-12)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    bar_w = (pw - 40) / q
    for j in range(k):
        ox = MARGIN + (j % cols) * pw
        oy = MARGIN + (j // cols) * ph
        zero_y = oy + (ph - 60) / 2 + 30
        parts.append(f'<text x="{ox + pw / 2:.1f}" y="{oy + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">cluster {j} (n={counts[j]})</text>')
        parts.append(f'<line x1="{ox + 20}" y1="{_f(zero_y)}" '
                     f'x2="{ox + pw - 20}" y2="{_f(zero_y)}" '
                     f'stroke="#888888"/>')
        for c in range(q):
            v = centroids[j, c]
            h = abs(v) / vmax * (ph - 60) / 2
            x = ox + 20 + c * bar_w
            y = zero_y - h if v >= 0 else zero_y
            parts.append(f'<rect x="{_f(x)}" y="{_f(y)}" '
                         f'width="{_f(max(bar_w - 2, 1))}" height="{_f(h)}" '
                         f'fill="{PALETTE[j % len(PALETTE)]}">'
                         f'<title>{escape(coef_names[c])}: {v:.4g}'
                         f'</title></rect>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
