"""PCA projection and static SVG emission for batch outputs.

SVGs are written by hand so identical inputs give byte-identical files (no
plotting-library state, no timestamps).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateData


def pca_project(points) -> np.ndarray:
    """Project onto the top two principal components via SVD.

    Component signs are fixed (largest-magnitude loading positive) so the
    projection is deterministic.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DegenerateData("need at least 2 points", operation="cli_io.pca_project")
    centered = pts - pts.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if not np.any(svals > 1e-12 * max(1.0, svals[0] if svals.size else 0.0)):
        raise DegenerateData("input has rank 0", operation="cli_io.pca_project")
    comps = vt[:2]
    signs = np.sign(comps[np.arange(comps.shape[0]),
                          np.argmax(np.abs(comps), axis=1)])
    signs[signs == 0] = 1.0
    comps = comps * signs[:, None]
    out = centered @ comps.T
    if out.shape[1] < 2:
        out = np.concatenate([out, np.zeros((out.shape[0], 2 - out.shape[1]))], axis=1)
    return out


def _hue_color(theta: float) -> str:
    return f"hsl({int(360 * (theta % 1.0))},85%,45%)"


def _write_svg(path, width: int, height: int, title: str, body: list[str]) -> None:
    """A standalone SVG of the given body on a white background."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<desc>{title}</desc>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *body,
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def svg_scatter(points2d: np.ndarray, thetas, path, *,
                title: str = "circular coordinates") -> None:
    """Scatter of 2-D points colored by angle, 480 pixels square."""
    size, margin = 480, 30
    pts = np.asarray(points2d, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scale = (size - 2 * margin) / span.max()
    body = []
    for (x, y), th in zip(pts, thetas):
        cx = margin + (x - lo[0]) * scale
        cy = size - margin - (y - lo[1]) * scale
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" '
                    f'fill="{_hue_color(float(th))}"/>')
    _write_svg(path, size, size, title, body)


def svg_line_chart(xs, ys, path, *, title: str = "") -> None:
    """Line chart of proportion against p, 640 x 400 pixels; x ascending."""
    width, height, margin = 640, 400, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = 0.0, max(float(ys.max()), 1e-9)
    x_span = (x_hi - x_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    _write_svg(path, width, height, title, [
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">p</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">proportion</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="11" '
        f'text-anchor="end">{x_hi:g}</text>',
        f'<text x="{margin - 4}" y="{margin}" font-size="11" '
        f'text-anchor="end">{y_hi:g}</text>',
    ])
