"""Channel-mean feature heatmaps written as binary PGM (P5) images."""

from __future__ import annotations

import numpy as np

from .engine import ShapeError, Tensor4
from .weights import write_atomic


def channel_mean(feature: Tensor4) -> np.ndarray:
    """Average a single-sample feature map over its channel dim -> (h, w)."""
    if feature.dims[0] != 1:
        raise ShapeError(f"heatmap needs a single sample, got n={feature.dims[0]}")
    return feature.data[0].mean(axis=0)


def normalize_gray(grid) -> np.ndarray:
    """Min-max scale to 0..255 (uint8); a constant grid maps to all zeros."""
    g = np.asarray(grid, dtype=np.float64)
    lo, hi = g.min(), g.max()  # NaN propagates through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("heatmap holds NaN or inf")
    if hi == lo:
        return np.zeros(g.shape, dtype=np.uint8)
    span = float(hi) - float(lo)  # a Python float overflows to inf without a warning
    if span == float("inf"):
        raise ValueError("heatmap range overflows float64")
    scale = 255.0 / span
    if scale == float("inf"):  # a subnormal span: divide by it first, as 255 / span overflows
        return np.rint((g - lo) / span * 255.0).astype(np.uint8)
    return np.rint((g - lo) * scale).astype(np.uint8)


def write_pgm(gray, path):
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise ShapeError(f"PGM payload must be 2-d, got shape {gray.shape}")
    h, w = gray.shape
    write_atomic(path, lambda fh: fh.write(f"P5\n{w} {h}\n255\n".encode("ascii")
                                           + gray.tobytes()))


def heatmap_channel_mean(feature: Tensor4, path) -> np.ndarray:
    """Write the normalized channel mean of one feature map as a PGM file;
    returns the raw (un-normalized) 2-d mean."""
    mean = channel_mean(feature)
    write_pgm(normalize_gray(mean), path)
    return mean
