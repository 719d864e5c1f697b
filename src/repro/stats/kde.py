"""Distribution density estimation for gradients and weights (Figs. 3 and 11)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Samples per evaluation block: the ``grid × samples`` kernel matrix is built
#: one ``grid × _KDE_BLOCK`` slab at a time (1.6 MB at the default 200-point
#: grid) however many gradient entries are passed in.
_KDE_BLOCK = 1024


def gaussian_kde_density(
    samples: np.ndarray,
    grid_points: int = 200,
    grid: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate of a 1-D sample.

    Returns ``(grid, density)`` with Scott's bandwidth
    ``std(ddof=1) * n ** (-1/5)``.  Degenerate samples (all identical) fall
    back to a narrow Gaussian bump centred on the value so figures never
    divide by a zero bandwidth.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("cannot estimate a density from zero samples")
    if grid is None:
        lo, hi = samples.min(), samples.max()
        if lo == hi:
            span = max(abs(lo), 1e-8)
            lo, hi = lo - 0.1 * span, hi + 0.1 * span
        pad = 0.1 * (hi - lo)
        grid = np.linspace(lo - pad, hi + pad, grid_points)
    else:
        grid = np.asarray(grid, dtype=np.float64)
    if samples.std() == 0.0 or samples.size < 2:
        center = samples.mean()
        width = max(abs(center) * 1e-3, 1e-8)
        density = np.exp(-0.5 * ((grid - center) / width) ** 2) / (width * np.sqrt(2 * np.pi))
        return grid, density
    # The floor keeps near-degenerate samples (gradients that have collapsed
    # to a handful of almost identical values late in training) away from a
    # zero bandwidth.
    bandwidth = max(samples.std(ddof=1) * samples.size ** (-0.2), 1e-12)
    density = np.zeros(grid.shape[0], dtype=np.float64)
    for start in range(0, samples.size, _KDE_BLOCK):
        z = (grid[:, None] - samples[None, start : start + _KDE_BLOCK]) / bandwidth
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        density += z.sum(axis=1)
    density /= samples.size * bandwidth * np.sqrt(2 * np.pi)
    return grid, density


def histogram_density(
    samples: np.ndarray, bins: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized histogram (bin centers, density) — a cheaper KDE stand-in."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("cannot histogram zero samples")
    density, edges = np.histogram(samples, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


@dataclass
class DistributionSummary:
    """Compact description of a weight/gradient distribution."""

    mean: float
    std: float
    min: float
    max: float
    fraction_near_zero: float
    quantiles: Dict[str, float]


def distribution_summary(samples: np.ndarray, zero_band: float = 1e-4) -> DistributionSummary:
    """Summary statistics used to compare distributions numerically.

    ``fraction_near_zero`` is the share of entries with |x| < ``zero_band`` —
    the quantity that visibly grows between epoch 1 and epoch 50 in Fig. 3.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("cannot summarize zero samples")
    q = np.quantile(samples, [0.05, 0.25, 0.5, 0.75, 0.95])
    return DistributionSummary(
        mean=float(samples.mean()),
        std=float(samples.std()),
        min=float(samples.min()),
        max=float(samples.max()),
        fraction_near_zero=float(np.mean(np.abs(samples) < zero_band)),
        quantiles={"p5": q[0], "p25": q[1], "p50": q[2], "p75": q[3], "p95": q[4]},
    )
