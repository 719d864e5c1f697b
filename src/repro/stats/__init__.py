"""Statistical instrumentation used by SelSync and the analysis figures.

* gradient-noise statistics (the batch statistic behind Δ(g), variance and
  second moment),
* Gaussian kernel density estimation for the gradient and weight
  distribution figures (Figs. 3 and 11),
* Hessian top-eigenvalue estimation by power iteration on finite-difference
  Hessian-vector products (Fig. 4).
"""

from repro.stats.variance import (
    batch_gradient_statistic,
    gradient_variance,
    gradient_second_moment,
)
from repro.stats.kde import gaussian_kde_density, distribution_summary
from repro.stats.hessian import hessian_top_eigenvalue, hessian_vector_product

__all__ = [
    "batch_gradient_statistic",
    "gradient_variance",
    "gradient_second_moment",
    "gaussian_kde_density",
    "distribution_summary",
    "hessian_top_eigenvalue",
    "hessian_vector_product",
]
