"""Evaluation metrics and convergence/speedup accounting.

* accuracy / top-k accuracy for the classification workloads,
* perplexity for the Transformer language-model workload,
* throughput and parallel-scaling helpers (Fig. 1a),
* LSSR, the local-to-synchronous step ratio of Eqn. (4), and the derived
  communication-reduction factor,
* convergence detection (plateau of the test metric) used to decide when a
  Table-I run has finished.
"""

from repro.metrics.accuracy import accuracy, top_k_accuracy
from repro.metrics.evaluation import evaluate_model, EvalResult
from repro.metrics.lssr import LSSRTracker, lssr, communication_reduction
from repro.metrics.throughput import relative_throughput
from repro.metrics.convergence import ConvergenceDetector, better_than

__all__ = [
    "accuracy",
    "top_k_accuracy",
    "evaluate_model",
    "EvalResult",
    "LSSRTracker",
    "lssr",
    "communication_reduction",
    "relative_throughput",
    "ConvergenceDetector",
    "better_than",
]
