"""``repro.privacy`` — differential-privacy mechanisms, DP-SGD, and accounting."""

from repro.privacy import accounting
from repro.privacy.clipping import clip_rows, per_example_clip, per_example_scale_factors
from repro.privacy.dp_sgd import DPSGD
from repro.privacy.mechanisms import laplace_mechanism, wishart_noise

__all__ = [
    "accounting",
    "laplace_mechanism",
    "wishart_noise",
    "clip_rows",
    "per_example_clip",
    "per_example_scale_factors",
    "DPSGD",
]
