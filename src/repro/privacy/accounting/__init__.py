"""Privacy accounting: the Theorem-4 P3GM accountant and its RDP, moments and zCDP parts."""

from repro.privacy.accounting.moments import (
    dp_em_moment_bound,
    dp_sgd_moment_bound,
    moments_epsilon,
)
from repro.privacy.accounting.p3gm_accountant import ORDERS, P3GMAccountant
from repro.privacy.accounting.rdp import (
    rdp_from_pure_dp,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_dp,
)
from repro.privacy.accounting.zcdp import zcdp_compose, zcdp_gaussian, zcdp_to_dp

__all__ = [
    "ORDERS",
    "P3GMAccountant",
    "rdp_gaussian",
    "rdp_from_pure_dp",
    "rdp_subsampled_gaussian",
    "rdp_to_dp",
    "dp_em_moment_bound",
    "dp_sgd_moment_bound",
    "moments_epsilon",
    "zcdp_gaussian",
    "zcdp_compose",
    "zcdp_to_dp",
]
