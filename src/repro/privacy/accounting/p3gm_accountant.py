"""The privacy accountant of the P3GM pipeline (paper Theorem 4).

P3GM consumes privacy in three places: DP-PCA (pure ``epsilon_p``-DP via the
Wishart mechanism), ``T_e`` iterations of DP-EM, and ``T_s`` steps of DP-SGD.
Theorem 4 composes them under RDP:

``eps <= 2 alpha eps_p^2 + T_s eps_rs(alpha) + T_e eps_re(alpha) + log(1/delta)/(alpha-1)``

with ``eps_rs`` the subsampled-Gaussian RDP of one DP-SGD step and
``eps_re(alpha) = MA_DP-EM(alpha-1)/(alpha-1)`` (Eq. 3 via Theorem 3),
minimised over the orders in :data:`ORDERS`.

This is the package's only accountant.  DP-SGD on its own (DP-VAE, DP-GM's
per-cluster DP-VAEs) is the same composition with DP-PCA and DP-EM switched
off (``epsilon_pca=0, em_iterations=0``).  The accountant is an immutable
value: calibration searches for the noise scale that meets a target
``epsilon`` — this is how the experiments pick hyper-parameters "such that
``epsilon = 1`` holds" — and callers build the calibrated accountant with
:func:`dataclasses.replace`.
The zCDP + MA baseline of Figure 6 is reported from the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.privacy.accounting import moments, zcdp
from repro.privacy.accounting.rdp import rdp_from_pure_dp, rdp_subsampled_gaussian, rdp_to_dp
from repro.utils.validation import check_positive, check_probability

__all__ = ["ORDERS", "P3GMAccountant"]

#: The integer RDP orders every epsilon is minimised over (dense, then sparse).
ORDERS: tuple = tuple(range(2, 65)) + (72, 96, 128, 192, 256, 384, 512)


@dataclass(frozen=True)
class P3GMAccountant:
    """Privacy accountant for the three-phase P3GM pipeline.

    Parameters mirror Algorithm 1 in the paper: ``epsilon_pca`` is the
    (pure-DP) budget of the Wishart-mechanism PCA, ``sigma_em``/``em_iterations``
    /``n_components`` describe DP-EM, and ``sigma_sgd``/``sample_rate``/
    ``sgd_steps`` describe DP-SGD in the decoding phase.  A component with a
    zero budget or iteration count is switched off.
    """

    epsilon_pca: float = 0.1
    sigma_em: float = 10.0
    em_iterations: int = 20
    n_components: int = 3
    sigma_sgd: float = 1.5
    sample_rate: float = 0.01
    sgd_steps: int = 100
    #: Per-step DP-SGD RDP curves keyed by ``(sample_rate, sigma_sgd)``.
    #: :func:`dataclasses.replace` hands the same dict to every accountant
    #: derived from this one, so a bisection step or a step count that keeps
    #: ``(q, sigma)`` reuses the curve instead of rebuilding it.
    _sgd_curves: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.epsilon_pca < 0:
            raise ValueError("epsilon_pca must be non-negative")
        if self.em_iterations < 0 or self.sgd_steps < 0:
            raise ValueError("iteration counts must be non-negative")
        if self.em_iterations > 0:
            check_positive(self.sigma_em, "sigma_em")
        if self.sgd_steps > 0:
            check_positive(self.sigma_sgd, "sigma_sgd")
            check_probability(self.sample_rate, "sample_rate")

    # -- epsilon reports ----------------------------------------------------------

    def rdp(self) -> np.ndarray:
        """Total RDP of the pipeline over :data:`ORDERS` (without the delta term).

        The terms are summed in a fixed order — DP-PCA, then ``T_s`` DP-SGD
        steps, then ``T_e`` DP-EM iterations — so every reported epsilon is
        reproducible bit for bit.
        """
        total = np.zeros(len(ORDERS))
        if self.epsilon_pca > 0:
            total = total + [rdp_from_pure_dp(self.epsilon_pca, alpha) for alpha in ORDERS]
        if self.sgd_steps > 0:
            total = total + self.sgd_steps * self._sgd_step_rdp()
        if self.em_iterations > 0:
            em_iteration = [
                moments.dp_em_moment_bound(self.n_components, self.sigma_em, alpha - 1) / (alpha - 1)
                for alpha in ORDERS
            ]
            total = total + self.em_iterations * np.array(em_iteration)
        return total

    def _sgd_step_rdp(self) -> np.ndarray:
        """RDP of one DP-SGD step over :data:`ORDERS`, built once per ``(q, sigma)``."""
        key = (self.sample_rate, self.sigma_sgd)
        if key not in self._sgd_curves:
            self._sgd_curves[key] = np.array(
                [rdp_subsampled_gaussian(self.sample_rate, self.sigma_sgd, alpha) for alpha in ORDERS]
            )
        return self._sgd_curves[key]

    def epsilon(self, delta: float) -> float:
        """Theorem-4 epsilon: the RDP conversion minimised over :data:`ORDERS`."""
        eps, _ = self.epsilon_with_order(delta)
        return eps

    def epsilon_with_order(self, delta: float):
        """Return ``(epsilon, alpha)`` achieving the Theorem-4 minimum."""
        eps, alpha = rdp_to_dp(self.rdp(), ORDERS, delta)
        return eps, int(alpha)

    def epsilon_baseline(self, delta: float) -> float:
        """Baseline composition of the pipeline (paper Figure 6, 'zCDP + MA').

        - DP-PCA contributes its pure ``epsilon_pca``.
        - DP-EM is accounted with zCDP: each iteration perturbs ``2K + 1``
          sensitivity-1 statistics with noise scale ``sigma_em``, composing to
          ``rho = T_e (2K + 1) / (2 sigma_em^2)``, converted to DP with ``delta/2``.
        - DP-SGD is accounted with the moments accountant (Eq. 4), converted
          with ``delta/2``.
        The three ``epsilon`` values compose sequentially.
        """
        check_probability(delta, "delta")
        if delta <= 0:
            raise ValueError("delta must be in (0, 1)")
        eps_total = self.epsilon_pca
        if self.em_iterations > 0:
            rho_per_iter = (2 * self.n_components + 1) * zcdp.zcdp_gaussian(self.sigma_em)
            rho = zcdp.zcdp_compose([rho_per_iter] * self.em_iterations)
            eps_total += zcdp.zcdp_to_dp(rho, delta / 2.0)
        if self.sgd_steps > 0:
            lambdas = range(1, 128)
            total_moments = [
                self.sgd_steps * moments.dp_sgd_moment_bound(self.sample_rate, self.sigma_sgd, lam)
                for lam in lambdas
            ]
            eps_sgd, _ = moments.moments_epsilon(total_moments, lambdas, delta / 2.0)
            eps_total += eps_sgd
        return eps_total

    # -- calibration ----------------------------------------------------------------

    def calibrate_sigma_sgd(
        self, target_epsilon: float, delta: float, low: float = 0.3, high: float = 200.0, tol: float = 1e-3
    ) -> float:
        """Find the smallest ``sigma_sgd`` such that the total epsilon <= target.

        The other components (PCA, EM) keep their configured budgets; raises if
        even an enormous noise multiplier cannot meet the target (i.e. the PCA/EM
        budgets alone already exceed it).
        """
        return self._calibrate("sigma_sgd", target_epsilon, delta, low, high, tol)

    def calibrate_sigma_em(
        self, target_epsilon: float, delta: float, low: float = 0.3, high: float = 1e6, tol: float = 1e-3
    ) -> float:
        """Find the smallest ``sigma_em`` such that the total epsilon <= target."""
        return self._calibrate("sigma_em", target_epsilon, delta, low, high, tol)

    def _calibrate(self, attr: str, target_epsilon: float, delta: float, low: float, high: float, tol: float) -> float:
        """Bisect ``attr`` down to the smallest value whose epsilon meets the target."""
        check_positive(target_epsilon, "target_epsilon")

        def spent(value: float) -> float:
            return replace(self, **{attr: value}).epsilon(delta)

        if spent(high) > target_epsilon:
            raise ValueError(
                f"cannot reach epsilon={target_epsilon} even with {attr}={high}; "
                "reduce the budget of the other components"
            )
        if spent(low) <= target_epsilon:
            return low
        lo, hi = low, high
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if spent(mid) <= target_epsilon:
                hi = mid
            else:
                lo = mid
        return hi
