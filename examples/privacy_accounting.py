"""Privacy accounting walkthrough (paper Section IV-F and Figure 6).

Shows how the Theorem-4 RDP composition of the P3GM pipeline (DP-PCA + DP-EM +
DP-SGD) is computed, how it compares to the zCDP + moments-accountant baseline,
and how the noise scales are calibrated to hit a target epsilon.  One
accountant does all of it: DP-SGD on its own (the DP-VAE baseline) is the same
composition with DP-PCA and DP-EM switched off.

Run with:  python examples/privacy_accounting.py
"""

from dataclasses import replace

from repro.evaluation import format_rows, run_fig6_composition
from repro.privacy.accounting import P3GMAccountant


def main() -> None:
    # The MNIST configuration of the paper: batch 240 out of 63 000 training
    # rows, 10 epochs of DP-SGD, 20 DP-EM iterations, epsilon_p = 0.1 for DP-PCA.
    accountant = P3GMAccountant(
        epsilon_pca=0.1,
        sigma_em=100.0,
        em_iterations=20,
        n_components=3,
        sigma_sgd=1.42,
        sample_rate=240 / 63000,
        sgd_steps=2620,
    )
    epsilon, order = accountant.epsilon_with_order(1e-5)
    print(f"Theorem 4 (RDP) composition:      epsilon = {epsilon:.3f}  (optimal order alpha = {order})")
    print(f"Baseline (zCDP + MA) composition: epsilon = {accountant.epsilon_baseline(1e-5):.3f}")

    # Calibration: which DP-EM noise scale makes the total budget exactly 1?
    sigma_em = accountant.calibrate_sigma_em(1.0, 1e-5)
    print(f"\nsigma_em calibrated so that epsilon = 1:  sigma_em = {sigma_em:.1f}")

    # Standalone DP-SGD accounting, as used by the DP-VAE baseline: the same
    # accountant with DP-PCA and DP-EM switched off.
    dp_sgd = replace(accountant, epsilon_pca=0.0, em_iterations=0)
    sigma = dp_sgd.calibrate_sigma_sgd(1.0, 1e-5)
    check = replace(dp_sgd, sigma_sgd=sigma).epsilon(1e-5)
    print(f"DP-VAE noise multiplier for epsilon=1:    sigma_s = {sigma:.2f}")
    print(f"  (check: epsilon({sigma:.2f}) = {check:.3f})")

    # Figure 6: the full sweep over sigma_s.
    rows = run_fig6_composition()
    print("\n" + format_rows(rows, title="Figure 6: epsilon vs sigma_s under the two composition methods"))


if __name__ == "__main__":
    main()
