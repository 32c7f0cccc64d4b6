"""Figure 7 — learning efficiency: per-epoch loss and utility under DP training.

Expected shape (paper): P3GM (and its AE ablation) reach low reconstruction
loss within a few epochs and keep improving downstream utility, while DP-VAE
converges more slowly / noisily under the same privacy budget.
"""

import numpy as np
from conftest import run_once

from repro.evaluation import format_curves, run_fig7_learning_efficiency


def test_fig7_learning_efficiency(benchmark, record_result):
    curves = run_once(benchmark, run_fig7_learning_efficiency)
    text = "\n\n".join(
        [
            format_curves(curves, "reconstruction_loss", title="Figure 7a: reconstruction loss per epoch (simulated MNIST)"),
            format_curves(curves, "downstream_score", title="Figure 7c: downstream accuracy per epoch (simulated MNIST)"),
        ]
    )
    record_result("fig7_learning_efficiency", text)

    # The phased models' reconstruction loss must not diverge (a small relative
    # tolerance absorbs DP-SGD noise at the preset's laptop sizes), and P3GM's final
    # reconstruction loss should be no worse than DP-VAE's (two-phase training
    # is the paper's whole point).
    p3gm_loss = curves["P3GM"]["reconstruction_loss"]
    dpvae_loss = curves["DP-VAE"]["reconstruction_loss"]
    assert p3gm_loss[-1] <= p3gm_loss[0] * 1.01
    assert p3gm_loss[-1] <= dpvae_loss[-1] * 1.2
    # Every model reports one downstream score per epoch.
    for series in curves.values():
        assert len(series["downstream_score"]) == len(series["reconstruction_loss"])
        assert np.all(np.isfinite(series["downstream_score"]))
