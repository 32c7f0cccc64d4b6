"""Figure 2 — sample quality (fidelity / diversity / coverage) on simulated MNIST.

The paper's Figure 2 is a visual comparison; the harness reports the
quantitative proxies defined in ``repro.evaluation.sample_quality``.  The
expected shape: DP-VAE has the worst fidelity (noisy samples), DP-GM has the
lowest diversity (mode collapse towards centroids), and P3GM is close to the
non-private VAE on both axes.
"""

from conftest import run_once

from repro.evaluation import format_rows, run_fig2_sample_quality


def test_fig2_sample_quality(benchmark, record_result):
    rows = run_once(benchmark, run_fig2_sample_quality)
    text = format_rows(rows, title="Figure 2 (proxy): sample quality on simulated MNIST, epsilon=1")
    record_result("fig2_sample_quality", text)

    by_model = {row["model"]: row for row in rows}
    # The non-private VAE produces the cleanest samples: its fidelity (distance
    # to the nearest real sample) must not be worse than the DP-trained VAE's.
    assert by_model["VAE"]["fidelity"] <= by_model["DP-VAE"]["fidelity"] + 1e-6
    # All metrics are finite and within their defined ranges.
    for row in rows:
        assert row["fidelity"] >= 0
        assert row["diversity"] >= 0
        assert 0.0 <= row["coverage"] <= 1.0
