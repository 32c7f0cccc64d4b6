"""Figure 5 — P3GM accuracy on simulated MNIST as the PCA dimension d_p varies.

Expected shape (paper): accuracy is poor for very small d_p (not enough
expressive power), peaks in an intermediate range (the paper finds
d_p in [10, 100]), and degrades for very large d_p where DP-EM suffers from
the curse of dimensionality.
"""

from conftest import run_once

from repro.evaluation import format_rows, run_fig5_dimension_sweep


def test_fig5_dimension_sweep(benchmark, record_result):
    rows = run_once(benchmark, run_fig5_dimension_sweep)
    text = format_rows(rows, title="Figure 5: P3GM accuracy vs PCA dimension d_p (simulated MNIST)")
    record_result("fig5_dimension_sweep", text)

    accuracy = {row["dp"]: row["accuracy"] for row in rows}
    dims = sorted(accuracy)
    # The intermediate dimension should not be worse than the tiny one.
    assert accuracy[dims[1]] >= accuracy[dims[0]] - 0.05
