"""Figure 4 — utility on Kaggle Credit as the privacy budget epsilon varies.

Expected shape (paper): PrivBayes stays flat and low even for large epsilon;
P3GM degrades gracefully as epsilon shrinks and dominates at epsilon >= 1;
the non-private PGM reference is an upper bound independent of epsilon.
"""

from conftest import run_once

from repro.evaluation import format_rows, run_fig4_epsilon_sweep


def test_fig4_epsilon_sweep(benchmark, record_result):
    rows = run_once(benchmark, run_fig4_epsilon_sweep)
    text = format_rows(rows, title="Figure 4: AUROC/AUPRC vs epsilon on simulated Kaggle Credit")
    record_result("fig4_epsilon_sweep", text)

    def series(model):
        return [row["auroc"] for row in rows if row["model"] == model]

    # The non-private reference does not depend on epsilon.
    pgm = series("PGM")
    assert max(pgm) - min(pgm) < 1e-9
    # P3GM improves (or at least does not degrade) as the budget loosens, and
    # at its loosest budget it is competitive with PrivBayes.
    p3gm, privbayes = series("P3GM"), series("PrivBayes")
    assert p3gm[-1] >= p3gm[0] - 0.05
    assert p3gm[-1] > privbayes[-1] - 0.05
