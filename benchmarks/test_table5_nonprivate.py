"""Table V — accuracy comparison with non-private models on Kaggle Credit.

Expected shape: PGM and P3GM stay reasonably close to the non-private VAE;
P3GM (at (1, 1e-5)-DP) loses some utility but does not collapse.
"""

from conftest import run_once

from repro.evaluation import format_rows, run_table5_nonprivate_comparison


def test_table5_nonprivate_comparison(benchmark, record_result):
    rows = run_once(benchmark, run_table5_nonprivate_comparison)
    text = format_rows(
        rows,
        title="Table V: VAE vs PGM vs P3GM on simulated Kaggle Credit (AUROC/AUPRC averaged over 4 classifiers)",
    )
    record_result("table5_nonprivate", text)

    by_model = {row["model"]: row for row in rows}
    # The non-private models must carry strong signal to the classifiers.
    for model in ("VAE", "PGM"):
        assert by_model[model]["auroc"] > 0.6
    # The private model carries signal too, but cannot beat the best
    # non-private model by more than noise.
    assert by_model["P3GM"]["auroc"] > 0.5
    assert by_model["P3GM"]["auroc"] <= max(by_model["PGM"]["auroc"], by_model["VAE"]["auroc"]) + 0.05
