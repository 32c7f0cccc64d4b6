"""Table VI — differentially private synthesizers on four tabular datasets.

Expected shape (paper): P3GM beats DP-GM and PrivBayes on Credit and ESR and
on high-dimensional data generally; PrivBayes is competitive only on Adult
(simple low-order dependencies); every method trails the "original" reference.
"""

from conftest import run_once

from repro.evaluation import format_rows, run_table6_private_tabular


def test_table6_private_tabular(benchmark, record_result):
    rows = run_once(benchmark, run_table6_private_tabular)
    text = format_rows(
        rows,
        title="Table VI: PrivBayes vs DP-GM vs P3GM vs original, epsilon=1 (AUROC/AUPRC averaged over 4 classifiers)",
    )
    record_result("table6_private_tabular", text)

    def score(dataset, model):
        for row in rows:
            if row["dataset"] == dataset and row["model"] == model:
                return row["auroc"]
        raise KeyError((dataset, model))

    # The original (non-synthetic) reference is the ceiling on every dataset.
    for dataset in ("credit", "esr", "adult", "isolet"):
        assert score(dataset, "original") >= max(
            score(dataset, "P3GM"), score(dataset, "DP-GM"), score(dataset, "PrivBayes")
        ) - 0.02
    # P3GM's headline claim: it beats PrivBayes on the imbalanced Credit data
    # and is at least competitive with DP-GM at laptop scale.
    assert score("credit", "P3GM") >= score("credit", "PrivBayes") - 0.02
    assert score("credit", "P3GM") >= score("credit", "DP-GM") - 0.10
