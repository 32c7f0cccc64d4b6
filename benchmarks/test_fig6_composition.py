"""Figure 6 — privacy composition: RDP vs the zCDP + moments-accountant baseline.

Expected shape (paper): for every DP-SGD noise multiplier sigma_s, the RDP
composition of the P3GM pipeline yields a smaller total epsilon than the
baseline composition, and both curves decrease as sigma_s grows.
"""

from conftest import run_once

from repro.evaluation import format_rows, run_fig6_composition


def test_fig6_composition(benchmark, record_result):
    rows = run_once(benchmark, run_fig6_composition)
    text = format_rows(rows, title="Figure 6: total epsilon, RDP composition vs zCDP+MA baseline")
    record_result("fig6_composition", text)

    for row in rows:
        assert row["epsilon_rdp"] < row["epsilon_zcdp_ma"]
    rdp = [row["epsilon_rdp"] for row in rows]
    assert rdp == sorted(rdp, reverse=True)
