"""Pinned outputs of the Theorem-4 accountant, bit for bit.

Each case fixes one accountant configuration, a ``delta`` and a target
epsilon, and pins six numbers as ``float.hex`` (``None`` where the
calibration must raise because the target is out of reach):

1. the Theorem-4 epsilon,
2. the zCDP + MA baseline epsilon (Figure 6),
3. the calibrated ``sigma_em``,
4. the calibrated ``sigma_sgd``,
5. the DP-SGD-only epsilon (DP-PCA and DP-EM switched off), and
6. the DP-SGD-only calibrated noise multiplier (what DP-VAE uses).

The values were recorded when DP-SGD-only accounting still ran through its
own accountant and order grid; they must keep matching exactly.  A change to
the order grid, the summation order of the components, the conversion or the
bisection shows up here as a mismatch.
"""

from dataclasses import replace

import pytest

from repro.privacy.accounting import P3GMAccountant

PAPER = dict(epsilon_pca=0.1, sigma_em=100.0, em_iterations=20, n_components=3)

CREDIT_BENCH = dict(PAPER, sigma_sgd=1.83, sample_rate=240 / 5400, sgd_steps=230)
ISOLET_BENCH = dict(PAPER, sigma_sgd=3.5, sample_rate=240 / 2700, sgd_steps=120)
MNIST_PAPER = dict(PAPER, sigma_sgd=1.42, sample_rate=240 / 63000, sgd_steps=2620)

# (id, accountant parameters, delta, target epsilon, pinned values)
CASES = [
    ("credit-bench-eps1", CREDIT_BENCH, 1e-5, 1.0,
     ["0x1.2dfa0135952eep+1", "0x1.d3cfe482c6db2p+1", None,
      "0x1.3c81dccccccccp+2", "0x1.17521197e301ep+1", "0x1.c2abd9999999ap+1"]),
    ("credit-bench-eps0.1", CREDIT_BENCH, 1e-5, 0.1,
     ["0x1.2dfa0135952eep+1", "0x1.d3cfe482c6db2p+1", None,
      None, "0x1.17521197e301ep+1", "0x1.05df9ccccccccp+5"]),
    ("credit-bench-eps10", CREDIT_BENCH, 1e-5, 10.0,
     ["0x1.2dfa0135952eep+1", "0x1.d3cfe482c6db2p+1", "0x1.be722accccccdp+2",
      "0x1.8d5fd9999999ap-1", "0x1.17521197e301ep+1", "0x1.8c344cccccccdp-1"]),
    ("isolet-bench-eps1", ISOLET_BENCH, 1e-5, 1.0,
     ["0x1.b1e9510d67b9dp+0", "0x1.52f4aeb73de7ep+1", None,
      "0x1.c5d98b3333334p+2", "0x1.7c522396f1fa4p+0", "0x1.40cc366666666p+2"]),
    ("isolet-bench-eps0.1", ISOLET_BENCH, 1e-5, 0.1,
     ["0x1.b1e9510d67b9dp+0", "0x1.52f4aeb73de7ep+1", None,
      None, "0x1.7c522396f1fa4p+0", "0x1.7a195a3333332p+5"]),
    ("isolet-bench-eps10", ISOLET_BENCH, 1e-5, 10.0,
     ["0x1.b1e9510d67b9dp+0", "0x1.52f4aeb73de7ep+1", "0x1.b83f40ec00000p+2",
      "0x1.d7df333333332p-1", "0x1.7c522396f1fa4p+0", "0x1.d5ebf33333332p-1"]),
    ("mnist-paper-eps1", MNIST_PAPER, 1e-5, 1.0,
     ["0x1.18629de579244p+0", "0x1.132272200c052p+1", "0x1.51189749f5998p+7",
      "0x1.94a0b9999999ap+0", "0x1.b24e7316b8f06p-1", "0x1.4b7ed9999999ap+0"]),
    ("mnist-paper-eps0.1", MNIST_PAPER, 1e-5, 0.1,
     ["0x1.18629de579244p+0", "0x1.132272200c052p+1", None,
      None, "0x1.b24e7316b8f06p-1", "0x1.2feee7fffffffp+3"]),
    ("mnist-paper-eps10", MNIST_PAPER, 1e-5, 10.0,
     ["0x1.18629de579244p+0", "0x1.132272200c052p+1", "0x1.b403e1414cccdp+2",
      "0x1.12e6f33333334p-1", "0x1.b24e7316b8f06p-1", "0x1.12e6f33333334p-1"]),
    ("credit-2000-sigma5", dict(PAPER, sigma_sgd=5.0, sample_rate=200 / 1800, sgd_steps=27), 1e-5, 1.0,
     ["0x1.df58f01ce87ecp-1", "0x1.8863495993e1ep+0", "0x1.5a45125e68000p+6",
      "0x1.1cf67e6666666p+2", "0x1.3b072541243d0p-1", "0x1.a458833333332p+1"]),
    ("credit-no-pca", dict(CREDIT_BENCH, epsilon_pca=0.0), 1e-5, 1.0,
     ["0x1.212d3468c8622p+1", "0x1.c70317b5fa0e5p+1", None,
      "0x1.0edf69999999ap+2", "0x1.17521197e301ep+1", "0x1.c2abd9999999ap+1"]),
    ("adult-paper", dict(PAPER, sigma_sgd=1.6, sample_rate=240 / 3600, sgd_steps=150), 1e-5, 1.0,
     ["0x1.b67b3ff26ac9ep+1", "0x1.9dee9ac788a2bp+2", None,
      "0x1.7e21a00000000p+2", "0x1.a368d15add7a0p+1", "0x1.0f11566666666p+2"]),
    ("esr-paper-k5", dict(ISOLET_BENCH, n_components=5, sigma_sgd=2.9), 1e-5, 1.0,
     ["0x1.0ad8dd4bc17d6p+1", "0x1.98d5ef87bc092p+1", None,
      "0x1.22930b3333334p+3", "0x1.d817209493d18p+0", "0x1.40cc366666666p+2"]),
    ("single-component",
     dict(PAPER, n_components=1, em_iterations=5, sigma_sgd=1.5, sample_rate=0.01, sgd_steps=500), 1e-5, 1.0,
     ["0x1.0e72a88012d60p+0", "0x1.037b90f20d774p+1", None,
      "0x1.8dff466666666p+0", "0x1.e266572502db3p-1", "0x1.71544cccccccdp+0"]),
    ("loose-delta", dict(PAPER, sigma_sgd=1.5, sample_rate=0.05, sgd_steps=400), 1e-3, 2.0,
     ["0x1.b418cad9f4534p+1", "0x1.868a98574a0f2p+2", None,
      "0x1.2b0b299999998p+1", "0x1.a2d11cc57971fp+1", "0x1.16c2f66666666p+1"]),
    ("tight-delta", dict(PAPER, sigma_sgd=2.0, sample_rate=0.02, sgd_steps=1000), 1e-8, 3.0,
     ["0x1.37e926e00b12dp+1", "0x1.ce60ace6c75fdp+1", "0x1.3d3d34fdc3332p+5",
      "0x1.aa14799999999p+0", "0x1.1bea7cf814532p+1", "0x1.959a59999999ap+0"]),
    ("large-pca-budget",
     dict(PAPER, epsilon_pca=0.3, sigma_sgd=1.42, sample_rate=0.05, sgd_steps=200), 1e-5, 5.0,
     ["0x1.d53186681cb44p+1", "0x1.d9af43b548552p+2", "0x1.23f99fa766666p+4",
      "0x1.2864599999998p+0", "0x1.a8857e36f5cadp+1", "0x1.1c7eecccccccdp+0"]),
    ("full-batch", dict(PAPER, sigma_sgd=8.0, sample_rate=1.0, sgd_steps=20), 1e-5, 10.0,
     ["0x1.8112206fb5115p+1", "0x1.ce1fa9f3e0730p+1", "0x1.ca6d2ed07ffffp+2",
      "0x1.49139ccccccccp+1", "0x1.6bbd484ba12d3p+1", "0x1.4626bccccccccp+1"]),
    ("half-batch-small-sigma", dict(PAPER, sigma_sgd=0.8, sample_rate=0.5, sgd_steps=40), 1e-5, 10.0,
     ["0x1.3109b0d90f631p+5", "0x1.9cb9d31351c71p+3", None,
      "0x1.0423200000000p+1", "0x1.309b194bbf83dp+5", "0x1.0248d66666666p+1"]),
    ("low-noise-many-steps", dict(PAPER, sigma_sgd=0.7, sample_rate=0.004, sgd_steps=20000), 1e-5, 1.0,
     ["0x1.2a5a1c9b268eep+3", "0x1.9cb9d31351c71p+3", None,
      "0x1.059bf9999999ap+2", "0x1.26e56030a7951p+3", "0x1.702d933333334p+1"]),
    ("em-dominated",
     dict(PAPER, sigma_em=5.0, em_iterations=50, sigma_sgd=4.0, sample_rate=0.01, sgd_steps=100), 1e-5, 1.0,
     ["0x1.98db6ca4c2893p+4", "0x1.9ccf6f3a6e2dep+4", "0x1.9aa2a6d27199ap+6",
      None, "0x1.1606244f17c26p-3", "0x1.3e6de00000001p+0"]),
]


def _hex_or_none(compute):
    """``compute()`` as ``float.hex``, or ``None`` when it raises ``ValueError``."""
    try:
        return float(compute()).hex()
    except ValueError:
        return None


@pytest.mark.parametrize(
    "params, delta, target, pinned", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_accountant_outputs_match_pins(params, delta, target, pinned):
    accountant = P3GMAccountant(**params)
    dp_sgd = replace(accountant, epsilon_pca=0.0, em_iterations=0)
    assert [
        _hex_or_none(lambda: accountant.epsilon(delta)),
        _hex_or_none(lambda: accountant.epsilon_baseline(delta)),
        _hex_or_none(lambda: accountant.calibrate_sigma_em(target, delta)),
        _hex_or_none(lambda: accountant.calibrate_sigma_sgd(target, delta)),
        _hex_or_none(lambda: dp_sgd.epsilon(delta)),
        _hex_or_none(lambda: dp_sgd.calibrate_sigma_sgd(target, delta)),
    ] == pinned
