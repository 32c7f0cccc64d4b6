"""Sampling throughput: the compiled decoder plan against the autograd tape.

Measures rows/sec of ``model.sample``, which decodes through the compiled
tape-free plan (:mod:`repro.nn.inference`), against the same latent draw
decoded by the autograd tape forward, on a paper-width ``hidden=(1000,)``
decoder where the tape's per-op Tensor overhead is the dominant cost.

Writes ``benchmarks/results/BENCH_sampling_throughput.json`` and exits
non-zero if the fused path is not at least ``--min-fused-speedup`` (default
2x) faster than the tape.  The gate is relative (fused vs tape in the same
process on the same decoder).  A streamed release's memory bound is a tier-1
test (``tests/serving/test_stream_memory.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_sampling_throughput.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.models import VAE
from repro.nn import Tensor, no_grad

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sampling_throughput.json"


def tape_sample(model, n: int, rng) -> np.ndarray:
    """``model.sample(n)`` with the decoder run on the autograd tape."""
    latent = model._sample_latent(n, rng)
    with no_grad():
        decoded = model.decoder(Tensor(latent)).data
    np.clip(decoded, 0.0, 1.0, out=decoded)  # the Bernoulli output clip
    return decoded


def run_fused_vs_tape(seed: int = 0, n: int = 4096, repeats: int = 15) -> list:
    """Seeded ``sample`` timings through the compiled plan and the tape.

    Uses the paper's decoder width (one hidden layer of 1000 units): at
    ``hidden=(64,)`` both paths are arithmetic-bound and the fused win is
    modest, while at paper width the tape's per-op allocations of
    ``n x 1000`` intermediates are what the fused path's in-place kernels
    eliminate.  Fitted **unlabelled** (29 output features): the second GEMM
    is identical work on both paths, so a narrow output keeps the comparison
    about the overhead the fused path actually removes.  Each path takes the
    best of ``repeats`` runs after a warmup, so plan compilation and buffer
    allocation are not billed.
    """
    data = load_dataset("credit", n_samples=1500, random_state=seed)
    model = VAE(latent_dim=10, hidden=(1000,), epochs=1, batch_size=200, random_state=seed)
    model.fit(data.X_train)

    def best(fused: bool) -> dict:
        def draw():
            rng = np.random.default_rng(7)
            return model.sample(n, rng=rng) if fused else tape_sample(model, n, rng)

        elapsed = float("inf")
        draw()  # warmup both paths
        for _ in range(repeats):
            start = time.perf_counter()
            draw()
            elapsed = min(elapsed, time.perf_counter() - start)
        return {
            "mode": "decode_fused" if fused else "decode_tape",
            "n_rows": n,
            "rows": n,
            "rows_per_sec": round(n / elapsed, 1),
        }

    # Tape first: its timing must not benefit from cache warmed by the plan.
    return [best(False), best(True)]


def effective_cores() -> int:
    """CPUs actually available to this process (affinity-aware, like PR 7)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small sizes for CI")
    parser.add_argument(
        "--min-fused-speedup",
        type=float,
        default=2.0,
        help="fail if the fused decoder path is not at least this many times "
        "faster than the autograd tape (relative, same process)",
    )
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args(argv)

    results = run_fused_vs_tape(
        n=2048 if args.smoke else 4096, repeats=7 if args.smoke else 15
    )
    tape, fused = results
    fused_speedup = round(fused["rows_per_sec"] / tape["rows_per_sec"], 2)
    cores = effective_cores()
    # Core-count-aware requirement: with one effective core BLAS
    # cannot thread the GEMMs both paths share, so the (identical) matrix
    # products are at their largest fraction of either runtime and the
    # achievable relative win is structurally smaller.  The gate stays real
    # but drops to 3/4 of the multi-core requirement.
    required_speedup = (
        args.min_fused_speedup if cores >= 2 else round(args.min_fused_speedup * 0.75, 2)
    )
    report = {
        "benchmark": "sampling_throughput",
        "config": {
            "fused_vs_tape_model": "VAE(latent=10, hidden=(1000,), unlabeled)",
            "dataset": "credit (1500 rows, 29 features)",
            "cores": cores,
            "smoke": args.smoke,
        },
        "results": results,
        "fused_speedup": fused_speedup,
        "min_fused_speedup_required": required_speedup,
    }
    if args.smoke:
        # Never clobber the committed full-run record with smoke numbers.
        print(json.dumps(report, indent=2))
    else:
        args.output.parent.mkdir(exist_ok=True)
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))

    if fused_speedup < required_speedup:
        print(
            f"FAIL: fused decoder path is only {fused_speedup}x the tape "
            f"({fused['rows_per_sec']} vs {tape['rows_per_sec']} rows/s); "
            f"required >= {required_speedup}x on {cores} effective core(s)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: fused decode is {fused_speedup}x the tape")
    return 0


if __name__ == "__main__":
    sys.exit(main())
