"""Serving-side sampling throughput: one-shot vs. chunked streaming.

Measures rows/sec and *peak traced memory* for serving synthetic-data
requests through :class:`repro.serving.SynthesisService`:

- **oneshot** — ``model.sample(n)`` on the loaded model: the whole request is
  materialised as one dense array, and the decoder's intermediate activations
  all scale with ``n``.
- **stream** — consuming ``service.stream(ref, n, chunk_size=...)``: rows are
  produced in bounded chunks, so peak memory is governed by ``chunk_size``
  and stays flat as ``n`` grows — the property that makes
  ``python -m repro sample -n 1_000_000`` safe on a laptop.
- **fused vs tape** — ``model.sample``, which decodes through the compiled
  tape-free plan (:mod:`repro.nn.inference`), against the same latent draw
  decoded by the autograd tape forward, on a paper-width ``hidden=(1000,)``
  decoder where the tape's per-op Tensor overhead is the dominant cost.

Writes ``benchmarks/results/BENCH_sampling_throughput.json`` and exits
non-zero if streaming's peak memory is not decisively below one-shot's at the
comparison size, if the large streamed request exceeds ``--max-stream-mb``
(i.e. memory started scaling with ``n`` again), or if the fused path is not
at least ``--min-fused-speedup`` (default 2x) faster than the tape.  The
fused gate is relative (fused vs tape in the same process on the same
decoder), so it holds on throttled CI runners the same way PR 7's scaling
gate does.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_sampling_throughput.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.models import VAE
from repro.nn import Tensor, no_grad
from repro.serving import SynthesisService, save_artifact

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sampling_throughput.json"

CHUNK_SIZE = 8192


def build_artifact(root: Path, seed: int = 0) -> Path:
    """Train a small VAE on the credit simulator and release it."""
    data = load_dataset("credit", n_samples=1500, random_state=seed)
    model = VAE(latent_dim=10, hidden=(64,), epochs=1, batch_size=200, random_state=seed)
    model.fit(data.X_train, data.y_train)
    return save_artifact(model, root / "vae-credit", name="bench-vae")


def measure(fn) -> dict:
    """Run ``fn`` under tracemalloc; return rows/sec and peak memory."""
    tracemalloc.start()
    start = time.perf_counter()
    rows = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "rows": rows,
        "rows_per_sec": round(rows / elapsed, 1),
        "peak_memory_mb": round(peak / 1e6, 2),
    }


def run_oneshot(service: SynthesisService, ref, n: int) -> dict:
    # True one-shot: a single model.sample(n) call, no chunking anywhere.
    model = service.get(ref)
    result = measure(lambda: len(model.sample(n, rng=np.random.default_rng(7))))
    return {"mode": "oneshot", "n_rows": n, "chunk_size": None, **result}


def run_stream(service: SynthesisService, ref, n: int, chunk_size: int) -> dict:
    def consume():
        total = 0
        for chunk in service.stream(ref, n, seed=7, chunk_size=chunk_size):
            total += len(chunk)
        return total

    result = measure(consume)
    return {"mode": "stream", "n_rows": n, "chunk_size": chunk_size, **result}


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
            "chunk_size": None,
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
        "--chunk-size",
        type=int,
        default=None,
        help=f"rows per streamed chunk (default {CHUNK_SIZE}, or 1024 with --smoke "
        "so the chunk bound is still visible against the smaller one-shot request)",
    )
    parser.add_argument(
        "--max-stream-mb",
        type=float,
        default=128.0,
        help="fail if the largest streamed request's peak memory exceeds this",
    )
    parser.add_argument(
        "--min-fused-speedup",
        type=float,
        default=2.0,
        help="fail if the fused decoder path is not at least this many times "
        "faster than the autograd tape (relative, same process)",
    )
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args(argv)

    compare_n = 20_000 if args.smoke else 100_000
    large_n = 50_000 if args.smoke else 1_000_000
    if args.chunk_size is None:
        args.chunk_size = 1024 if args.smoke else CHUNK_SIZE

    with tempfile.TemporaryDirectory() as tmp:
        ref = build_artifact(Path(tmp))
        service = SynthesisService(chunk_size=args.chunk_size)
        service.get(ref)  # warm the model cache so timings measure sampling only

        results = [
            run_oneshot(service, ref, compare_n),
            run_stream(service, ref, compare_n, args.chunk_size),
            run_stream(service, ref, large_n, args.chunk_size),
        ]
    results.extend(run_fused_vs_tape(
        n=2048 if args.smoke else 4096, repeats=7 if args.smoke else 15
    ))

    oneshot, stream_same, stream_large, tape, fused = results
    fused_speedup = round(fused["rows_per_sec"] / tape["rows_per_sec"], 2)
    cores = effective_cores()
    # Core-count-aware requirement, PR-7 style: with one effective core BLAS
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
            "model": "VAE(latent=10, hidden=(64,))",
            "fused_vs_tape_model": "VAE(latent=10, hidden=(1000,), unlabeled)",
            "dataset": "credit (1500 rows, 29 features + label block)",
            "chunk_size": args.chunk_size,
            "cores": cores,
            "smoke": args.smoke,
        },
        "results": results,
        "stream_peak_vs_oneshot": round(
            stream_same["peak_memory_mb"] / oneshot["peak_memory_mb"], 4
        ),
        "max_stream_mb_allowed": args.max_stream_mb,
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

    failures = []
    if stream_same["peak_memory_mb"] >= oneshot["peak_memory_mb"] / 2:
        failures.append(
            f"streaming peak {stream_same['peak_memory_mb']}MB is not well below "
            f"one-shot peak {oneshot['peak_memory_mb']}MB at n={compare_n}"
        )
    if stream_large["peak_memory_mb"] > args.max_stream_mb:
        failures.append(
            f"streaming n={large_n} peaked at {stream_large['peak_memory_mb']}MB "
            f"> {args.max_stream_mb}MB: memory is scaling with n again"
        )
    if fused_speedup < required_speedup:
        failures.append(
            f"fused decoder path is only {fused_speedup}x the tape "
            f"({fused['rows_per_sec']} vs {tape['rows_per_sec']} rows/s); "
            f"required >= {required_speedup}x on {cores} effective core(s)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: streaming holds peak memory at ~{stream_large['peak_memory_mb']}MB "
        f"for n={large_n} (one-shot needs {oneshot['peak_memory_mb']}MB for n={compare_n}); "
        f"fused decode is {fused_speedup}x the tape"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
