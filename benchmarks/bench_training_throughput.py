"""DP-SGD training throughput: fused step vs. the seed per-parameter loop.

Measures full training steps per second (forward + backward + DP step) for the
paper's credit-dataset configuration, comparing:

- **seed** — the original optimizer step: materialise every parameter's dense
  per-example gradient ``(batch, *param_shape)``, clip with
  :func:`per_example_clip`, then sum / noise / scale each parameter in a
  Python loop (one Gaussian draw per parameter).
- **fused** — :class:`repro.privacy.DPSGD` today: clipping norms and clipped
  sums are computed from the factored per-example gradients (the dense arrays
  are never materialised), and a single noise vector is drawn for the whole
  flattened gradient.

Writes a JSON artifact to ``benchmarks/results/BENCH_training_throughput.json``
and exits non-zero if the fused path is not at least ``--min-speedup`` times
faster, so CI catches throughput regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_training_throughput.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.models import DPVAE
from repro.nn import Adam, grad_sample_mode
from repro.privacy import DPSGD, per_example_clip
from repro.utils.rng import as_generator

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_training_throughput.json"

# The paper's credit configuration (Table IV): latent 10, width-1000 networks,
# noise multiplier 1.5; laptop-scale row count.
CONFIG = dict(latent_dim=10, hidden=(1000,), batch_size=200, noise_multiplier=1.5)


class SeedDPSGD:
    """The seed repo's DP-SGD step, kept verbatim as the benchmark baseline:
    dense per-example gradients, per-parameter clip/sum/noise loops."""

    def __init__(self, params, noise_multiplier, max_grad_norm, expected_batch_size, base_optimizer, rng):
        self.params = list(params)
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.expected_batch_size = expected_batch_size
        self.base_optimizer = base_optimizer
        self._rng = as_generator(rng)

    def step(self):
        grad_samples = [p.grad_sample for p in self.params]  # materialises dense arrays
        clipped = per_example_clip(grad_samples, self.max_grad_norm)
        noise_std = self.noise_multiplier * self.max_grad_norm
        private_grads = []
        for g in clipped:
            summed = g.sum(axis=0)
            noisy = summed + self._rng.normal(0.0, noise_std, size=summed.shape)
            private_grads.append(noisy / self.expected_batch_size)
        self.base_optimizer.apply_gradients(private_grads)
        for p in self.params:
            p.zero_grad()


def build_model_and_data(seed=0):
    dataset = load_dataset("credit", n_samples=2000, random_state=seed)
    model = DPVAE(
        latent_dim=CONFIG["latent_dim"],
        hidden=CONFIG["hidden"],
        batch_size=CONFIG["batch_size"],
        noise_multiplier=CONFIG["noise_multiplier"],
        epsilon=10.0,
        random_state=seed,
    )
    data = model._attach_labels(dataset.X_train, dataset.y_train)
    model.n_input_features_ = data.shape[1]
    model._build(model.n_input_features_)
    return model, data


def time_steps(optimizer_name: str, steps: int, seed=0) -> float:
    """Run ``steps`` DP-SGD training steps; return steps per second."""
    model, data = build_model_and_data(seed)
    params = list(model._parameters())
    batch_size = CONFIG["batch_size"]
    base = Adam(params, lr=model.learning_rate)
    if optimizer_name == "fused":
        optimizer = DPSGD(
            params,
            noise_multiplier=CONFIG["noise_multiplier"],
            max_grad_norm=1.0,
            expected_batch_size=batch_size,
            base_optimizer=base,
            rng=seed,
        )
    else:
        optimizer = SeedDPSGD(
            params,
            noise_multiplier=CONFIG["noise_multiplier"],
            max_grad_norm=1.0,
            expected_batch_size=batch_size,
            base_optimizer=base,
            rng=seed,
        )

    rng = np.random.default_rng(seed)

    def one_step():
        batch = data[rng.choice(len(data), size=batch_size, replace=False)]
        with grad_sample_mode():
            reconstruction, kl = model._per_example_loss(batch)
            (reconstruction + kl).sum().backward()
        optimizer.step()

    for _ in range(2):  # warmup
        one_step()
    start = time.perf_counter()
    for _ in range(steps):
        one_step()
    elapsed = time.perf_counter() - start
    return steps / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="1-epoch-scale quick run for CI")
    parser.add_argument("--steps", type=int, default=None, help="steps to time per variant")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail (exit 1) if fused/seed speedup falls below this",
    )
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args(argv)

    steps = args.steps if args.steps is not None else (10 if args.smoke else 40)
    seed_sps = time_steps("seed", steps)
    fused_sps = time_steps("fused", steps)
    speedup = fused_sps / seed_sps

    result = {
        "benchmark": "dp_sgd_training_throughput",
        "config": {**CONFIG, "hidden": list(CONFIG["hidden"]), "dataset": "credit", "n_samples": 2000},
        "timed_steps": steps,
        "seed_steps_per_sec": round(seed_sps, 3),
        "fused_steps_per_sec": round(fused_sps, 3),
        "speedup": round(speedup, 3),
        "min_speedup_required": args.min_speedup,
    }
    if args.smoke:
        # Never clobber the committed full-run record with smoke numbers.
        print(json.dumps(result, indent=2))
    else:
        args.output.parent.mkdir(exist_ok=True)
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))

    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required {args.min_speedup}x", file=sys.stderr)
        return 1
    print(f"OK: fused DP-SGD step is {speedup:.2f}x faster than the seed per-parameter loop")
    return 0


if __name__ == "__main__":
    sys.exit(main())
