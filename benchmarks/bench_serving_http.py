"""HTTP serving load benchmark: process-sweep throughput and tail latency.

Drives the :mod:`repro.server` tier the way production traffic would — many
concurrent stdlib clients streaming seeded NDJSON requests — and measures:

- **sustained req/s and p50/p99 latency** at 1, 8, and 32 concurrent clients,
  swept across ``--processes 1,2,4`` server configurations: one in-process
  :class:`SynthesisHTTPServer` versus pre-fork :class:`WorkerPool` tiers
  (every request must complete with status 200; a saturated or wedged server
  fails the run, not just slows it);
- **multi-core scaling**: at the top concurrency level (32 clients, 8 with
  ``--smoke``) every pool must reach ``SCALING_FRACTION`` (0.75) x
  min(processes, cores) x the single-process req/s — the whole point of the
  pre-fork tier.  That is 1.5x for the 2-process pool on any box with 2 or
  more cores, and 3x for the 4-process pool on 4 or more; only on a single
  core does the gate record itself as not applicable (the pool cannot beat
  the GIL there).

Writes ``benchmarks/results/BENCH_serving_http.json`` and exits non-zero if
any request fails, if a scaling gate fails, or if smoke-mode p99 exceeds
``--p99-budget``.  A streamed HTTP response's memory bound is a tier-1 test
(``tests/server/test_http_stream_memory.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_http.py          # full
    PYTHONPATH=src python benchmarks/bench_serving_http.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from urllib.request import Request, urlopen

import numpy as np

from repro.datasets import load_dataset
from repro.models import VAE
from repro.server import SynthesisHTTPServer, WorkerPool
from repro.serving import SynthesisService, save_artifact
from repro.utils.logging import StructuredLogger

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serving_http.json"

REF = "vae-credit"

#: Scaling tolerance: with P processes on C cores the pool should deliver at
#: least this fraction of min(P, C) in speedup over single-process serving.
SCALING_FRACTION = 0.75


def build_artifact(root: Path, seed: int = 0) -> Path:
    """Train a small VAE on the credit simulator and release it."""
    data = load_dataset("credit", n_samples=1500, random_state=seed)
    model = VAE(latent_dim=10, hidden=(64,), epochs=1, batch_size=200, random_state=seed)
    model.fit(data.X_train, data.y_train)
    return save_artifact(model, root / REF, name="bench-vae")


class ServerUnderTest:
    """One serving configuration: in-process for 1, a pre-fork pool for N."""

    def __init__(self, root: Path, processes: int, workers: int):
        self.root = root
        self.processes = processes
        self.workers = workers
        self._server = None
        self._thread = None
        self._pool = None
        # Access logs go to an in-memory buffer: the benchmark measures the
        # serving path, and JSON lines on stderr would swamp the report.
        self._log = StructuredLogger(io.StringIO())

    def start(self) -> "ServerUnderTest":
        if self.processes == 1:
            service = SynthesisService(artifact_root=self.root)
            self._server = SynthesisHTTPServer(
                ("127.0.0.1", 0), service, workers=self.workers,
                access_log=self._log,
            )
            self._thread = threading.Thread(
                target=self._server.serve_forever, daemon=True
            )
            self._thread.start()
        else:
            self._pool = WorkerPool(
                ("127.0.0.1", 0),
                lambda: SynthesisService(artifact_root=self.root),
                self.processes,
                server_kwargs={"workers": self.workers, "access_log": self._log},
            ).start()
        return self

    @property
    def port(self) -> int:
        return self._server.port if self._server is not None else self._pool.port

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=5)
        if self._pool is not None:
            self._pool.stop(graceful=False)


def one_request(port: int, n_rows: int, seed: int, chunk_size: int) -> tuple:
    """One streamed NDJSON request, consumed incrementally; returns
    ``(latency_seconds, ok, error)``."""
    body = json.dumps(
        {"n_samples": n_rows, "seed": seed, "chunk_size": chunk_size}
    ).encode()
    request = Request(
        f"http://127.0.0.1:{port}/v1/models/{REF}/sample",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    started = time.perf_counter()
    error = None
    try:
        with urlopen(request, timeout=120) as response:
            ok = response.status == 200
            if not ok:
                error = f"status {response.status}"
            while response.read(1 << 16):
                pass
    except Exception as exc:
        ok = False
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, ok, error


def run_load(port: int, concurrency: int, requests_per_client: int,
             n_rows: int, chunk_size: int) -> dict:
    """``concurrency`` clients, each issuing ``requests_per_client`` seeded
    streams back to back; latencies are per complete response."""
    latencies: list = []
    failures = [0]
    failure_reasons: list = []
    lock = threading.Lock()

    def client(index: int) -> None:
        for request_index in range(requests_per_client):
            seed = index * 1000 + request_index
            latency, ok, error = one_request(port, n_rows, seed, chunk_size)
            with lock:
                latencies.append(latency)
                if not ok:
                    failures[0] += 1
                    failure_reasons.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    total = concurrency * requests_per_client
    return {
        "concurrency": concurrency,
        "requests": total,
        "rows_per_request": n_rows,
        "failures": failures[0],
        "failure_reasons": failure_reasons,
        "duration_s": round(elapsed, 3),
        "requests_per_sec": round(total / elapsed, 1),
        "rows_per_sec": round(total * n_rows / elapsed, 1),
        "p50_latency_ms": round(float(np.percentile(latencies, 50)) * 1000, 2),
        "p99_latency_ms": round(float(np.percentile(latencies, 99)) * 1000, 2),
        "max_latency_ms": round(max(latencies) * 1000, 2),
    }


def scaling_gate(sweep: list, cores: int) -> dict:
    """Compare each pool's top-concurrency req/s against single-process.

    The expected speedup is ``min(processes, cores)``; the gate requires
    ``SCALING_FRACTION`` of it.  With fewer than 2 effective cores there is
    nothing to scale onto, so the gate records itself as not applicable.
    """
    by_processes = {entry["processes"]: entry["load"] for entry in sweep}
    baseline = by_processes.get(1)
    report = {"cores": cores, "fraction": SCALING_FRACTION, "comparisons": []}
    passed = True
    for processes, load in sorted(by_processes.items()):
        if processes == 1 or not baseline:
            continue
        top = max(load, key=lambda result: result["concurrency"])
        reference = max(baseline, key=lambda result: result["concurrency"])
        speedup = round(
            top["requests_per_sec"] / max(reference["requests_per_sec"], 1e-9), 2
        )
        effective = min(processes, cores)
        required = round(SCALING_FRACTION * effective, 2) if effective >= 2 else None
        ok = True if required is None else speedup >= required
        passed = passed and ok
        report["comparisons"].append(
            {
                "processes": processes,
                "concurrency": top["concurrency"],
                "speedup": speedup,
                "required": required,
                "applicable": required is not None,
                "ok": ok,
            }
        )
    report["passed"] = passed
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes + hard gates (CI)")
    parser.add_argument("--p99-budget", type=float, default=5.0,
                        help="smoke gate: p99 latency bound in seconds")
    parser.add_argument("--workers", type=int, default=48,
                        help="per-process worker cap (must exceed peak concurrency)")
    parser.add_argument("--processes", default=None,
                        help="comma-separated process counts to sweep "
                             "(default: 1,2 smoke / 1,2,4 full)")
    args = parser.parse_args(argv)

    if args.smoke:
        levels = (1, 8)
        requests_per_client = {1: 8, 8: 2}
        n_rows, chunk_size = 500, 256
        process_levels = (1, 2)
    else:
        levels = (1, 8, 32)
        requests_per_client = {1: 40, 8: 10, 32: 4}
        n_rows, chunk_size = 2000, 512
        process_levels = (1, 2, 4)
    if args.processes is not None:
        process_levels = tuple(
            int(part) for part in args.processes.split(",") if part.strip()
        )
    cores = os.cpu_count() or 1

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        print("training benchmark artifact...")
        build_artifact(root)
        sweep = []
        for processes in process_levels:
            under_test = ServerUnderTest(root, processes, args.workers).start()
            print(f"processes={processes} on port {under_test.port} "
                  f"({args.workers} workers/process)")
            try:
                load = []
                for concurrency in levels:
                    result = run_load(
                        under_test.port, concurrency,
                        requests_per_client[concurrency], n_rows, chunk_size,
                    )
                    load.append(result)
                    print(f"  c={concurrency:<3} {result['requests_per_sec']:>7} req/s  "
                          f"p50={result['p50_latency_ms']}ms  "
                          f"p99={result['p99_latency_ms']}ms  "
                          f"failures={result['failures']}")
                    for reason in result["failure_reasons"]:
                        print(f"      failure: {reason}")
            finally:
                under_test.stop()
            sweep.append({"processes": processes, "load": load})

    failures = sum(
        result["failures"] for entry in sweep for result in entry["load"]
    )
    scaling = scaling_gate(sweep, cores)
    gates = {
        "all_requests_ok": failures == 0,
        "multi_process_scaling": scaling["passed"],
    }
    if args.smoke:
        worst_p99 = max(
            result["p99_latency_ms"] for entry in sweep for result in entry["load"]
        )
        gates["p99_within_budget"] = worst_p99 <= args.p99_budget * 1000

    payload = {
        "benchmark": "serving_http",
        "smoke": args.smoke,
        "workers": args.workers,
        "cpu_count": cores,
        "sweep": sweep,
        "scaling": scaling,
        "gates": gates,
    }
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"results -> {RESULTS_PATH}")
    else:
        print(json.dumps(payload, indent=2))

    for comparison in scaling["comparisons"]:
        note = (
            f"{comparison['speedup']}x vs required {comparison['required']}x"
            if comparison["applicable"]
            else f"{comparison['speedup']}x (n/a: {cores} core(s))"
        )
        print(f"scaling processes={comparison['processes']} "
              f"@c={comparison['concurrency']}: {note}")
    for gate, passed in gates.items():
        print(f"gate {gate}: {'ok' if passed else 'FAILED'}")
    return 0 if all(gates.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
