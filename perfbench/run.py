#!/usr/bin/env python3
"""The repository benchmark: P3GM utility trials and HTTP release traffic.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trial_credit --seed 1 --seconds 8 --trace 0

Every workload has the same shape, so every end-to-end metric is measured
on every workload:

1. set-up (``setup_s``): simulate the dataset (3 times, median), run one
   paper-width utility trial (which warms the process and trains the model
   that gets released), save it as an artifact, and start
   ``python -m repro serve --processes 1`` on it (3 times, median), each
   start finished by one seeded warm-up request;
2. the timed phase: ``trial_*`` workloads run full-size utility trials
   through ``repro.experiments.Runner`` for ``--seconds`` and then a fixed
   burst of small release requests; ``serve_small`` drives the server
   for ``--seconds`` (its trial metrics come from the set-up trial);
3. output checks on every operation, then one JSON result line.

With ``--trace 1`` the same run is made with every layer's public entry
points wrapped (see ``tracing.py``) and the per-layer metrics are printed
instead.  Each run also appends a full record (fingerprint, checks, digests,
all metrics) to ``.perfbench/records.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

perf_counter = time.perf_counter

EPSILON, DELTA = 1.0, 1e-5
REF = "p3gm"
PATH = f"/v1/models/{REF}/sample"


@dataclass(frozen=True)
class Workload:
    dataset: str
    #: Rows of the set-up trial (paper width); its model is served.
    setup_rows: int
    #: Rows of each timed trial; ``None`` for the serving workloads.
    trial_rows: Optional[int]
    #: Rows per seeded ``POST /v1/models/{ref}/sample`` request (NDJSON).
    request_rows: int
    #: Percentile reported as ``http_tail_ms`` (>= 10 requests beyond it).
    tail: float
    #: Requests per client after the trials; ``None`` = serve for --seconds.
    burst: Optional[int] = None
    #: Rows of a smaller trial run first to warm the process, when the set-up
    #: trial is itself measured (the first trial in a process runs cold).
    warmup_rows: Optional[int] = None


WORKLOADS = {
    "trial_credit": Workload("credit", 1000, 6000, 16, 90, burst=50),
    # 4 rows keep an isolet response (~49 KB) inside one loopback segment, as
    # 16 credit rows are: larger bodies make the delayed-ACK stall bimodal.
    "trial_isolet": Workload("isolet", 300, 3000, 4, 90, burst=50),
    # A 300-row warm-up left this trial ~20% slower than trial_credit's and
    # twice as spread; 1000 rows (trial_credit's own set-up trial) does not.
    "serve_small": Workload("credit", 6000, None, 16, 96, warmup_rows=1000),
}
CLIENTS = 2  # = nproc on the 2-core box the sizes above were chosen on


# ----------------------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------------------


class Probe:
    """Outermost wrappers: time ``P3GM.fit`` and ``Trainer.fit``, and keep the
    fitted model, its training labels and its first labelled draw."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.model = self.labels = self.synthetic = None
        self.fit_s = self.train_s = None
        self.steps = 0

    def install(self):
        import numpy as np
        from repro.engine.trainer import Trainer
        from repro.models import P3GM
        from repro.models.base import LabelEncodingMixin

        probe = self
        p3gm_fit, trainer_fit = P3GM.fit, Trainer.fit
        sample_labeled = LabelEncodingMixin.sample_labeled

        def fit(model, X, y=None):
            start = perf_counter()
            result = p3gm_fit(model, X, y)
            probe.fit_s = perf_counter() - start
            probe.model, probe.labels = model, np.asarray(y)
            return result

        def train(trainer, *args, **kwargs):
            start = perf_counter()
            result = trainer_fit(trainer, *args, **kwargs)
            probe.train_s = perf_counter() - start
            probe.steps = trainer.global_step
            return result

        def draw(model, *args, **kwargs):
            result = sample_labeled(model, *args, **kwargs)
            if model is probe.model and probe.synthetic is None:
                probe.synthetic = result
            return result

        P3GM.fit, Trainer.fit, LabelEncodingMixin.sample_labeled = fit, train, draw


@dataclass
class Trial:
    wall_s: float
    fit_s: float
    steps_per_s: float
    problems: list
    record: dict = field(default_factory=dict)


def check_trial(probe) -> tuple:
    """Output checks of one trial; returns ``(problems, digest)``."""
    import numpy as np

    problems = []
    epsilon, delta = probe.model.privacy_spent()
    if not (epsilon <= EPSILON and delta <= DELTA):
        problems.append(f"privacy_spent ({epsilon}, {delta}) exceeds ({EPSILON}, {DELTA})")
    X, y = probe.synthetic
    if not np.isfinite(X).all() or X.min() < 0.0 or X.max() > 1.0:
        problems.append("synthetic rows are not finite values in [0, 1]")
    classes, counts = np.unique(probe.labels, return_counts=True)
    quotas = np.round(counts / counts.sum() * len(y)).astype(int)
    quotas[np.argmax(quotas)] += len(y) - quotas.sum()
    drawn = np.array([np.sum(y == label) for label in classes])
    if not np.array_equal(drawn, quotas):
        problems.append(f"label counts {drawn.tolist()} != ratio quotas {quotas.tolist()}")
    digest = hashlib.sha256(
        np.ascontiguousarray(X).tobytes() + np.asarray(y).tobytes()
    ).hexdigest()[:16]
    return problems, digest


def run_trial(dataset, rows, seed, probe, tracer, tag) -> Trial:
    from repro.experiments import ExperimentSpec, Runner

    spec = ExperimentSpec(
        name="perfbench", kind="utility", models=("P3GM",), datasets=(dataset,),
        epsilons=(EPSILON,), seeds=(seed,), params={"scale": "paper", "n_samples": rows},
    )
    runner = Runner(workers=1)
    probe.clear()
    start = perf_counter()
    if tracer is None:
        report = runner.run(spec)
    else:
        tracer.tag = tag
        try:
            report = tracer.call("trial", runner.run, (spec,), {})
        finally:
            tracer.tag = None
    wall = perf_counter() - start
    problems, digest = check_trial(probe)
    row = report.rows()[0]
    return Trial(wall, probe.fit_s, probe.steps / probe.train_s, problems, {
        "dataset": dataset, "rows": rows, "seed": seed, "wall_s": wall,
        "fit_s": probe.fit_s, "steps": probe.steps, "auroc": row.get("auroc"),
        "digest": digest, "problems": problems,
    })


# ----------------------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------------------


class Server:
    """``repro serve --processes 1`` in its own process (wrapped when traced)."""

    def __init__(self, root: Path, log: Path, spans: Optional[Path]):
        args = ["serve", "--root", str(root), "--host", "127.0.0.1", "--port", "0",
                "--processes", "1"]
        command = ([sys.executable, "-m", "repro", *args] if spans is None
                   else [sys.executable, str(HERE / "launcher.py"), str(spans), *args])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spans = spans
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            self.port = self._read_port(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout) -> int:
        deadline = perf_counter() + timeout
        text = b""
        fd = self.process.stdout.fileno()
        while perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                data = os.read(fd, 4096)
                if not data:
                    break
                text += data
                match = re.search(rb"on http://[^:]+:(\d+)", text)
                if match:
                    return int(match.group(1))
            elif self.process.poll() is not None:
                break
        raise RuntimeError(f"server did not start: {text.decode(errors='replace')!r}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def request_payload(workload: Workload, seed: int) -> dict:
    return {"n_samples": workload.request_rows, "seed": seed, "format": "ndjson"}


def request_seed(seed: int, client: int, index: int) -> int:
    return (seed * 1_000_003 + client * 100_019 + index) % (2**31)


def expected_body(artifacts: Path, workload: Workload, seed: int) -> bytes:
    """The in-process bytes of one seeded request: service draw + encoder."""
    from repro.server.protocol import encode_chunk
    from repro.serving import SynthesisService

    service = SynthesisService(artifact_root=artifacts)
    return b"".join(encode_chunk("ndjson", part)
                    for part in service.stream(REF, workload.request_rows, seed=seed))


def response_problems(response, workload: Workload) -> list:
    problems = []
    if response.status != 200:
        problems.append(f"status {response.status}")
    if not response.terminated:
        problems.append("chunked body not terminated")
    if response.rows != workload.request_rows:
        problems.append(f"{response.rows} rows, expected {workload.request_rows}")
    return problems


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ----------------------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------------------


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from env import fingerprint
    from httpload import Connection, closed_loop
    from tracing import Tracer, install_training, self_times

    workload = WORKLOADS[name]
    work = WORK / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    artifacts = work / "artifacts"
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_training(tracer)
    probe = Probe()
    probe.install()
    from repro.datasets import load_dataset
    from repro.serving.artifacts import save_artifact

    problems, attempted, failed = [], 0, 0
    servers = []

    def check(operation, found):
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(f"{operation}: {problem}" for problem in found)

    # -- set-up ---------------------------------------------------------------------
    simulate = []
    for _ in range(3):
        start = perf_counter()
        load_dataset(workload.dataset, n_samples=workload.trial_rows or workload.setup_rows,
                     random_state=seed)
        simulate.append(perf_counter() - start)
    warmup_s = 0.0
    if workload.warmup_rows:
        warmup_s = run_trial(workload.dataset, workload.warmup_rows, seed, probe, tracer,
                             "setup").wall_s
    setup_trial = run_trial(workload.dataset, workload.setup_rows, seed, probe, tracer,
                            "setup" if workload.trial_rows else "trial-0")
    start = perf_counter()
    save_artifact(probe.model, artifacts / REF, name=REF,
                  metadata={"dataset": workload.dataset, "seed": seed})
    save_s = perf_counter() - start
    starts = []
    try:
        for index in range(3):
            start = perf_counter()
            spans = work / f"server-spans-{index}.json" if trace else None
            server = Server(artifacts, work / "server.log", spans)
            servers.append(server)
            connection = Connection("127.0.0.1", server.port)
            warm_seed = request_seed(seed, 99, index)
            response = connection.post(PATH,
                                       request_payload(workload, warm_seed),
                                       f"w-{index}", keep_body=index == 0)
            connection.close()
            starts.append(perf_counter() - start)
            found = response_problems(response, workload)
            if index == 0 and response.body != expected_body(artifacts, workload, warm_seed):
                found.append("HTTP body differs from the in-process service + encode_chunk bytes")
            check(f"warm-up request {index}", found)
            if index < 2:
                server.stop()
        setup_s = (statistics.median(simulate) + warmup_s + setup_trial.wall_s + save_s
                   + statistics.median(starts))

        # -- timed phase ------------------------------------------------------------
        # Spans of the set-up trial are tagged "setup" (or "trial-0" when it is
        # the measured trial) and of warm-up requests "w-*": the per-layer
        # figures keep only the measured operations' tags.
        trials = []
        if workload.trial_rows:
            started = perf_counter()
            while not trials or perf_counter() - started < seconds:
                number = len(trials) + 1
                trials.append(run_trial(workload.dataset, workload.trial_rows,
                                        seed * 1000 + number, probe, tracer,
                                        f"trial-{number}"))
        else:
            trials = [setup_trial]
        for trial in trials:
            check(f"trial seed {trial.record['seed']}", trial.problems)

        def make_request(client, index):
            return (PATH, request_payload(workload, request_seed(seed, client, index)),
                    f"t-{client}-{index}")

        responses, errors, http_wall = closed_loop(
            "127.0.0.1", server.port, make_request, CLIENTS,
            seconds=None if workload.burst else seconds, per_client=workload.burst,
        )
        for request_id, message in errors:
            check(f"request {request_id}", [message])
        good = []
        for response in responses:
            found = response_problems(response, workload)
            check(f"request {response.request_id}", found)
            if not found:
                good.append(response)
        if workload.trial_rows:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_rss_mb = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    if not good:
        raise RuntimeError(f"no request succeeded: {problems[:5]}")
    latencies = [r.latency for r in good]
    end_to_end = {
        "setup_s": setup_s,
        "trial_s": statistics.median(t.wall_s for t in trials),
        "fit_s": statistics.median(t.fit_s for t in trials),
        "train_steps_per_s": statistics.median(t.steps_per_s for t in trials),
        "http_rows_per_s": sum(r.rows for r in good) / http_wall,
        "http_p50_ms": statistics.median(latencies) * 1000.0,
        "http_tail_ms": percentile(latencies, workload.tail) * 1000.0,
        "http_ttfb_p50_ms": statistics.median(r.ttfb for r in good) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fingerprint": fingerprint(ROOT),
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "end_to_end": end_to_end,
        "trials": [t.record for t in trials],
        "setup": {"simulate_s": simulate, "warmup_s": warmup_s, "trial": setup_trial.record,
                  "save_s": save_s, "server_start_s": starts},
        "http": {"requests": len(responses) + len(errors), "ok": len(good),
                 "tail_percentile": workload.tail,
                 "beyond_tail": len(good) - math.ceil(workload.tail / 100.0 * len(good)),
                 "mean_bytes": statistics.mean(r.size for r in good),
                 "wall_s": http_wall},
    }
    if trace:
        tags = {f"trial-{n}" for n in range(len(trials) + 1)}
        local = self_times(tracer.spans, tags)
        local_counts = sum_counts(tracer.counts.items(), tags)
        server_dump = json.loads(servers[-1].spans.read_text())
        timed = {r.request_id for r in responses}
        remote = self_times(server_dump["spans"], timed)
        remote_counts = sum_counts(
            (((tag, counter), value) for tag, counter, value in server_dump["counts"]), timed
        )
        served = {span[0]: span[3] for span in server_dump["spans"]
                  if span[1] == "server.request"}
        client_total = sum(r.latency for r in responses)
        gap = sum(r.latency - served.get(r.request_id, 0.0) for r in responses)
        record["per_layer"] = layer_metrics(local, local_counts, remote, remote_counts,
                                            client_total, gap)
    return record


def sum_counts(items, tags) -> dict:
    """``{counter: total}`` over ``((tag, counter), value)`` items of ``tags``."""
    totals = {}
    for (tag, counter), value in items:
        if tag in tags:
            totals[counter] = totals.get(counter, 0) + value
    return totals


def layer_metrics(local, local_counts, remote, remote_counts, client_total, gap) -> dict:
    """Per-layer busy times (self time unless noted) and counts, summed over
    the run's measured trials (this process) and timed requests (server)."""

    def self_s(table, span):
        return table.get(span, (0.0, 0.0))[0]

    def total_s(table, span):
        return table.get(span, (0.0, 0.0))[1]

    both = lambda fn, span: fn(local, span) + fn(remote, span)  # noqa: E731
    metrics = {}
    for span in ("accounting.calibrate_s", "datasets.load_s", "decomposition.dp_pca_s",
                 "mixture.dp_em_s", "engine.batches_s", "models.forward_s", "nn.backward_s",
                 "nn.optimizer_s", "privacy.clip_s", "privacy.noise_s", "obs.callbacks_s",
                 "ml.score_s", "ml.fit_s.LogisticRegression", "ml.fit_s.AdaBoost",
                 "ml.fit_s.GBM", "ml.fit_s.XgBoost"):
        metrics[span] = self_s(local, span)
    metrics["accounting.rdp_evals"] = local_counts.get("accounting.rdp_evals", 0)
    metrics["engine.fit_s"] = total_s(local, "engine.fit_s")
    metrics["engine.loop_s"] = self_s(local, "engine.fit_s")
    metrics["engine.steps"] = local_counts.get("engine.steps", 0)
    metrics["models.sample_labeled_s"] = both(total_s, "models.sample_labeled")
    metrics["models.label_select_s"] = both(self_s, "models.sample_labeled")
    metrics["inference.decode_s"] = both(self_s, "inference.decode_s")
    metrics["inference.rows"] = (local_counts.get("inference.rows", 0)
                                 + remote_counts.get("inference.rows", 0))
    for span in ("server.parse_s", "server.encode_s", "serving.lookup_s", "serving.chunk_s"):
        metrics[span] = self_s(remote, span)
    metrics["server.request_s"] = total_s(remote, "server.request")
    metrics["server.write_other_s"] = self_s(remote, "server.request")
    for counter in ("server.bytes_out", "server.rejected", "serving.chunks"):
        metrics[counter] = remote_counts.get(counter, 0)
    metrics["client.request_s"] = client_total
    metrics["client.gap_s"] = gap
    metrics["trial.total_s"] = total_s(local, "trial")
    metrics["other_s"] = self_s(local, "trial")
    return metrics


# ----------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    values = record[section]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[section]}
    WORK.mkdir(exist_ok=True)
    with open(WORK / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
