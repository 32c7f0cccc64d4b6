"""The experiment runner: parallel, deterministic, resumable trial execution.

Design:

- **Deterministic seeding** — a trial's randomness comes only from its spec
  (``TrialSpec.seed``); the runner never threads shared RNG state into
  workers, so serial and pooled runs produce bit-identical records.
- **Content-addressed caching** — each completed trial is written to
  ``cache_dir/<key>.json`` where ``key`` hashes the trial identity plus the
  code version.  A rerun (after an interrupt, or of an overlapping spec)
  skips every cached trial; bumping :data:`EXPERIMENT_FORMAT_VERSION` or the
  package version invalidates stale results.
- **Canonical output order** — results are collected per-trial but the JSONL
  store is written in spec-expansion order, so the artifact's bytes do not
  depend on worker scheduling.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.experiments.spec import ExperimentSpec, TrialSpec, expand_specs
from repro.experiments.store import ResultStore, encode_record
from repro.experiments.trials import execute_trial
from repro.obs import get_registry, get_tracer

__all__ = ["Runner", "RunReport", "TrialCache", "EXPERIMENT_FORMAT_VERSION", "default_code_version"]

#: Bump to invalidate every cached trial result (e.g. after a change to the
#: trial functions that alters results without changing specs).
EXPERIMENT_FORMAT_VERSION = 1


def default_code_version() -> str:
    import repro

    return f"repro-{repro.__version__}/experiments-{EXPERIMENT_FORMAT_VERSION}"


class TrialCache:
    """Content-addressed result cache: one JSON file per completed trial."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            # A half-written file from an interrupted run: recompute.
            return None

    def put(self, key: str, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self._path(key).with_suffix(".json.tmp")
        tmp.write_text(encode_record(record))
        os.replace(tmp, self._path(key))


@dataclass
class RunReport:
    """What a run did: ordered records plus execution accounting."""

    records: list = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    duration_s: float = 0.0

    @property
    def total(self) -> int:
        return self.executed + self.cached

    def rows(self) -> list:
        """The ``result`` payload of every record, in spec order."""
        return [record["result"] for record in self.records]


def _run_trial_payload(payload: dict) -> dict:
    """Worker entry point (module-level so it pickles under a process pool)."""
    trial = TrialSpec.from_dict(payload)
    return {"key": payload["key"], **trial.to_dict(), "result": execute_trial(trial)}


class Runner:
    """Execute the trials of one or more specs, with caching and a pool.

    Parameters
    ----------
    workers:
        1 (default) runs serially in-process; >1 uses a
        :class:`~concurrent.futures.ProcessPoolExecutor` of that size.
    cache_dir:
        Directory for the content-addressed trial cache.  ``None`` disables
        caching (every trial recomputes) — the mode the paper's
        ``run_table*/run_fig*`` functions use.

    Every trial's cache key hashes :func:`default_code_version`: the package
    version plus :data:`EXPERIMENT_FORMAT_VERSION`.
    """

    def __init__(self, workers: int = 1, cache_dir=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = TrialCache(cache_dir) if cache_dir is not None else None
        self.code_version = default_code_version()

    def run(self, specs, store: Optional[ResultStore] = None, progress=None) -> RunReport:
        """Run every trial of ``specs`` (one spec or a sequence of specs).

        Cached trials are loaded, missing ones executed (in parallel when
        ``workers > 1``), and the resulting records returned — and written to
        ``store`` — in deterministic spec order.  While the run is in flight
        every completed trial is appended to ``store`` immediately (and put
        in the cache), so an interrupt preserves all finished work; the final
        canonical ``store.write`` then replaces the append-ordered file.
        ``progress`` is an optional ``callback(done, total, trial)`` invoked
        as trials complete.
        """
        start = time.perf_counter()
        trials = expand_specs(specs)
        keyed = [(trial, trial.key(self.code_version)) for trial in trials]

        # Observability: counters / spans only — they never touch the record
        # dicts, so the canonical store bytes stay identical with and without
        # instrumentation (and between serial and pooled runs).  A trial's
        # content-address key doubles as its trace correlation id.
        tracer = get_tracer()
        trial_counter = get_registry().counter(
            "repro_experiments_trials_total",
            "Trials resolved by the experiment runner, by outcome",
            labels=("status",),
        )

        report = RunReport()
        records: dict = {}
        pending = []
        seen_keys = set()
        for index, (trial, key) in enumerate(keyed):
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                # The cached computation may have been recorded under another
                # experiment name; re-label it for this spec.
                records[index] = {**cached, "key": key, "experiment": trial.experiment}
                report.cached += 1
                trial_counter.inc(status="cached")
                with tracer.span(
                    "experiment.trial", trace_id=key,
                    experiment=trial.experiment, cached=True,
                ):
                    pass
            elif key in seen_keys:
                report.cached += 1  # duplicate cell within this very run
                trial_counter.inc(status="cached")
            else:
                pending.append((index, trial, key))
            seen_keys.add(key)

        done = report.cached
        total = len(keyed)

        def complete(index, trial, key, record):
            # Persist the instant a trial finishes (cache + in-flight store
            # append), so an interrupt loses at most the trials still running.
            nonlocal done
            records[index] = record
            report.executed += 1
            trial_counter.inc(status="executed")
            done += 1
            if self.cache is not None:
                self.cache.put(key, record)
            if store is not None:
                store.append(record)
            if progress is not None:
                progress(done, total, trial)

        if self.workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                submitted = {}
                futures = {}
                for index, trial, key in pending:
                    futures[pool.submit(
                        _run_trial_payload, {"key": key, **trial.to_dict()}
                    )] = (index, trial, key)
                    submitted[key] = time.perf_counter()
                # as_completed (not map) so every finished trial is persisted
                # even if a slower earlier-submitted trial later fails.
                for future in as_completed(futures):
                    index, trial, key = futures[future]
                    # The trial ran in a worker process, so the span is
                    # emitted on completion with its clock backdated to
                    # submission: duration = queue wait + compute.
                    span = tracer.span(
                        "experiment.trial", trace_id=key,
                        experiment=trial.experiment, cached=False, pooled=True,
                    )
                    span.__enter__()
                    span.started = submitted[key]
                    try:
                        record = future.result()
                    except BaseException:
                        span.__exit__(*sys.exc_info())
                        raise
                    complete(index, trial, key, record)
                    span.__exit__(None, None, None)
        else:
            for index, trial, key in pending:
                with tracer.span(
                    "experiment.trial", trace_id=key,
                    experiment=trial.experiment, cached=False,
                ):
                    record = _run_trial_payload({"key": key, **trial.to_dict()})
                complete(index, trial, key, record)

        # Duplicate cells (same content address appearing twice in one run)
        # resolve to the first computed record, re-labelled per trial.
        by_key = {record["key"]: record for record in records.values()}
        report.records = [
            {**by_key[key], "experiment": trial.experiment} for trial, key in keyed
        ]
        report.duration_s = time.perf_counter() - start
        if store is not None:
            store.write(report.records)
        return report
