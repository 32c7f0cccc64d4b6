"""Runner: caching, resume, deduplication, and deterministic output order."""

import json

import pytest

from repro.experiments import (
    EXPERIMENT_FORMAT_VERSION,
    ExperimentSpec,
    ResultStore,
    Runner,
    TrialCache,
)
from repro.experiments import runner as runner_module


def composition_spec(sigmas=(1.0, 2.0, 3.0), name="comp"):
    """An analytic (training-free) spec: fast enough for fine-grained tests."""
    return ExperimentSpec.from_dict(
        {
            "name": name,
            "kind": "composition",
            "grid": {"sigma": list(sigmas)},
            "params": {"delta": 1e-5},
        }
    )


def test_run_produces_one_record_per_trial_in_spec_order(tmp_path):
    store = ResultStore(tmp_path / "out.jsonl")
    report = Runner().run(composition_spec(), store=store)
    assert report.executed == 3 and report.cached == 0 and report.total == 3
    assert [record["params"]["sigma"] for record in report.records] == [1.0, 2.0, 3.0]
    assert store.read() == report.records
    assert report.rows() == [record["result"] for record in report.records]
    assert all(record["result"]["epsilon_rdp"] > 0 for record in report.records)


def test_interrupted_sweep_resumes_from_cache(tmp_path):
    cache = tmp_path / "cache"
    # "Interrupt" after the first two sigmas...
    first = Runner(cache_dir=cache).run(composition_spec(sigmas=(1.0, 2.0)))
    assert first.executed == 2
    # ...then rerun the full sweep: only the missing trial executes.
    second = Runner(cache_dir=cache).run(composition_spec())
    assert second.executed == 1 and second.cached == 2
    third = Runner(cache_dir=cache).run(composition_spec())
    assert third.executed == 0 and third.cached == 3
    assert third.records == second.records


def test_cache_is_shared_across_experiment_names(tmp_path):
    cache = tmp_path / "cache"
    Runner(cache_dir=cache).run(composition_spec(name="exp-a"))
    report = Runner(cache_dir=cache).run(composition_spec(name="exp-b"))
    # Identical computations are reused, but records carry the new spec name.
    assert report.executed == 0 and report.cached == 3
    assert all(record["experiment"] == "exp-b" for record in report.records)


def test_format_version_bump_invalidates_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    Runner(cache_dir=cache).run(composition_spec())
    monkeypatch.setattr(runner_module, "EXPERIMENT_FORMAT_VERSION", EXPERIMENT_FORMAT_VERSION + 1)
    rerun = Runner(cache_dir=cache).run(composition_spec())
    assert rerun.executed == 3 and rerun.cached == 0


def test_duplicate_cells_within_a_run_compute_once():
    # The same (kind, params, seed) cell appearing in two blocks of one run.
    specs = (composition_spec(name="block-1"), composition_spec(name="block-2"))
    report = Runner().run(specs)
    assert report.executed == 3 and report.cached == 3
    assert len(report.records) == 6
    assert report.records[0]["result"] == report.records[3]["result"]
    assert report.records[3]["experiment"] == "block-2"


def test_corrupt_cache_entry_recomputes(tmp_path):
    cache = tmp_path / "cache"
    Runner(cache_dir=cache).run(composition_spec(sigmas=(1.0,)))
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{not json")
    assert TrialCache(cache).get(entries[0].stem) is None
    report = Runner(cache_dir=cache).run(composition_spec(sigmas=(1.0,)))
    assert report.executed == 1


def test_progress_callback_sees_every_executed_trial(tmp_path):
    seen = []
    Runner().run(
        composition_spec(),
        progress=lambda done, total, trial: seen.append((done, total, trial.params["sigma"])),
    )
    assert seen == [(1, 3, 1.0), (2, 3, 2.0), (3, 3, 3.0)]


def test_utility_trial_rejects_dataset_missing_from_sizes():
    from repro.experiments import TrialSpec, execute_trial

    trial = TrialSpec(
        experiment="demo", kind="utility", seed=0, model="VAE", dataset="mnist",
        epsilon=1.0, params={"sizes": {"credit": 300}, "scale": "small"},
    )
    with pytest.raises(KeyError, match="no entry in params\\['sizes'\\]"):
        execute_trial(trial)


def test_invalid_worker_count_is_rejected():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        Runner(workers=0)


def test_trials_are_persisted_in_flight_not_only_at_the_end(tmp_path):
    # An interrupt must keep finished trials: every completed trial is
    # appended to the store (and cached) the moment it finishes.
    store = ResultStore(tmp_path / "out.jsonl")
    cache = tmp_path / "cache"
    seen_lines = []

    def spy(done, total, trial):
        seen_lines.append((done, len(store.read()), len(list(cache.glob("*.json")))))

    Runner(cache_dir=cache).run(composition_spec(), store=store, progress=spy)
    assert seen_lines == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
    # The final canonical write still leaves exactly one line per trial.
    assert len(store.read()) == 3


def test_store_file_is_valid_jsonl(tmp_path):
    store = ResultStore(tmp_path / "out.jsonl")
    Runner().run(composition_spec(), store=store)
    lines = (tmp_path / "out.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert {"key", "experiment", "kind", "seed", "params", "result"} <= set(record)
