"""The paper wrappers are built from their presets and cannot drift from them.

Each ``run_table*/run_fig*`` wrapper must hand the runner exactly the trials
of its named preset, and shape the records the runner returns into the rows
the benchmark harness prints.  ``repro bench --spec NAME --seeds`` — the path
that re-runs a preset over other replicate seeds — must change the seed of
every trial and nothing else.
"""

import json
from dataclasses import replace

import pytest

from repro.evaluation import experiments as experiments_module
from repro.experiments import RunReport, Runner, expand_specs, experiment_names, get_experiment
from repro.serving.cli import main

WRAPPERS = {
    "table5_nonprivate": experiments_module.run_table5_nonprivate_comparison,
    "table6_private_tabular": experiments_module.run_table6_private_tabular,
    "table7_images": experiments_module.run_table7_image_classification,
    "fig2_sample_quality": experiments_module.run_fig2_sample_quality,
    "fig4_epsilon_sweep": experiments_module.run_fig4_epsilon_sweep,
    "fig5_dimension_sweep": experiments_module.run_fig5_dimension_sweep,
    "fig6_composition": experiments_module.run_fig6_composition,
    "fig7_learning_efficiency": experiments_module.run_fig7_learning_efficiency,
}


class Captured(Exception):
    """Carries the specs a wrapper handed to the runner, instead of running them."""


def captured_trials(monkeypatch, name):
    """The trials wrapper ``name`` would run, without running them."""

    def capture(runner, specs, **run_kwargs):
        raise Captured(specs)

    monkeypatch.setattr(Runner, "run", capture)
    with pytest.raises(Captured) as caught:
        WRAPPERS[name]()
    return expand_specs(caught.value.args[0])


def fake_run(monkeypatch):
    """Replace ``Runner.run`` by one that executes no trial.

    The record of the trial at position ``i`` of the expanded specs has the
    result ``{"trial": i}``.  The specs of every call are appended to the
    returned list.
    """
    calls = []

    def run(runner, specs, store=None, progress=None):
        calls.append(specs)
        records = [
            {"key": trial.key(), **trial.to_dict(), "result": {"trial": index}}
            for index, trial in enumerate(expand_specs(specs))
        ]
        if store is not None:
            store.write(records)
        return RunReport(records=records, executed=len(records))

    monkeypatch.setattr(Runner, "run", run)
    return calls


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_wrapper_defaults_expand_to_the_preset(name, monkeypatch):
    assert captured_trials(monkeypatch, name) == expand_specs(get_experiment(name))


def rows(*indices):
    return [{"trial": index} for index in indices]


#: What each wrapper prints for the fake records of :func:`fake_run`.
SHAPED = {
    "table5_nonprivate": rows(0, 1, 2),
    # Per dataset: its three synthesizer rows (trials 0-11, three per
    # dataset), then its "original" reference row (trials 12-15).
    "table6_private_tabular": rows(0, 1, 2, 12, 3, 4, 5, 13, 6, 7, 8, 14, 9, 10, 11, 15),
    "table7_images": rows(*range(8)),
    "fig2_sample_quality": rows(*range(4)),
    # The non-private reference (trial 0) is repeated at each swept epsilon,
    # a flat line; the sweep's rows follow, labelled with their own epsilon.
    "fig4_epsilon_sweep": [
        {"epsilon": 0.3, "trial": 0},
        {"epsilon": 10.0, "trial": 0},
        *({"epsilon": 0.3, "trial": index} for index in (1, 2, 3)),
        *({"epsilon": 10.0, "trial": index} for index in (4, 5, 6)),
    ],
    "fig5_dimension_sweep": rows(0, 1, 2),
    "fig6_composition": rows(*range(6)),
    "fig7_learning_efficiency": {
        "DP-VAE": {"trial": 0},
        "P3GM-AE": {"trial": 1},
        "P3GM": {"trial": 2},
    },
}


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_wrapper_shapes_the_records_of_its_preset(name, monkeypatch):
    calls = fake_run(monkeypatch)
    produced = WRAPPERS[name]()
    assert len(calls) == 1
    assert produced == SHAPED[name]
    if isinstance(produced, dict):
        assert list(produced) == list(SHAPED[name])


@pytest.mark.parametrize("name", experiment_names())
def test_bench_seeds_replace_only_the_seed_axis(name, monkeypatch, tmp_path, capsys):
    calls = fake_run(monkeypatch)
    output = tmp_path / "bench.json"
    assert main(["bench", "--spec", name, "--seeds", "7", "8", "--output", str(output)]) == 0
    # Replicates are the innermost axis: each preset trial at seed 7, then 8.
    expected = [
        replace(trial, seed=seed)
        for trial in expand_specs(get_experiment(name))
        for seed in (7, 8)
    ]
    assert [expand_specs(specs) for specs in calls] == [expected]
    assert json.loads(output.read_text())["trials"] == len(expected)
