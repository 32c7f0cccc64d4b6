"""The paper wrappers are built from their presets and cannot drift from them.

Called with no arguments, each ``run_table*/run_fig*`` wrapper must hand the
runner exactly the trials of its named preset; an argument overrides only the
axis or param it names.
"""

from dataclasses import replace

import pytest

from repro.evaluation import experiments as experiments_module
from repro.experiments import Runner, expand_specs, get_experiment
from repro.experiments.presets import TABLE6_SIZES

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

#: Every wrapper but the analytic fig6 takes a ``random_state`` seed.
SEEDED = sorted(name for name in WRAPPERS if name != "fig6_composition")


class Captured(Exception):
    """Carries the specs a wrapper handed to the runner, instead of running them."""


def captured_trials(monkeypatch, name, **kwargs):
    """The trials wrapper ``name`` would run for ``kwargs``, without running them."""

    def capture(runner, specs, **run_kwargs):
        raise Captured(specs)

    monkeypatch.setattr(Runner, "run", capture)
    with pytest.raises(Captured) as caught:
        WRAPPERS[name](**kwargs)
    return expand_specs(caught.value.args[0])


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_wrapper_defaults_expand_to_the_preset(name, monkeypatch):
    assert captured_trials(monkeypatch, name) == expand_specs(get_experiment(name))


@pytest.mark.parametrize("name", SEEDED)
def test_wrapper_seed_overrides_only_the_seed_axis(name, monkeypatch):
    expected = [replace(trial, seed=7) for trial in expand_specs(get_experiment(name))]
    assert captured_trials(monkeypatch, name, random_state=7) == expected


def test_epsilon_override_leaves_the_original_block_without_one(monkeypatch):
    # Table VI's "original" reference rows declare no epsilon axis; an
    # epsilon argument must reach the synthesizer trials only.
    expected = [
        replace(trial, epsilon=3.0) if trial.kind == "utility" else trial
        for trial in expand_specs(get_experiment("table6_private_tabular"))
    ]
    assert any(trial.epsilon is None for trial in expected)
    trials = captured_trials(monkeypatch, "table6_private_tabular", epsilon=3.0)
    assert trials == expected


def test_sigma_override_replaces_the_composition_grid(monkeypatch):
    expected = expand_specs(
        tuple(
            replace(spec, grid={"sigma": (2.0, 4.0)})
            for spec in get_experiment("fig6_composition")
        )
    )
    trials = captured_trials(monkeypatch, "fig6_composition", sigmas=[2.0, 4.0])
    assert trials == expected
    assert [trial.params["sigma"] for trial in trials] == [2.0, 4.0]


PARAM_OVERRIDES = [
    pytest.param("table5_nonprivate", {"n_samples": 300}, "n_samples", 300, id="table5-n_samples"),
    pytest.param("table5_nonprivate", {"scale": "paper"}, "scale", "paper", id="table5-scale"),
    pytest.param(
        "table6_private_tabular", {"n_samples": {"esr": 120}},
        "sizes", {**TABLE6_SIZES, "esr": 120}, id="table6-n_samples",
    ),
    pytest.param("table6_private_tabular", {"scale": "paper"}, "scale", "paper", id="table6-scale"),
    pytest.param("table7_images", {"n_samples": 500}, "n_samples", 500, id="table7-n_samples"),
    pytest.param("fig2_sample_quality", {"scale": "paper"}, "scale", "paper", id="fig2-scale"),
    pytest.param("fig4_epsilon_sweep", {"n_samples": 700}, "n_samples", 700, id="fig4-n_samples"),
    pytest.param("fig5_dimension_sweep", {"n_samples": 900}, "n_samples", 900, id="fig5-n_samples"),
    pytest.param("fig6_composition", {"delta": 1e-6}, "delta", 1e-6, id="fig6-delta"),
    pytest.param("fig6_composition", {"sgd_steps": 100}, "sgd_steps", 100, id="fig6-sgd_steps"),
    pytest.param("fig7_learning_efficiency", {"epochs": 3}, "epochs", 3, id="fig7-epochs"),
]


@pytest.mark.parametrize("name, kwargs, param, value", PARAM_OVERRIDES)
def test_argument_sets_only_its_trial_param(name, kwargs, param, value, monkeypatch):
    preset = expand_specs(get_experiment(name))
    assert all(trial.params[param] != value for trial in preset)
    expected = [replace(trial, params={**trial.params, param: value}) for trial in preset]
    assert captured_trials(monkeypatch, name, **kwargs) == expected


def keep(predicate):
    """The preset trials that ``predicate`` accepts, in preset order."""
    return lambda trials: [trial for trial in trials if predicate(trial)]


def set_fields(**fields):
    """The preset trials with ``fields`` replaced on every one."""
    return lambda trials: [replace(trial, **fields) for trial in trials]


AXIS_OVERRIDES = [
    pytest.param(
        "table5_nonprivate", {"epsilon": 3.0}, set_fields(epsilon=3.0), id="table5-epsilon",
    ),
    pytest.param(
        "table6_private_tabular", {"datasets": ["credit", "adult"]},
        keep(lambda trial: trial.dataset in ("credit", "adult")), id="table6-datasets",
    ),
    pytest.param(
        "table7_images", {"datasets": ["fashion_mnist"]},
        keep(lambda trial: trial.dataset == "fashion_mnist"), id="table7-datasets",
    ),
    pytest.param(
        "fig2_sample_quality", {"models": ["VAE", "P3GM"]},
        keep(lambda trial: trial.model in ("VAE", "P3GM")), id="fig2-models",
    ),
    # fig4's non-private PGM reference block keeps its one trial whatever
    # epsilons or models the sweep is narrowed to.
    pytest.param(
        "fig4_epsilon_sweep", {"epsilons": [0.3, 3.0]},
        keep(lambda trial: trial.epsilon in (None, 0.3, 3.0)), id="fig4-epsilons",
    ),
    pytest.param(
        "fig4_epsilon_sweep", {"models": ["DP-GM"]},
        keep(lambda trial: trial.model in ("PGM", "DP-GM")), id="fig4-models",
    ),
    pytest.param(
        "fig4_epsilon_sweep", {"include_nonprivate_reference": False},
        keep(lambda trial: trial.epsilon is not None), id="fig4-no-reference",
    ),
    pytest.param(
        "fig5_dimension_sweep", {"dimensions": [5, 30]},
        keep(lambda trial: trial.params["dimension"] in (5, 30)), id="fig5-dimensions",
    ),
    pytest.param(
        "fig7_learning_efficiency", {"dataset_name": "credit"},
        set_fields(dataset="credit"), id="fig7-dataset_name",
    ),
]


@pytest.mark.parametrize("name, kwargs, expect", AXIS_OVERRIDES)
def test_axis_argument_reshapes_only_its_axis(name, kwargs, expect, monkeypatch):
    preset = expand_specs(get_experiment(name))
    expected = expect(preset)
    assert expected and expected != preset
    assert captured_trials(monkeypatch, name, **kwargs) == expected
