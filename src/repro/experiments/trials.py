"""Trial kinds: the functions a :class:`~repro.experiments.spec.TrialSpec` runs.

Each function takes one trial and returns a JSON-safe ``result`` payload (a
table row dict, or a per-epoch curves dict for learning-curve trials).  All
randomness is derived from ``trial.seed`` — the dataset simulator, the model,
and the evaluation protocol are seeded from it and nothing reads global RNG
state — so a trial is a pure function of its spec and can safely run in a
process pool or be replayed from cache.

Shared ``params`` understood by the dataset-loading kinds:

- ``n_samples`` — simulated dataset size (``sizes`` maps per-dataset
  overrides, like the paper's Table III row counts);
- ``subsample`` — trial-level row subsampling applied after simulation
  (fraction or absolute count; see :func:`repro.datasets.load_dataset`) —
  the knob miniaturized/smoke grids use;
- ``scale`` — the :data:`repro.evaluation.model_zoo.SCALES` preset;
- ``n_synthetic_cap`` — cap on synthetic rows fed to the classifier suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TRIAL_KINDS", "COMPOSITION_DEFAULTS", "execute_trial"]

#: The paper's Figure-6 accounting configuration — the single source of truth
#: shared by :func:`composition_trial` and the preset declarations.  Specs
#: should pass the *full* resolved parameter set (``{**COMPOSITION_DEFAULTS,
#: ...}``) so identical cells hash to the same content address across
#: overlapping specs.
COMPOSITION_DEFAULTS = {
    "delta": 1e-5,
    "epsilon_pca": 0.1,
    "sigma_em": 100.0,
    "em_iterations": 20,
    "n_components": 3,
    "sample_rate": 240 / 63000,
    "sgd_steps": 2620,
}


def _load_trial_dataset(trial):
    from repro.datasets import load_dataset

    params = trial.params
    sizes = params.get("sizes") or {}
    if sizes and trial.dataset not in sizes and "n_samples" not in params:
        # Fail loudly (like the legacy loops' sizes[name]) instead of silently
        # simulating the registry default size for an unlisted dataset.
        raise KeyError(
            f"dataset {trial.dataset!r} has no entry in params['sizes'] "
            f"(got {sorted(sizes)}) and no 'n_samples' fallback"
        )
    n_samples = sizes.get(trial.dataset, params.get("n_samples"))
    return load_dataset(
        trial.dataset,
        n_samples=n_samples,
        random_state=trial.seed,
        subsample=params.get("subsample"),
    )


def _n_synthetic(trial, dataset):
    cap = trial.params.get("n_synthetic_cap")
    if cap is None:
        return None
    return min(len(dataset.X_train), int(cap))


def _factory(trial):
    from repro.evaluation.model_zoo import model_factories

    kwargs = dict(
        dataset_name=trial.dataset,
        scale=trial.params.get("scale", "small"),
        random_state=trial.seed,
        include=(trial.model,),
    )
    if trial.epsilon is not None:
        kwargs["epsilon"] = trial.epsilon
    if trial.params.get("delta") is not None:
        kwargs["delta"] = trial.params["delta"]
    return model_factories(**kwargs)[trial.model]


def utility_trial(trial) -> dict:
    """One synthesizer through the paper's utility protocol on one dataset."""
    from repro.evaluation.pipeline import evaluate_synthesizer

    dataset = _load_trial_dataset(trial)
    result = evaluate_synthesizer(
        _factory(trial)(),
        dataset,
        model_name=trial.model,
        n_synthetic=_n_synthetic(trial, dataset),
        random_state=trial.seed,
    )
    return result.as_row()


def original_trial(trial) -> dict:
    """The "original" reference column: classifiers trained on real data."""
    from repro.evaluation.pipeline import evaluate_original

    dataset = _load_trial_dataset(trial)
    return evaluate_original(dataset, random_state=trial.seed).as_row()


def sample_quality_trial(trial) -> dict:
    """Figure-2 style fidelity/diversity/coverage of one synthesizer's samples."""
    from repro.evaluation.sample_quality import sample_quality

    dataset = _load_trial_dataset(trial)
    model = _factory(trial)()
    model.fit(dataset.X_train, dataset.y_train)
    synthetic, _ = model.sample_labeled(len(dataset.X_test), rng=trial.seed)
    quality = sample_quality(dataset.X_test, synthetic, random_state=trial.seed)
    return {"model": trial.model, **quality.as_row()}


def p3gm_dimension_trial(trial) -> dict:
    """Figure-5 style: P3GM utility as the DP-PCA dimension varies."""
    from repro.evaluation.model_zoo import PAPER_SGD_NOISE, SCALES
    from repro.evaluation.pipeline import evaluate_synthesizer
    from repro.models import P3GM

    dataset = _load_trial_dataset(trial)
    preset = SCALES[trial.params.get("scale", "small")]
    dimension = int(trial.params["dimension"])
    model = P3GM(
        latent_dim=dimension,
        n_mixture_components=3,
        em_iterations=20,
        hidden=preset["hidden"],
        epochs=preset["epochs"],
        batch_size=preset["batch_size"],
        epsilon=trial.epsilon if trial.epsilon is not None else 1.0,
        delta=trial.params.get("delta", 1e-5),
        noise_multiplier=PAPER_SGD_NOISE[trial.dataset],
        random_state=trial.seed,
    )
    result = evaluate_synthesizer(
        model, dataset, model_name=f"P3GM(dp={dimension})", random_state=trial.seed
    )
    return {"dp": dimension, "accuracy": result.mean("accuracy")}


def composition_trial(trial) -> dict:
    """Figure-6 style: total epsilon under RDP vs the zCDP+MA baseline.

    Purely analytic (no training), exactly like the paper's experiment.
    """
    from repro.privacy.accounting import P3GMAccountant

    params = {**COMPOSITION_DEFAULTS, **trial.params}
    sigma = float(params["sigma"])
    delta = params["delta"]
    accountant = P3GMAccountant(
        epsilon_pca=params["epsilon_pca"],
        sigma_em=params["sigma_em"],
        em_iterations=params["em_iterations"],
        n_components=params["n_components"],
        sigma_sgd=sigma,
        sample_rate=params["sample_rate"],
        sgd_steps=params["sgd_steps"],
    )
    return {
        "sigma_s": sigma,
        "epsilon_rdp": round(accountant.epsilon(delta), 4),
        "epsilon_zcdp_ma": round(accountant.epsilon_baseline(delta), 4),
    }


def learning_curve_trial(trial) -> dict:
    """Figure-7 style: per-epoch reconstruction loss and downstream score."""
    from repro.ml import MLPClassifier, accuracy_score, roc_auc_score

    dataset = _load_trial_dataset(trial)
    epochs = int(trial.params.get("epochs", 6))
    task_binary = dataset.n_classes == 2

    def downstream_score(model) -> float:
        X_syn, y_syn = model.sample_labeled(min(len(dataset.X_train), 1500), rng=trial.seed)
        if len(np.unique(y_syn)) < 2:
            return 0.5 if task_binary else 1.0 / dataset.n_classes
        classifier = MLPClassifier(
            hidden=(64,), epochs=8, learning_rate=3e-3, random_state=trial.seed
        )
        classifier.fit(X_syn, y_syn)
        if task_binary:
            scores = classifier.predict_proba(dataset.X_test)[:, 1]
            return roc_auc_score(dataset.y_test, scores)
        return accuracy_score(dataset.y_test, classifier.predict(dataset.X_test))

    model = _factory(trial)()
    model.epochs = epochs
    scores = []

    def on_epoch_end(m, epoch, scores=scores):
        scores.append(downstream_score(m))

    model.epoch_callback = on_epoch_end
    model.fit(dataset.X_train, dataset.y_train)
    return {
        "reconstruction_loss": model.history.series("reconstruction_loss"),
        "downstream_score": scores,
    }


TRIAL_KINDS = {
    "utility": utility_trial,
    "original": original_trial,
    "sample_quality": sample_quality_trial,
    "p3gm_dimension": p3gm_dimension_trial,
    "composition": composition_trial,
    "learning_curve": learning_curve_trial,
}


def execute_trial(trial) -> dict:
    """Run one trial and return its JSON-safe result payload."""
    return TRIAL_KINDS[trial.kind](trial)
