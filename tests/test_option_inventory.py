"""Inventory of the package's options: environment switches and constructor parameters.

Every environment variable is an option: it doubles the configurations the
tests and benchmarks must cover.  So is every constructor parameter of a
model, of the classifiers the utility protocol trains, of the mixtures the
phased models fit and of the optimizer they train with.  These tests pin
both sets, so adding a switch to ``src/repro`` takes a deliberate edit here.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.ml import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    XGBClassifier,
)
from repro.mixture import DPGaussianMixture, GaussianMixture
from repro.models import DPGM, DPVAE, P3GM, PGM, VAE, PrivBayes
from repro.nn import Adam
from repro.serving.registry import MODEL_REGISTRY

PACKAGE_ROOT = Path(repro.__file__).parent

#: The environment variables ``src/repro`` reads, and why each exists.
EXPECTED_ENV_VARS = {
    "REPRO_TRACE",  # opt-in span tracing (repro.obs.trace)
    "REPRO_OBS_DISABLED",  # turn the metrics registry off (repro.obs.registry)
}


def _is_os_environ(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _key(node) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return f"<computed key: {ast.unparse(node)}>"


def env_reads(tree) -> set:
    """Keys of every ``os.environ.get(k)``, ``os.environ[k]`` and ``os.getenv(k)``."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os_environ(node.value):
            keys.add(_key(node.slice))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            environ_get = func.attr == "get" and _is_os_environ(func.value)
            getenv = (
                func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            )
            if (environ_get or getenv) and node.args:
                keys.add(_key(node.args[0]))
    return keys


def test_environment_variables_read_by_the_package_are_pinned():
    found = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for key in env_reads(ast.parse(path.read_text(), filename=str(path))):
            found.setdefault(key, []).append(str(path.relative_to(PACKAGE_ROOT)))
    assert set(found) == EXPECTED_ENV_VARS, found


def test_the_inventory_sees_every_read_form():
    source = (
        "import os\n"
        "os.environ.get('A')\n"
        "os.environ['B']\n"
        "os.getenv('C', '1')\n"
        "os.environ.get(name)\n"
        "other.get('D')\n"
    )
    assert env_reads(ast.parse(source)) == {"A", "B", "C", "<computed key: name>"}


#: The constructor parameters of every registered model, the five suite
#: classifiers, both mixtures and Adam, in signature order.
EXPECTED_CONSTRUCTOR_PARAMETERS = {
    VAE: (
        "latent_dim", "hidden", "epochs", "batch_size", "learning_rate", "sampler",
        "random_state",
    ),
    DPVAE: (
        "latent_dim", "hidden", "epochs", "batch_size", "learning_rate", "epsilon", "delta",
        "noise_multiplier", "max_grad_norm", "sampler", "random_state",
    ),
    PGM: (
        "latent_dim", "n_mixture_components", "em_iterations", "hidden", "epochs",
        "batch_size", "learning_rate", "variance_mode", "sampler", "random_state",
    ),
    P3GM: (
        "latent_dim", "n_mixture_components", "em_iterations", "hidden", "epochs",
        "batch_size", "learning_rate", "variance_mode", "epsilon", "delta", "epsilon_pca",
        "noise_multiplier", "sigma_em", "max_grad_norm", "clip_norm", "sampler",
        "random_state",
    ),
    DPGM: (
        "n_clusters", "latent_dim", "hidden", "epochs", "batch_size", "learning_rate",
        "epsilon", "delta", "min_cluster_size", "max_grad_norm", "random_state",
    ),
    PrivBayes: ("epsilon", "degree", "n_bins", "random_state"),
    LogisticRegression: ("learning_rate", "n_iter", "random_state"),
    AdaBoostClassifier: ("n_estimators", "max_depth", "random_state"),
    GradientBoostingClassifier: (
        "n_estimators", "learning_rate", "max_depth", "min_samples_leaf",
        "min_samples_split", "max_features", "random_state",
    ),
    XGBClassifier: (
        "n_estimators", "learning_rate", "max_depth", "subsample", "max_features",
        "random_state",
    ),
    MLPClassifier: ("hidden", "epochs", "batch_size", "learning_rate", "dropout", "random_state"),
    GaussianMixture: ("n_components", "n_iter", "random_state"),
    DPGaussianMixture: ("n_components", "sigma", "clip_norm", "n_iter", "random_state"),
    Adam: ("params", "lr"),
}


@pytest.mark.parametrize(
    "cls", EXPECTED_CONSTRUCTOR_PARAMETERS, ids=lambda cls: cls.__name__
)
def test_constructor_parameters_are_pinned(cls):
    parameters = tuple(inspect.signature(cls).parameters)
    assert parameters == EXPECTED_CONSTRUCTOR_PARAMETERS[cls]


def test_every_registered_model_is_pinned():
    registered = {spec.cls for spec in MODEL_REGISTRY.values()}
    assert registered <= set(EXPECTED_CONSTRUCTOR_PARAMETERS)
