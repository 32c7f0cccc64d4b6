"""Inventory of the tape's numerical code: every op the models do not run is dead.

``repro.nn`` is a from-scratch stand-in for a tensor library, and such code
grows ops "for completeness" that no model ever differentiates.  This test
fits every tape-trained model for one tiny labelled epoch (VAE, DP-VAE, PGM,
P3GM with learned and with fixed encoder variance, and ``MLPClassifier``
including its ``predict_proba``) while recording which :class:`Tensor` graph
ops and which :mod:`repro.nn.functional` functions ran.  It fails on any op
or function that did not, so adding one nothing uses takes a deliberate edit
here, the way ``tests/test_option_inventory.py`` pins environment variables.
"""

import functools
import inspect

import numpy as np
import pytest

from repro.ml import MLPClassifier
from repro.models import DPVAE, P3GM, PGM, VAE
from repro.nn import Tensor
from repro.nn import functional as F

#: The part of :class:`Tensor`'s interface that builds no graph node: storage
#: access, gradient bookkeeping, the DP-SGD per-example hooks and the
#: backward pass itself.
NOT_GRAPH_OPS = {
    "shape",
    "ndim",
    "size",
    "grad_sample",
    "numpy",
    "item",
    "zero_grad",
    "has_grad_sample",
    "grad_sample_sq_norms",
    "clipped_grad_sum",
    "backward",
}


def graph_ops() -> set:
    """Every public method, property and operator :class:`Tensor` defines,
    bar :data:`NOT_GRAPH_OPS`."""
    names = set()
    for name, value in vars(Tensor).items():
        if isinstance(value, staticmethod):
            value = value.__func__
        private = name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        callable_op = inspect.isfunction(value) or isinstance(value, property)
        if callable_op and not private and name not in ("__init__", "__repr__"):
            names.add(name)
    return names - NOT_GRAPH_OPS


def functional_functions() -> set:
    """The public functions :mod:`repro.nn.functional` defines."""
    return {
        name
        for name, value in vars(F).items()
        if inspect.isfunction(value) and value.__module__ == F.__name__ and not name.startswith("_")
    }


def tiny_fits():
    """Fit every tape-trained model once on a small labelled table."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 5))
    y = (X[:, 0] > 0.5).astype(int)
    shared = dict(hidden=(8,), epochs=1, batch_size=20, random_state=0)
    phased = dict(latent_dim=2, n_mixture_components=2, em_iterations=2, **shared)
    VAE(latent_dim=2, **shared).fit(X, y)
    DPVAE(latent_dim=2, epsilon=10.0, **shared).fit(X, y)
    PGM(**phased).fit(X, y)
    P3GM(epsilon=10.0, **phased).fit(X, y)
    P3GM(epsilon=10.0, variance_mode="fixed", **phased).fit(X, y)
    classifier = MLPClassifier(hidden=(8,), epochs=1, batch_size=20, random_state=0)
    classifier.fit(X, y).predict_proba(X)


@pytest.fixture(scope="module")
def ran():
    """``(ops that ran, functions that ran, ops that returned a non-Tensor)``."""
    ops_ran, functions_ran, not_tensors = set(), set(), set()

    def recording(name, original, seen):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            seen.add(name)
            result = original(*args, **kwargs)
            if seen is ops_ran and not isinstance(result, Tensor):
                not_tensors.add(name)
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in graph_ops():
            value = vars(Tensor)[name]
            if isinstance(value, staticmethod):
                patch.setattr(
                    Tensor, name, staticmethod(recording(name, value.__func__, ops_ran))
                )
            elif isinstance(value, property):
                patch.setattr(Tensor, name, property(recording(name, value.fget, ops_ran)))
            else:
                patch.setattr(Tensor, name, recording(name, value, ops_ran))
        for name in F.__all__:
            patch.setattr(F, name, recording(name, getattr(F, name), functions_ran))
        tiny_fits()
    return ops_ran, functions_ran, not_tensors


def test_the_inventories_cover_the_modules():
    assert {"affine", "__add__", "__radd__", "concatenate", "sum"} <= graph_ops()
    assert NOT_GRAPH_OPS <= set(vars(Tensor)), "NOT_GRAPH_OPS names a method Tensor lacks"
    # A public function left out of __all__ would escape the inventory.
    assert functional_functions() == set(F.__all__)


def test_every_tensor_graph_op_runs(ran):
    ops_ran, _, not_tensors = ran
    assert sorted(graph_ops() - ops_ran) == []
    # A method listed as a graph op must build one.
    assert sorted(not_tensors) == []


def test_every_functional_function_runs(ran):
    _, functions_ran, _ = ran
    assert sorted(set(F.__all__) - functions_ran) == []
