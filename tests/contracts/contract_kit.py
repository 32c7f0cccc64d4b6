"""The model-contract test-kit: registry-driven miniature instantiation.

Everything here is driven by :mod:`repro.serving.registry`: a model added to
``MODEL_REGISTRY`` is automatically instantiated (via constructor
introspection against :data:`TINY_OVERRIDES`), fitted, and pushed through the
contract suite in ``test_model_contract.py`` — no per-model test code
required.
"""

import inspect

import numpy as np

from repro.nn import Tensor, no_grad
from repro.serving.registry import get_model_spec

#: Laptop-instant hyper-parameter overrides, applied to every constructor
#: parameter a model actually accepts.  A new model whose constructor uses
#: the established parameter names is automatically miniaturized; unknown
#: extra parameters simply keep their defaults.
TINY_OVERRIDES = {
    "latent_dim": 3,
    "hidden": (16,),
    "epochs": 1,
    "batch_size": 50,
    "n_mixture_components": 2,
    "em_iterations": 3,
    "n_clusters": 2,
    "min_cluster_size": 10,
    "epsilon": 3.0,
    "delta": 1e-5,
    "degree": 2,
}
# Deliberately NOT overridden: ``noise_multiplier``.  An explicit sigma is
# documented to override epsilon-calibration (the spent budget may then
# legitimately exceed the epsilon argument), while the contract asserts the
# epsilon-targeted mode: privacy_spent() <= (epsilon, delta).


def tiny_model(name: str, random_state: int = 0):
    """Build a miniature instance of a registered synthesizer by introspection."""
    cls = get_model_spec(name).cls
    accepted = set(inspect.signature(cls.__init__).parameters)
    kwargs = {key: value for key, value in TINY_OVERRIDES.items() if key in accepted}
    if "random_state" in accepted:
        kwargs["random_state"] = random_state
    return cls(**kwargs)


def make_contract_data():
    """Two separated classes, 150 x 8, features in [0, 1]."""
    rng = np.random.default_rng(3)
    n, d = 150, 8
    centers = np.vstack([np.full(d, 0.3), np.full(d, 0.7)])
    y = rng.integers(0, 2, n)
    X = np.clip(centers[y] + 0.1 * rng.normal(size=(n, d)), 0.0, 1.0)
    return X, y


def make_mixed_contract_setup(random_state: int = 0):
    """A tiny mixed-type dataset plus its fitted table transformer.

    The registry-driven mixed-type contract fits every model on the encoded
    table and asserts its samples decode back to valid original-space rows —
    real category labels, numeric values inside the training range.
    """
    from repro.datasets import load_dataset
    from repro.transforms import TableTransformer

    dataset = load_dataset("adult_mixed", n_samples=260, random_state=random_state)
    transformer = TableTransformer(dataset.schema).fit(dataset.X_train)
    return dataset, transformer


def tape_decode_rows(decoder, latent):
    """The autograd-tape reference for ``repro.models.base.decode_rows``.

    The decoder's forward under ``no_grad``, with the Bernoulli output clip:
    the compiled decoder plan must return these rows bit for bit.
    """
    with no_grad():
        decoded = decoder(Tensor(latent)).data
    np.clip(decoded, 0.0, 1.0, out=decoded)
    return decoded
