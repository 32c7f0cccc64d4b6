"""Random-number-generator helpers.

Every stochastic component in the library accepts a ``random_state`` argument
that may be ``None``, an integer seed, or a :class:`numpy.random.Generator`.
These helpers normalise the three forms into a single ``Generator`` so that
experiments are reproducible end to end.

The module also serialises a generator's *position in its stream*:
:func:`dump_generator_state` / :func:`restore_generator_state` round-trip the
underlying bit generator's state through a JSON string, which is what lets a
checkpointed training run resume bit-identically (checkpoints store the string
as a plain unicode npz array, never a pickled object).
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "as_generator",
    "check_random_state",
    "dump_generator_state",
    "restore_generator_state",
]


def as_generator(random_state=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` (fresh entropy), an ``int`` seed, or an existing
        ``numpy.random.Generator`` (returned unchanged).
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int, or a numpy.random.Generator; "
        f"got {type(random_state).__name__}"
    )


# Alias kept for familiarity with the scikit-learn naming convention.
check_random_state = as_generator


def dump_generator_state(rng: np.random.Generator) -> str:
    """Serialise ``rng``'s bit-generator state to a JSON string.

    The state dict of every numpy bit generator is built from strings and
    (arbitrary-precision) integers, both of which JSON round-trips exactly —
    PCG64's 128-bit state would overflow any fixed-width npz integer dtype,
    which is why the checkpoint format stores this string rather than the raw
    state values.
    """
    return json.dumps(rng.bit_generator.state)


def restore_generator_state(rng: np.random.Generator, state: str) -> np.random.Generator:
    """Restore a state produced by :func:`dump_generator_state` into ``rng``.

    The restore is in place (the generator object keeps its identity, so every
    component sharing it sees the restored stream) and refuses a state from a
    different bit-generator family instead of silently desynchronising.
    """
    decoded = json.loads(str(state))
    expected = type(rng.bit_generator).__name__
    if decoded.get("bit_generator") != expected:
        raise ValueError(
            f"cannot restore RNG state: checkpoint was written by a "
            f"{decoded.get('bit_generator')!r} bit generator, this generator "
            f"is a {expected!r}"
        )
    rng.bit_generator.state = decoded
    return rng
