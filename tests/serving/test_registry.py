"""Registry wiring: names and classes."""

import pytest

from repro.models import P3GM, VAE
from repro.serving import (
    MODEL_REGISTRY,
    get_model_spec,
    registered_synthesizers,
    resolve_model_class,
)


def test_registry_covers_all_six_synthesizers():
    assert registered_synthesizers() == ("dp-gm", "dp-vae", "p3gm", "pgm", "privbayes", "vae")


def test_get_model_spec_is_case_insensitive_and_validates():
    assert get_model_spec("P3GM").cls is P3GM
    assert get_model_spec("vae").cls is VAE
    with pytest.raises(KeyError, match="registered synthesizers"):
        get_model_spec("gpt")


def test_resolve_model_class_round_trips_every_spec():
    for spec in MODEL_REGISTRY.values():
        assert resolve_model_class(spec.cls.__name__) is spec.cls
    with pytest.raises(KeyError, match="known classes"):
        resolve_model_class("Unknown")
