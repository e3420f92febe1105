"""The benchmark wraps ``lemon`` functions by name (``perfbench/layers.py``);
every one of them must stay importable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def wrapped_names() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


@pytest.mark.parametrize("name", wrapped_names())
def test_wrapped_name_resolves_to_a_callable(name):
    module, function = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"lemon.{module}"), function, None))
