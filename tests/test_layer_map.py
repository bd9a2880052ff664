"""The benchmark's traced run (perfbench/layers.py) wraps each layer named in
perfbench/layer_map.json by looking the function up on its robsat module, so
renaming or removing a traced layer must fail here, not only in a traced
benchmark run."""

import importlib
import inspect
import json
import os

import pytest

LAYER_MAP = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layer_map.json")

with open(LAYER_MAP, encoding="utf-8") as fh:
    LAYERS = sorted(json.load(fh)["layers"])


def test_layer_map_is_not_empty():
    assert LAYERS


@pytest.mark.parametrize("layer", LAYERS)
def test_traced_layer_is_a_function_of_its_module(layer):
    module_name, func_name = layer.rsplit(".", 1)
    module = importlib.import_module(f"robsat.{module_name}")
    assert inspect.isfunction(getattr(module, func_name, None)), layer
