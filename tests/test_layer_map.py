"""The benchmark's traced run (perfbench/layers.py) wraps each layer named in
perfbench/layer_map.json by looking the function up on its robsat module, so
renaming or removing a traced layer must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
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


def test_traced_layers_keep_the_attributes_the_tracer_reads(capsys):
    """Install the benchmark's tracer around one robustness(f, l2) call and
    one `decide --witness` CLI call: every layer with attributes records a
    span carrying all of them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(os.path.dirname(LAYER_MAP), "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from robsat import cli, instance_io
    from robsat.pl_map import Norm
    from robsat.robustness import robustness

    instances = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
    f = instance_io.load_file(os.path.join(instances, "square_identity.json")).f
    tracer = layers.Tracer()
    tracer.install()
    try:
        robustness(f, Norm.L2)
        cli.main(["decide", "-i", os.path.join(instances, "path_identity.json"),
                  "--alpha", "2", "--witness"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for layer, (names, _) in layers.ATTRIBUTES.items():
        recorded = [attrs for _, name, *_, attrs in tracer.spans if name == layer]
        assert recorded, layer
        assert all(set(names) <= set(attrs) for attrs in recorded), layer
