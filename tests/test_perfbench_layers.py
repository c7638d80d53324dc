"""The tracer of perfbench/layers.py patches pclie by attribute name, so a
renamed or removed binding only shows up when a traced benchmark run fails.
This checks every name it patches against the package, without installing
the tracer."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layers():
    path = os.path.join(ROOT, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pclie_module(name):
    return importlib.import_module(f"pclie.{name}")


def test_traced_names_resolve_on_the_package():
    layers = load_layers()
    for mod, attr, _ in layers.BINDINGS:
        assert callable(getattr(pclie_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls_name, meth, _ in layers.METHODS:
        cls = getattr(pclie_module(mod), cls_name)
        assert meth in cls.__dict__, f"{mod}.{cls_name}.{meth}"
    for mod, attr, _ in layers.CACHES:
        assert hasattr(getattr(pclie_module(mod), attr), "cache_info"), f"{mod}.{attr}"
