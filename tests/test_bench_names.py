"""The benchmark's tracer patches package names by path; every name it
wraps must still exist, or a traced benchmark run stops with exit 70."""

import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "target", [target for target, _, _ in tracer.TARGETS] + ["divcast.experiment:make_crps_runner"]
)
def test_traced_name_resolves(target):
    owner, attr = tracer._resolve(target)
    assert callable(getattr(owner, attr))
