"""The benchmark's tracer patches names in the program's modules by hand
(``perfbench/tracer.py``).  Building it, installing it and taking it off
again here means a renamed or deleted binding fails this suite, not only
a traced benchmark run."""

import importlib.util
import os

from mecdsa import _kernels, cli, curve, ecdsa, fieldmath, multi, registry

from .conftest import TEST17

_TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_over_the_real_modules():
    modules = {
        "_kernels": _kernels,
        "cli": cli,
        "curve": curve,
        "ecdsa": ecdsa,
        "fieldmath": fieldmath,
        "multi": multi,
        "registry": registry,
    }
    tracer = _tracer_module().Tracer(modules)
    before = [getattr(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.install()
    try:
        assert curve.is_on_curve(TEST17.base, TEST17)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["curve.is_on_curve"]
    assert [getattr(owner, attr) for owner, attr, _ in tracer._patches] == before
