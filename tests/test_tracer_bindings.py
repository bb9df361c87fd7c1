"""The benchmark's tracer patches names in the program's modules by hand
(``perfbench/tracer.py``).  Building it, installing it and taking it off
again here means a renamed or deleted binding fails this suite, not only
a traced benchmark run."""

import collections
import importlib.util
import os

from mecdsa import _kernels, cli, curve, ecdsa, fieldmath, multi, registry
from mecdsa.ecdsa import ListNonceSource
from mecdsa.opcount import Trace

from .conftest import TEST17, TOY23

_TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
_MODULES = {
    "_kernels": _kernels,
    "cli": cli,
    "curve": curve,
    "ecdsa": ecdsa,
    "fieldmath": fieldmath,
    "multi": multi,
    "registry": registry,
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(_MODULES)


def test_tracer_installs_and_uninstalls_over_the_real_modules():
    tracer = _tracer()
    before = [getattr(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.install()
    try:
        assert curve.is_on_curve(TEST17.base, TEST17)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["curve.is_on_curve"]
    assert [getattr(owner, attr) for owner, attr, _ in tracer._patches] == before


def test_tracer_sees_every_step_of_msign_and_mverify():
    # the scheme's steps must call the kernels through the module
    # attributes the tracer patches; a name bound at import escapes it
    config = multi.MultiCurveConfig((TEST17, TOY23))
    keypair = multi.mkeygen(config, ListNonceSource([12, 16]))
    tracer = _tracer()
    sign_trace = Trace()
    tracer.install()
    try:
        sig = multi.msign(b"traced", keypair, ListNonceSource([5, 9]), sign_trace)
        signed = len(tracer.spans)
        assert multi.mverify(b"traced", sig, keypair.q, config)
    finally:
        tracer.uninstall()
    assert not sign_trace.retried
    spans = {
        "msign": collections.Counter(span[0] for span in tracer.spans[:signed]),
        "mverify": collections.Counter(span[0] for span in tracer.spans[signed:]),
    }
    for call in ("msign", "mverify"):
        assert spans[call]["multi." + call] == 1
        assert spans[call]["kernels.mod_inv"] == 2
        assert spans[call]["ecdsa.hash_to_int"] == 1
    assert spans["msign"]["curve.scalar_mul_base"] == 2
    assert spans["msign"]["curve.is_on_curve"] == 0
    assert spans["mverify"]["curve.is_on_curve"] == 2
    assert tracer.miscounted_ops() == set()
