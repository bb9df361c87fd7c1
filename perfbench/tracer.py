"""Spans around the program's public functions, for the traced run.

``Tracer.install`` replaces each traced function by a wrapper in every
module that looks it up: a module that did ``from mecdsa.curve import
decode_point`` holds its own reference, which is patched as well.
``uninstall`` puts the originals back, so untraced rounds of the same run
call the program exactly as an untraced run does.

A span is (name, parent span index, start, end, operation index).  Spans
stay in memory until ``write`` saves them, one JSON array per line.  A
span's self time is its duration minus that of its direct children.
"""

import contextlib
import json
import statistics
import time

_clock = time.perf_counter

# (span name, defining module, function, modules that also bind the name)
_FUNCTIONS = (
    ("curve.point_add", "curve", "point_add", ()),
    ("curve.is_on_curve", "curve", "is_on_curve", ()),
    ("curve.decode_point", "curve", "decode_point", ("registry", "cli")),
    ("curve.validate_curve_params", "curve", "validate_curve_params", ("registry", "cli")),
    ("fieldmath.sqrt_mod", "fieldmath", "sqrt_mod", ("curve",)),
    ("fieldmath.is_probable_prime", "fieldmath", "is_probable_prime", ("curve",)),
    ("kernels.mod_inv", "_kernels", "mod_inv", ()),
    ("ecdsa.hash_to_int", "ecdsa", "hash_to_int", ("multi",)),
    ("multi.encode_multisig", "multi", "encode_multisig", ("cli",)),
    ("multi.decode_multisig", "multi", "decode_multisig", ("cli",)),
)

_COUNT_FIELDS = ("ec_mul", "ec_add", "field_inv", "field_mul", "field_add")

_BASE, _VAR = "curve.scalar_mul_base", "curve.scalar_mul_var"
# (metric, span names, statistic, unit).  "call" is the median duration
# per call, "self" the median self time per call, "calls" the number of
# calls per traced operation.
_METRICS = (
    ("curve.scalar_mul_base_ms", (_BASE,), "call", "ms"),
    ("curve.scalar_mul_var_ms", (_VAR,), "call", "ms"),
    ("curve.scalar_mul_calls", (_BASE, _VAR), "calls", "count"),
    ("curve.point_add_us", ("curve.point_add",), "call", "us"),
    ("curve.is_on_curve_us", ("curve.is_on_curve",), "call", "us"),
    ("curve.is_on_curve_calls", ("curve.is_on_curve",), "calls", "count"),
    ("curve.decode_point_us", ("curve.decode_point",), "call", "us"),
    ("curve.validate_curve_params_ms", ("curve.validate_curve_params",), "call", "ms"),
    ("fieldmath.sqrt_mod_us", ("fieldmath.sqrt_mod",), "call", "us"),
    ("fieldmath.is_probable_prime_ms", ("fieldmath.is_probable_prime",), "call", "ms"),
    ("fieldmath.is_probable_prime_calls", ("fieldmath.is_probable_prime",), "calls", "count"),
    ("kernels.mod_inv_us", ("kernels.mod_inv",), "call", "us"),
    ("kernels.mod_inv_calls", ("kernels.mod_inv",), "calls", "count"),
    ("registry.build_ms", ("registry.build",), "call", "ms"),
    ("ecdsa.hash_to_int_us", ("ecdsa.hash_to_int",), "call", "us"),
    ("multi.msign_ms", ("multi.msign",), "call", "ms"),
    ("multi.msign_self_ms", ("multi.msign",), "self", "ms"),
    ("multi.mverify_ms", ("multi.mverify",), "call", "ms"),
    ("multi.mverify_self_ms", ("multi.mverify",), "self", "ms"),
    ("multi.encode_multisig_us", ("multi.encode_multisig",), "call", "us"),
    ("multi.decode_multisig_us", ("multi.decode_multisig",), "call", "us"),
    ("cli.main_sign_ms", ("cli.main_sign",), "call", "ms"),
    ("cli.main_verify_ms", ("cli.main_verify",), "call", "ms"),
)
_SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    def __init__(self, modules):
        """``modules`` maps short names ("curve", "multi", ...) to the
        imported ``mecdsa`` modules, ``cli`` included."""
        from mecdsa.bench import predicted_counts
        from mecdsa.opcount import Trace

        self.spans = []
        self.op = None
        self.counts = []  # (operation index, OpCounts, as predicted?) per call
        self._stack = []
        self._patches = []
        self._installed = False
        m = modules
        for name, home, attr, others in _FUNCTIONS:
            wrapper = self._wrap(getattr(m[home], attr), name)
            for owner in (home, *others):
                self._patches.append((m[owner], attr, wrapper))

        scalar_mul = m["curve"].scalar_mul

        def base_or_var(k, pt, c):
            return _BASE if (pt.x, pt.y) == (c.gx, c.gy) else _VAR

        self._patches.append((m["curve"], "scalar_mul", self._wrap(scalar_mul, base_or_var)))

        msign, mverify = m["multi"].msign, m["multi"].mverify

        def counted_msign(message, keypair, nonces, trace=None):
            trace = Trace() if trace is None else trace
            result = msign(message, keypair, nonces, trace)
            self._check_counts(trace, predicted_counts("mecdsa", "sign", keypair.config.t))
            return result

        def counted_mverify(message, sig, publics, config, trace=None):
            trace = Trace() if trace is None else trace
            result = mverify(message, sig, publics, config, trace)
            self._check_counts(trace, predicted_counts("mecdsa", "verify", config.t))
            return result

        for attr, func in (("msign", counted_msign), ("mverify", counted_mverify)):
            wrapper = self._wrap(func, "multi." + attr)
            for owner in ("multi", "cli"):
                self._patches.append((m[owner], attr, wrapper))

        registry_cls = m["registry"].CurveRegistry
        self._patches.append(
            (registry_cls, "__init__", self._wrap(registry_cls.__init__, "registry.build"))
        )

        def main_kind(argv):
            return "cli.main_" + argv[0]

        self._patches.append((m["cli"], "main", self._wrap(m["cli"].main, main_kind)))
        self._originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                label = namer(*args, **kwargs) if namer else name
                spans[index] = (label, parent, start, end, self.op)

        return wrapper

    def _check_counts(self, trace, predicted):
        """Compare one msign/mverify call's Trace with the paper's cost
        table; a mismatch is charged to the current operation."""
        self.counts.append((self.op, trace.counts, trace.counts == predicted))

    def install(self):
        if not self._installed:
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self):
        if self._installed:
            for owner, attr, original in self._originals:
                setattr(owner, attr, original)
            self._installed = False

    def miscounted_ops(self):
        """Operation indices (None for set-up and probe calls) whose counts
        disagreed with the cost table."""
        return {op for op, _, ok in self.counts if not ok}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, ops):
        """Per-layer metrics.  Per-call times are medians over every call in
        the run, set-up and probe included; ``*_calls`` and the Trace counts
        are means over the ``ops`` traced operations."""
        durations, self_times, per_op = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for label, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (label, parent, start, end, op) in enumerate(self.spans):
            durations.setdefault(label, []).append(end - start)
            self_times.setdefault(label, []).append(end - start - child_time[index])
            if op is not None:
                per_op[label] = per_op.get(label, 0) + 1
        metrics = {}
        for name, labels, statistic, unit in _METRICS:
            if statistic == "calls":
                value = sum(per_op.get(label, 0) for label in labels) / max(ops, 1)
            else:
                values = (durations if statistic == "call" else self_times).get(labels[0], [])
                value = statistics.median(values) * _SCALE[unit] if values else 0.0
            metrics[name] = (value, unit)
        op_counts = [c for op, c, _ in self.counts if op is not None]
        for field in _COUNT_FIELDS:
            total = sum(getattr(c, field) for c in op_counts)
            metrics["multi." + field] = (total / max(ops, 1), "count")
        return metrics

    @contextlib.contextmanager
    def op_span(self, index):
        """One timed operation: a root span named "op" that its calls'
        spans hang from."""
        self.op = index
        span = len(self.spans)
        self.spans.append(None)
        self._stack.append(span)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[span] = ("op", -1, start, end, index)
            self.op = None
