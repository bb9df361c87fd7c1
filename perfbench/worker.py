"""Drives the program inside one process: the sign-t2 and verify-t2 loops,
and, for the traced cli-t2 run, ``mecdsa.cli.main`` called in process.

run.py starts it as

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --tmp DIR [--corpus FILE] [--trace-file FILE] [--setup-only]

with PYTHONPATH set to the checkout's src/.  It sets up as a user of the
library would (import, registry, keys, one warm-up operation) and prints
"ready".  With --setup-only it stops there; otherwise it runs whole
rounds of operations until --seconds have passed and prints one JSON
object: each operation's latency and output, which run.py checks.

With --trace 1, rounds alternate between traced and untraced, so the
tracing overhead is measured within the run.  After the last round a
probe calls each traced function once, so that every per-call time is
measured on every workload.
"""

import argparse
import contextlib
import io
import json
import statistics
import time

import inputs

clock = time.perf_counter


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--corpus")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


def import_program(with_cli):
    import mecdsa  # noqa: F401  (the package import a library user pays)
    from mecdsa import _kernels, curve, ecdsa, fieldmath, multi, registry

    mods = {
        "_kernels": _kernels,
        "curve": curve,
        "ecdsa": ecdsa,
        "fieldmath": fieldmath,
        "multi": multi,
        "registry": registry,
    }
    if with_cli:
        from mecdsa import cli

        mods["cli"] = cli
    return mods


def two_curve_config(mods):
    reg = mods["registry"].default_registry()
    return mods["multi"].MultiCurveConfig(tuple(reg.get(n) for n in inputs.CURVE_NAMES))


def cli_caller(cli):
    """call(argv) -> (exit code, stdout, seconds, 0) for cli.main in process.
    ``cli.main`` is looked up on each call, so tracing sees it."""

    def call(argv):
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), clock() - start, 0

    return call


def setup_sign(mods, args):
    multi, ecdsa = mods["multi"], mods["ecdsa"]
    config = two_curve_config(mods)
    keypair = multi.mkeygen(config, ecdsa.ListNonceSource(inputs.signing_key("sign-t2", args.seed)))

    def op(index):
        message = inputs.message("sign-t2", args.seed, index)
        nonces = ecdsa.ListNonceSource(inputs.nonces("sign-t2", args.seed, index))
        start = clock()
        blob = multi.encode_multisig(multi.msign(message, keypair, nonces))
        return clock() - start, blob.hex()

    op(-1)
    return op, inputs.SIGN_ROUND, {"public": [[q.x, q.y] for q in keypair.q]}, None


def setup_verify(mods, args):
    multi, curve = mods["multi"], mods["curve"]
    config = two_curve_config(mods)
    c1, c2 = config.curves

    def parse(line):
        flip, q1, q2, sig = line.split()
        return int(flip), q1, q2, bytes.fromhex(sig)

    with open(args.corpus, encoding="utf-8") as fh:
        items = [parse(fh.readline())]

    def op(index):
        position = index % len(items)
        flip, q1, q2, blob = items[position]
        message = inputs.message("verify-t2", args.seed, position)
        if flip >= 0:
            message = inputs.flip_bit(message, flip)
        start = clock()
        publics = (curve.decode_point(q1, c1), curve.decode_point(q2, c2))
        ok = multi.mverify(message, multi.decode_multisig(blob), publics, config)
        return clock() - start, "1" if ok else "0"

    def load_corpus():
        with open(args.corpus, encoding="utf-8") as fh:
            items[:] = [parse(line) for line in fh]

    op(0)
    return op, inputs.VERIFY_ROUND, {}, load_corpus


def setup_cli(mods, args):
    call = cli_caller(mods["cli"])
    key = f"{args.tmp}/key"
    call(inputs.keygen_argv(args.seed, key, "worker"))

    def op(index):
        rnd, slot = divmod(index, inputs.CLI_ROUND)
        tamper_slot, kind = inputs.cli_round_plan(args.seed, rnd)
        pair = inputs.cli_pair(call, args.tmp, args.seed, index, kind if slot == tamper_slot else None, key)
        return pair["sign"][2] + pair["verify"][2], pair

    inputs.cli_pair(call, args.tmp, args.seed, -1, None, key)
    return op, inputs.CLI_ROUND, {"key": key}, None


SETUPS = {"sign-t2": setup_sign, "verify-t2": setup_verify, "cli-t2": setup_cli}


def run_rounds(op, size, seconds, tracer):
    latencies, outputs, traced = [], [], []
    deadline = clock() + seconds
    rnd = 0
    while True:
        on = tracer is not None and rnd % 2 == 0
        if tracer is not None:
            (tracer.install if on else tracer.uninstall)()
        for slot in range(size):
            index = rnd * size + slot
            if on:
                with tracer.op_span(index):
                    seconds_taken, output = op(index)
            else:
                seconds_taken, output = op(index)
            latencies.append(seconds_taken)
            outputs.append(output)
            traced.append(on)
        rnd += 1
        # a traced run needs at least one untraced round to compare with
        if clock() >= deadline and (tracer is None or rnd >= 2):
            return latencies, outputs, traced


def probe(mods, args):
    """Call every traced function once, outside any timed operation."""
    multi, ecdsa, curve = mods["multi"], mods["ecdsa"], mods["curve"]
    config = two_curve_config(mods)
    keypair = multi.mkeygen(
        config, ecdsa.ListNonceSource(inputs.signing_key(args.workload, args.seed, "probe"))
    )
    message = inputs.message(args.workload, args.seed, 0)
    nonces = ecdsa.ListNonceSource(inputs.nonces(args.workload, args.seed, "probe"))
    blob = multi.encode_multisig(multi.msign(message, keypair, nonces))
    publics = tuple(
        curve.decode_point(curve.compress_point(q, c).hex(), c)
        for q, c in zip(keypair.q, config.curves)
    )
    ok = multi.mverify(message, multi.decode_multisig(blob), publics, config)
    call = cli_caller(mods["cli"])
    key = f"{args.tmp}/probe-key"
    keygen = call(inputs.keygen_argv(args.seed, key, "probe"))
    pair = inputs.cli_pair(call, args.tmp, args.seed, 10**9, None, key)
    return ok and (keygen[0], pair["sign"][0], pair["verify"][0]) == (0, 0, 0)


def main():
    args = parse_args()
    tracing = bool(args.trace)
    mods = import_program(with_cli=tracing or args.workload == "cli-t2")
    tracer = None
    if tracing:
        from tracer import Tracer

        tracer = Tracer(mods)
        tracer.install()
    op, size, extra, finish_setup = SETUPS[args.workload](mods, args)
    print("ready", flush=True)
    if args.setup_only:
        return
    if finish_setup is not None:
        finish_setup()
    latencies, outputs, traced = run_rounds(op, size, args.seconds, tracer)
    result = {"latencies": latencies, "outputs": outputs, **extra}
    if tracer is not None:
        tracer.install()
        probe_ok = probe(mods, args)
        tracer.uninstall()
        on = [lat for lat, flag in zip(latencies, traced) if flag]
        off = [lat for lat, flag in zip(latencies, traced) if not flag]
        layer = tracer.summary(len(on))
        overhead = statistics.median(on) - statistics.median(off)
        layer["trace.overhead_ms"] = (overhead * 1e3, "ms")
        layer["trace.overhead_pct"] = (100 * overhead / statistics.median(off), "%")
        result["layer"] = layer
        result["miscounted"] = sorted(op for op in tracer.miscounted_ops() if op is not None)
        result["probe_ok"] = probe_ok and None not in tracer.miscounted_ops()
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
