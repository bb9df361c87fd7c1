"""Benchmark of mecdsa at t = 2 (secp256k1 + P-256): signing and verifying
in process, and one `mecdsa sign` plus one `mecdsa verify` process.

    python3 perfbench/run.py --workload sign-t2|verify-t2|cli-t2 \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It drives that checkout's own src/
(PYTHONPATH=src), from one client that waits for each operation before
the next.  Every output is checked against checker.py, which recomputes
it with OpenSSL and plain integers; an output that disagrees counts as a
failed operation.  The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1.  README.md describes
the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checker
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sign-t2", "verify-t2", "cli-t2")
# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 11
# Processes per front-end probe of the traced run.
PROBE_SAMPLES = 9
# The verify-t2 corpus holds this many rounds of distinct keys.
CORPUS_ROUNDS = 256
CHILD_TIMEOUT = 120

clock = time.perf_counter


class Child:
    """A finished child process: exit code, stdout, seconds from start to
    exit, seconds from start to its "ready" line (or None) and peak
    resident set size in KiB."""

    def __init__(self, code, stdout, seconds, ready, rss_kib):
        self.code, self.stdout = code, stdout
        self.seconds, self.ready, self.rss_kib = seconds, ready, rss_kib


def run_child(argv, timeout=CHILD_TIMEOUT, wait_ready=False):
    """Run argv to its end and reap it with wait4, for its own peak RSS.
    A watchdog kills it after ``timeout`` seconds."""
    holder = []
    watchdog = threading.Timer(timeout, lambda: holder and holder[0].kill())
    watchdog.start()
    start = clock()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=None if wait_ready else subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT,
        text=True,
    )
    holder.append(proc)
    try:
        ready = None
        if wait_ready and proc.stdout.readline() == "ready\n":
            ready = clock() - start
        stdout = proc.stdout.read()
        if proc.stderr:
            proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if proc.stderr:
            proc.stderr.close()
    return Child(proc.returncode, stdout, seconds, ready, usage.ru_maxrss)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cli_call(argv):
    child = run_child([sys.executable, "-m", "mecdsa.cli", *argv])
    return child.code, child.stdout, child.seconds, child.rss_kib


def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


class Tally:
    """Operations attempted and failed, and checks outside any operation."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok
        return ok


def rounds_of(values, size):
    return [values[i : i + size] for i in range(0, len(values), size)]


def latency_metrics(latencies, size):
    """p50 per operation, and ops_per_s: the median over rounds of the
    round's operations divided by the time they took."""
    return {
        "ops_per_s": (statistics.median(size / sum(r) for r in rounds_of(latencies, size)), "1/s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
    }


def check_cli_pair(seed, index, pair, ds, tampered):
    message = inputs.message("cli-t2", seed, index)
    ks = inputs.nonces("cli-t2", seed, index)
    code, stdout = pair["sign"][:2]
    signed = checker.check_cli_sign(message, ds, ks, pair["sig_path"], code, stdout, pair["text"])
    verified = checker.check_cli_verify(not tampered, *pair["verify"][:2])
    return signed and verified


def cli_tampered(seed, index):
    rnd, slot = divmod(index, inputs.CLI_ROUND)
    tamper_slot, kind = inputs.cli_round_plan(seed, rnd)
    return kind if slot == tamper_slot else None


def signature_length(text):
    return len(bytes.fromhex(text.rpartition("signature = ")[2].strip()))


class Run:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.tmp = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
        self.tally = Tally()
        self.corpus_expected = None

    def worker_argv(self, *extra):
        a = self.args
        argv = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(a.trace),
            "--tmp", self.tmp,
        ]
        if self.corpus_expected is not None:
            argv += ["--corpus", os.path.join(self.tmp, "corpus.txt")]
        return argv + list(extra)

    def build_corpus(self):
        lines, self.corpus_expected = checker.verify_corpus(self.seed, CORPUS_ROUNDS)
        self.corpus_lines = lines
        with open(os.path.join(self.tmp, "corpus.txt"), "x", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def run_worker(self, *extra):
        child = run_child(self.worker_argv(*extra), self.args.seconds + CHILD_TIMEOUT, wait_ready=True)
        if child.code != 0 or child.ready is None:
            fail(f"worker exited with code {child.code}")
        return child

    def worker_result(self, child):
        try:
            return json.loads(child.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            fail("worker printed no result")

    def check_worker_ops(self, result):
        """Check each operation's output; returns the signature lengths."""
        workload, seed, tally = self.args.workload, self.seed, self.tally
        miscounted = set(result.get("miscounted", ()))
        lengths = []
        if workload == "sign-t2":
            ds = inputs.signing_key(workload, seed)
            tally.correct &= checker.check_publics(ds, result["public"])
        elif workload == "cli-t2":
            ds = checker.check_key_files(
                read_text(result["key"] + ".sec"), read_text(result["key"] + ".pub")
            )
            tally.correct &= ds is not None
        for index, output in enumerate(result["outputs"]):
            if workload == "sign-t2":
                message = inputs.message(workload, seed, index)
                ks = inputs.nonces(workload, seed, index)
                ok = checker.check_signature(message, ds, ks, bytes.fromhex(output))
                lengths.append(len(output) // 2)
            elif workload == "verify-t2":
                position = index % len(self.corpus_expected)
                ok = output == ("1" if self.corpus_expected[position] else "0")
                lengths.append(len(self.corpus_lines[position].split()[3]) // 2)
            else:
                ok = ds is not None and check_cli_pair(
                    seed, index, output, ds, cli_tampered(seed, index)
                )
                if ok:
                    lengths.append(signature_length(output["text"]))
            tally.op(ok and index not in miscounted)
        return lengths

    def in_process(self):
        """sign-t2 or verify-t2: set-up samples, then the measured worker."""
        if self.args.workload == "verify-t2":
            self.build_corpus()
        run_child([sys.executable, "-c", "import mecdsa"])  # bytecode and file cache
        setups = [self.run_worker("--setup-only").ready for _ in range(SETUP_SAMPLES - 1)]
        child = self.run_worker()
        setups.append(child.ready)
        result = self.worker_result(child)
        size = inputs.SIGN_ROUND if self.args.workload == "sign-t2" else inputs.VERIFY_ROUND
        lengths = self.check_worker_ops(result)
        metrics = latency_metrics(result["latencies"], size)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (child.rss_kib / 1024, "MiB")
        metrics["sig_bytes"] = (statistics.fmean(lengths) if lengths else 0.0, "bytes")
        return metrics

    def cli_setup(self, sample):
        """One set-up of cli-t2: a `keygen` process and a warm-up `sign`.
        Returns (seconds, key path, the key's scalars or None)."""
        key = os.path.join(self.tmp, f"key{sample}")
        label = f"warm{sample}"
        message = inputs.message("cli-t2", self.seed, sample)
        ks = inputs.nonces("cli-t2", self.seed, label)
        msg_path = os.path.join(self.tmp, label + ".bin")
        sig_path = msg_path + ".sig"
        with open(msg_path, "xb") as fh:
            fh.write(message)
        start = clock()
        keygen = cli_call(inputs.keygen_argv(self.seed, key, sample))
        sign = cli_call(
            ["sign", "--key", key + ".sec", "--in", msg_path, "--out", sig_path,
             "--nonces", ",".join(format(k, "x") for k in ks)]
        )
        seconds = clock() - start
        ds = checker.check_key_files(read_text(key + ".sec"), read_text(key + ".pub"))
        self.tally.correct &= (
            keygen[0] == 0
            and ds is not None
            and checker.check_cli_sign(message, ds, ks, sig_path, *sign[:2], read_text(sig_path))
        )
        return seconds, key, ds

    def cli_processes(self):
        """cli-t2: set-up samples, then sign/verify process pairs."""
        run_child([sys.executable, "-c", "import mecdsa.cli"])  # bytecode and file cache
        setups = [self.cli_setup(sample) for sample in range(SETUP_SAMPLES)]
        _, key, ds = setups[-1]
        latencies, lengths, rss = [], [], 0
        deadline = clock() + self.args.seconds
        index = 0
        while index == 0 or clock() < deadline:
            for _ in range(inputs.CLI_ROUND):
                tampered = cli_tampered(self.seed, index)
                pair = inputs.cli_pair(cli_call, self.tmp, self.seed, index, tampered, key)
                ok = ds is not None and check_cli_pair(self.seed, index, pair, ds, tampered)
                if self.tally.op(ok):
                    lengths.append(signature_length(pair["text"]))
                latencies.append(pair["sign"][2] + pair["verify"][2])
                rss = max(rss, pair["sign"][3], pair["verify"][3])
                index += 1
        metrics = latency_metrics(latencies, inputs.CLI_ROUND)
        metrics["setup_s"] = (statistics.median(s[0] for s in setups), "s")
        metrics["peak_rss_mb"] = (rss / 1024, "MiB")
        metrics["sig_bytes"] = (statistics.fmean(lengths) if lengths else 0.0, "bytes")
        return metrics

    def traced(self):
        """Per-layer metrics: front-end probes, then the traced worker."""
        py = sys.executable
        run_child([py, "-c", "import mecdsa.cli"])  # bytecode and file cache
        bare = statistics.median(run_child([py, "-c", "pass"]).seconds for _ in range(PROBE_SAMPLES))
        imported = statistics.median(
            run_child([py, "-c", "import mecdsa.cli"]).seconds for _ in range(PROBE_SAMPLES)
        )
        if self.args.workload == "verify-t2":
            self.build_corpus()
        trace_file = os.path.join(OUT, f"trace-{self.args.workload}-{self.seed}-{os.getpid()}.jsonl")
        result = self.worker_result(self.run_worker("--trace-file", trace_file))
        self.check_worker_ops(result)
        self.tally.correct &= result["probe_ok"]
        metrics = {name: tuple(value) for name, value in result["layer"].items()}
        metrics["cli.interpreter_ms"] = (bare * 1e3, "ms")
        metrics["cli.import_ms"] = ((imported - bare) * 1e3, "ms")
        return metrics

    def run(self):
        os.makedirs(self.tmp)
        try:
            if self.args.trace:
                metrics = self.traced()
            elif self.args.workload == "cli-t2":
                metrics = self.cli_processes()
            else:
                metrics = self.in_process()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        tally = self.tally
        return {
            "correct": bool(tally.correct),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "mecdsa", "__init__.py")):
        fail(f"no mecdsa package under {SRC}; run from the root of a checkout")
    os.makedirs(OUT, exist_ok=True)
    result = Run(args).run()
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(OUT, name), "x", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
