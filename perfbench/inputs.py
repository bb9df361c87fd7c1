"""Inputs of the benchmark's workloads, made from the run's seed.

``run.py``, which checks the program's outputs, and ``worker.py``, which
drives the program, both build their inputs here, so one seed gives the
same messages, nonces and keys on both sides.  Everything is derived
from a label string, never from shared generator state, so the input of
operation i does not depend on how many operations ran before it.

This module also holds the benchmark's own copy of the signature wire
format (version byte, t, then a 2-byte length and the minimal big-endian
bytes of r, s_1..s_t), so that inputs can be encoded and tampered with
without calling the program, and the one cli-t2 operation, ``cli_pair``,
which run.py drives as processes and the traced worker in process.
Standard library only: the worker imports it, and its set-up time is
measured.
"""

import random

CURVE_NAMES = ("secp256k1", "p256")
# Group orders of secp256k1 (SEC 2 v2) and P-256 (FIPS 186-4), in that order.
ORDERS = (
    0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)
# One round of sign-t2 signs one message of each length.
MESSAGE_LENGTHS = (32, 64, 128, 256, 512, 1024, 2048, 4096)

SIGN_ROUND = len(MESSAGE_LENGTHS)
# verify-t2 rounds: 16 signatures, of which 2 malleated and 2 tampered.
VERIFY_ROUND = 16
VERIFY_MALLEATED = 2
VERIFY_TAMPERED = 2
# cli-t2 rounds: 4 sign/verify pairs, of which 1 verifies a tampered file.
CLI_ROUND = 4
TAMPER_KINDS = ("message", "s", "r")
FILE_TAMPER_KINDS = ("s", "r")


def rng(workload, seed, *labels):
    """A generator private to one (workload, seed, labels) triple."""
    return random.Random(":".join(str(part) for part in (workload, seed) + labels))


def scalar(gen, n):
    """Uniform in [1, n - 1] by rejection sampling."""
    while True:
        k = gen.getrandbits(n.bit_length())
        if 1 <= k < n:
            return k


def message(workload, seed, index):
    length = MESSAGE_LENGTHS[index % len(MESSAGE_LENGTHS)]
    return rng(workload, seed, "message", index).randbytes(length)


def nonces(workload, seed, index):
    gen = rng(workload, seed, "nonces", index)
    return tuple(scalar(gen, n) for n in ORDERS)


def signing_key(workload, seed, label="key"):
    gen = rng(workload, seed, label)
    return tuple(scalar(gen, n) for n in ORDERS)


def verify_round_plan(seed, round_index):
    """Variant of each signature in one verify-t2 round, in order:
    "genuine", "malleated" or a tamper kind from TAMPER_KINDS."""
    gen = rng("verify-t2", seed, "plan", round_index)
    plan = ["genuine"] * VERIFY_ROUND
    slots = gen.sample(range(VERIFY_ROUND), VERIFY_MALLEATED + VERIFY_TAMPERED)
    for slot in slots[:VERIFY_MALLEATED]:
        plan[slot] = "malleated"
    for slot in slots[VERIFY_MALLEATED:]:
        plan[slot] = gen.choice(TAMPER_KINDS)
    return plan


def cli_round_plan(seed, round_index):
    """(pair index within the round whose file is tampered, tamper kind)."""
    gen = rng("cli-t2", seed, "plan", round_index)
    return gen.randrange(CLI_ROUND), gen.choice(FILE_TAMPER_KINDS)


def encode_wire(r, ss):
    out = bytearray((0x01, len(ss)))
    for value in (r, *ss):
        blob = value.to_bytes((value.bit_length() + 7) // 8, "big")
        out += len(blob).to_bytes(2, "big") + blob
    return bytes(out)


def decode_wire(data):
    """(r, [s_1..s_t]) from the wire format; ValueError if malformed."""
    if len(data) < 2 or data[0] != 0x01:
        raise ValueError("bad signature header")
    offset, values = 2, []
    for _ in range(data[1] + 1):
        length = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        blob = data[offset : offset + length]
        if len(blob) != length:
            raise ValueError("truncated signature")
        values.append(int.from_bytes(blob, "big"))
        offset += length
    if offset != len(data):
        raise ValueError("trailing bytes after signature")
    return values[0], values[1:]


def _step(value, high):
    """value + 1, or value - 1 where value + 1 would exceed ``high``."""
    return value + 1 if value + 1 <= high else value - 1


def tamper(r, ss, kind, which):
    """A signature that still passes every range check but must be refused:
    r moved by one, or s_which moved by one."""
    ss = list(ss)
    if kind == "r":
        return _step(r, sum(ORDERS[: len(ss)]) - len(ss)), ss
    ss[which] = _step(ss[which], ORDERS[which] - 1)
    return r, ss


def flip_bit(data, index):
    """data with bit ``index % (8 * len(data))`` inverted."""
    bit = index % (8 * len(data))
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def keygen_argv(seed, key, label):
    """`mecdsa keygen` arguments for a cli-t2 key at ``key``.sec/.pub."""
    keyseed = format(rng("cli-t2", seed, "keygen", label).getrandbits(64) | 1, "x")
    return ["keygen", "--seed", keyseed, "--secret-out", key + ".sec", "--public-out", key + ".pub"]


def _write_new(path, data):
    # Always a new file: on some filesystems reopening a file that holds
    # data for writing costs far more than creating one.
    with open(path, "xb") as fh:
        fh.write(data)


def cli_pair(call, tmp, seed, index, tamper_kind, key):
    """One cli-t2 operation: `sign` a fresh message into a new file, then
    `verify` that file, or a tampered copy of it when ``tamper_kind`` is
    set.  ``call(argv)`` runs `mecdsa <argv>` and returns
    (exit code, stdout, seconds, peak RSS in KiB); ``key`` is the path of
    the key files without their .sec/.pub suffix.  Returns both calls'
    results and the signature file's path and text.
    """
    msg_path = f"{tmp}/m{index}.bin"
    sig_path = f"{tmp}/s{index}.sig"
    _write_new(msg_path, message("cli-t2", seed, index))
    ks = ",".join(format(k, "x") for k in nonces("cli-t2", seed, index))
    sign = call(["sign", "--key", key + ".sec", "--in", msg_path, "--out", sig_path, "--nonces", ks])
    try:
        with open(sig_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        text = ""
    verify_path = sig_path
    if tamper_kind is not None:
        verify_path = f"{tmp}/t{index}.sig"
        old_hex = text.rpartition("signature = ")[2].strip()
        try:
            r, ss = decode_wire(bytes.fromhex(old_hex))
            new_hex = encode_wire(*tamper(r, ss, tamper_kind, index % len(ss))).hex()
        except (ValueError, IndexError, ZeroDivisionError):
            new_hex = old_hex
        _write_new(verify_path, text.replace(old_hex, new_hex).encode())
    verify = call(["verify", "--public", key + ".pub", "--in", msg_path, "--sig", verify_path])
    return {"sign": sign, "verify": verify, "text": text, "sig_path": sig_path}
