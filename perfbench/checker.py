"""The benchmark's independent checker.

It computes what the program ought to output without calling the
program: point multiplication by OpenSSL, through the ``cryptography``
package (both secp256k1 and P-256 are OpenSSL curves), and r, s_i and e
with ``hashlib`` and ``pow``.  Every ``check_*`` function returns a bool;
the caller counts a False as one failed operation and carries on.

It also builds the verify-t2 corpus, whose expected verdicts follow from
how each signature was made: genuine and malleated ones (s_i -> n_i - s_i)
must be accepted, tampered ones refused.
"""

import hashlib

from cryptography.hazmat.primitives.asymmetric import ec

import inputs

_OPENSSL_CURVES = (ec.SECP256K1(), ec.SECP256R1())
CURVES_LINE = ",".join(inputs.CURVE_NAMES)


def mul_base(k, i):
    """k * P on curve i, as OpenSSL computes it: the affine (x, y)."""
    numbers = ec.derive_private_key(k, _OPENSSL_CURVES[i]).public_key().public_numbers()
    return numbers.x, numbers.y


def public_points(ds):
    return [mul_base(d, i) for i, d in enumerate(ds)]


def compressed_hex(point):
    x, y = point
    return ("03" if y & 1 else "02") + x.to_bytes(32, "big").hex()


def uncompressed_hex(point):
    x, y = point
    return "04" + x.to_bytes(32, "big").hex() + y.to_bytes(32, "big").hex()


def hash_int(message):
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


def expected_signature(message, ds, ks):
    """(r, [s_i]) that msign must return for these keys and nonces.

    None when the nonces would make the program retry (r_i = 0,
    r = 0 mod n_i or s_i = 0); on random 256-bit nonces that never happens
    in practice.
    """
    e = hash_int(message)
    parts = [mul_base(k, i)[0] % n for i, (k, n) in enumerate(zip(ks, inputs.ORDERS))]
    r = sum(parts)
    if 0 in parts or any(r % n == 0 for n in inputs.ORDERS):
        return None
    ss = [pow(k, -1, n) * (e + d * r) % n for k, d, n in zip(ks, ds, inputs.ORDERS)]
    if 0 in ss:
        return None
    return r, ss


def expected_wire(message, ds, ks):
    expected = expected_signature(message, ds, ks)
    return None if expected is None else inputs.encode_wire(*expected)


def check_signature(message, ds, ks, sig_bytes):
    """The program's encoded signature equals the recomputed one."""
    expected = expected_wire(message, ds, ks)
    return expected is not None and sig_bytes == expected


def check_publics(ds, points):
    """points[i] == d_i * P_i, with points as (x, y) integer pairs."""
    return [tuple(p) for p in points] == public_points(ds)


def signature_document(sig_hex):
    return (
        f"version = 1\nscheme = mecdsa\ncurves = {CURVES_LINE}\n"
        f"signature = {sig_hex}\n"
    )


def check_cli_sign(message, ds, ks, out_path, rc, stdout, file_text):
    """`mecdsa sign` exited 0, said so, and wrote the recomputed signature."""
    expected = expected_wire(message, ds, ks)
    return (
        expected is not None
        and rc == 0
        and stdout == f"wrote {out_path} (mecdsa, t=2)\n"
        and file_text == signature_document(expected.hex())
    )


def check_cli_verify(expect_valid, rc, stdout):
    """`mecdsa verify` printed the expected verdict with its exit code."""
    if expect_valid:
        return rc == 0 and stdout == "VALID\n"
    return rc == 1 and stdout == "INVALID\n"


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_key_files(secret_text, public_text):
    """The scalars of a `mecdsa keygen` secret file, or None if either
    file disagrees with OpenSSL's d * P."""
    secret, public = parse_kv(secret_text), parse_kv(public_text)
    try:
        ds = tuple(int(v, 16) for v in secret["d"].split(","))
        q_text = [uncompressed_hex(p) for p in public_points(ds)]
    except (KeyError, ValueError):
        return None
    want_q = ",".join(q_text)
    ok = (
        secret.get("curves") == CURVES_LINE
        and public.get("curves") == CURVES_LINE
        and secret.get("q") == want_q
        and public.get("q") == want_q
    )
    return ds if ok else None


def verify_corpus(seed, rounds):
    """The verify-t2 corpus: ``rounds`` rounds of VERIFY_ROUND signatures.

    Every signature has its own fresh keypair.  Returns (lines, expected):
    one text line per signature, "flip q_1 q_2 sig" with flip the message
    bit to invert before verifying (-1 for none), keys as compressed hex
    and the signature as wire hex; and the verdict each must get.
    """
    lines, expected = [], []
    for rnd in range(rounds):
        for slot, variant in enumerate(inputs.verify_round_plan(seed, rnd)):
            index = rnd * inputs.VERIFY_ROUND + slot
            message = inputs.message("verify-t2", seed, index)
            attempt = 0
            while True:
                gen = inputs.rng("verify-t2", seed, "item", index, attempt)
                ds = tuple(inputs.scalar(gen, n) for n in inputs.ORDERS)
                ks = tuple(inputs.scalar(gen, n) for n in inputs.ORDERS)
                sig = expected_signature(message, ds, ks)
                if sig is not None:
                    break
                attempt += 1
            r, ss = sig
            which = gen.randrange(len(ss))
            flip = -1
            if variant == "malleated":
                ss[which] = inputs.ORDERS[which] - ss[which]
            elif variant == "message":
                flip = gen.randrange(8 * len(message))
            elif variant in ("r", "s"):
                r, ss = inputs.tamper(r, ss, variant, which)
            keys = " ".join(compressed_hex(p) for p in public_points(ds))
            lines.append(f"{flip} {keys} {inputs.encode_wire(r, ss).hex()}")
            expected.append(variant in ("genuine", "malleated"))
    return lines, expected
