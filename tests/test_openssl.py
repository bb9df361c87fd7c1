"""ECDSA on secp256k1 and P-256 against OpenSSL, through the
``cryptography`` package, both ways.

Plain ECDSA is MECDSA at t = 1, so OpenSSL must accept a one-curve
``msign`` signature and each pair of a t-ECDSA signature, and ``mverify``
must accept OpenSSL's own signatures.  Both orders have 256 bits, so the
whole SHA-256 digest is e under either hash rule (see ``test_p224`` for a
curve where they differ), and OpenSSL is handed that digest prehashed.
"""

import hashlib

import pytest

from mecdsa.ecdsa import SeededNonceSource
from mecdsa.multi import (
    MultiCurveConfig,
    MultiSignature,
    mkeygen,
    msign,
    mverify,
    t_ecdsa_sign,
)
from mecdsa.registry import default_registry

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature  # noqa: E402
from cryptography.hazmat.primitives import hashes  # noqa: E402
from cryptography.hazmat.primitives.asymmetric import ec, utils  # noqa: E402

NAMES = ["secp256k1", "p256"]
OPENSSL_CURVES = {"secp256k1": ec.SECP256K1(), "p256": ec.SECP256R1()}
PREHASHED = ec.ECDSA(utils.Prehashed(hashes.SHA256()))
KEYS = 10


def _openssl_accepts(key, r, s, message) -> bool:
    der = utils.encode_dss_signature(r, s)
    try:
        key.public_key().verify(der, hashlib.sha256(message).digest(), PREHASHED)
    except InvalidSignature:
        return False
    return True


@pytest.mark.parametrize("name", NAMES)
def test_openssl_verifies_one_curve_msign(name):
    config = MultiCurveConfig((default_registry().get(name),))
    rng = SeededNonceSource(256)
    for i in range(KEYS):
        keypair = mkeygen(config, rng)
        (d,), (q,) = keypair.d, keypair.q
        key = ec.derive_private_key(d, OPENSSL_CURVES[name])
        numbers = key.public_key().public_numbers()
        assert (q.x, q.y) == (numbers.x, numbers.y)
        message = b"one-curve %s %d" % (name.encode(), i)
        sig = msign(message, keypair, rng)
        assert _openssl_accepts(key, sig.r, *sig.s, message), (name, i)
        assert not _openssl_accepts(key, sig.r, *sig.s, message + b"!"), (name, i)


def test_openssl_verifies_every_t_ecdsa_pair():
    config = MultiCurveConfig(tuple(default_registry().get(n) for n in NAMES))
    rng = SeededNonceSource(257)
    for i in range(KEYS):
        keypair = mkeygen(config, rng)
        message = b"t-ecdsa %d" % i
        sig = t_ecdsa_sign(message, keypair, rng)
        for name, d, pair in zip(NAMES, keypair.d, sig.pairs):
            key = ec.derive_private_key(d, OPENSSL_CURVES[name])
            assert _openssl_accepts(key, pair.r, *pair.s, message), (name, i)


@pytest.mark.parametrize("name", NAMES)
def test_mverify_accepts_openssl_signatures(name):
    config = MultiCurveConfig((default_registry().get(name),))
    rng = SeededNonceSource(258)
    for i in range(KEYS):
        keypair = mkeygen(config, rng)
        key = ec.derive_private_key(keypair.d[0], OPENSSL_CURVES[name])
        message = b"openssl-made %s %d" % (name.encode(), i)
        der = key.sign(hashlib.sha256(message).digest(), PREHASHED)
        r, s = utils.decode_dss_signature(der)
        sig = MultiSignature(r, (s,))
        assert mverify(message, sig, keypair.q, config), (name, i)
        tampered = [
            (message + b"!", sig),
            (message, MultiSignature(r ^ 1, (s,))),
            (message, MultiSignature(r, (s ^ 1,))),
        ]
        for msg, bad in tampered:
            assert not mverify(msg, bad, keypair.q, config), (name, i, bad)
