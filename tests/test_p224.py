"""P-224 against OpenSSL, through the ``cryptography`` package.

P-224 has p = 1 (mod 4), so decoding its compressed points takes the
Tonelli-Shanks branch of ``sqrt_mod``; the four built-ins all have
p = 3 (mod 4).  Its order has 224 bits, fewer than SHA-256's 256, so it
also pins the hash rule of ``ecdsa.hash_to_int``: the whole digest is
reduced mod n, where FIPS 186-4 keeps the leftmost l(n) bits.
"""

import random

import pytest

from mecdsa.curve import CurveParams, Point, decode_point, validate_curve_params
from mecdsa.ecdsa import SeededNonceSource, hash_to_int
from mecdsa.multi import MultiCurveConfig, MultiCurveKeypair, msign

# Frozen from `openssl ecparam -name secp224r1 -param_enc explicit -text -noout`.
P224 = CurveParams(
    name="p224",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFE,
    b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
    gx=0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
    gy=0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
    h=1,
)


def _openssl_keys(count, seed):
    """(d, OpenSSL private key) pairs: d = 1, n - 1 and seeded scalars."""
    from cryptography.hazmat.primitives.asymmetric import ec

    rnd = random.Random(seed)
    scalars = [1, P224.n - 1] + [rnd.randrange(1, P224.n) for _ in range(count - 2)]
    return [(d, ec.derive_private_key(d, ec.SECP224R1())) for d in scalars]


def test_frozen_parameters_validate():
    assert P224.p % 4 == 1
    assert validate_curve_params(P224, strict=True).ok


def test_decode_compressed_points_matches_openssl():
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives import serialization

    compressed = serialization.PublicFormat.CompressedPoint
    for d, key in _openssl_keys(10, seed=224):
        public = key.public_key()
        blob = public.public_bytes(serialization.Encoding.X962, compressed)
        numbers = public.public_numbers()
        pt = decode_point(blob.hex(), P224)
        assert (pt.x, pt.y) == (numbers.x, numbers.y), d


def test_signature_verifies_under_openssl_only_with_whole_digest_rule():
    pytest.importorskip("cryptography")
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec, utils

    config = MultiCurveConfig((P224,))
    nonces = SeededNonceSource(2240)
    for i, (d, key) in enumerate(_openssl_keys(10, seed=2241)):
        public = key.public_key()
        numbers = public.public_numbers()
        message = b"p224 message %d" % i
        keypair = MultiCurveKeypair(config, (d,), (Point(numbers.x, numbers.y),))
        sig = msign(message, keypair, nonces)
        der = utils.encode_dss_signature(sig.r, *sig.s)
        # OpenSSL keeps the leftmost 224 bits of a 32-byte digest, so this
        # digest hands it exactly e mod n.
        digest = ((hash_to_int(message) % P224.n) << 32).to_bytes(32, "big")
        public.verify(der, digest, ec.ECDSA(utils.Prehashed(hashes.SHA256())))
        with pytest.raises(InvalidSignature):
            public.verify(der, message, ec.ECDSA(hashes.SHA256()))
