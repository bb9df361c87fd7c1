import random

import pytest

from mecdsa.curve import INFINITY, Point, is_on_curve, scalar_mul
from mecdsa.ecdsa import (
    ListNonceSource,
    SeededNonceSource,
    SystemNonceSource,
    hash_to_int,
)
from mecdsa.errors import FormatError, NonceExhaustedError
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    MultiSignature,
    format_signature,
    mkeygen,
    msign,
    mverify,
    parse_signature,
)
from mecdsa.opcount import Trace
from mecdsa.registry import default_registry

from .conftest import TEST17, toy_tuple
from .oracles import ecdsa_sign_oracle, ecdsa_verify_oracle, repeated_add

# SHA-256 of the empty input, a fixed public constant
SHA256_EMPTY = 0xE3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855


# Plain ECDSA is MECDSA over a one-curve config.
ONE17 = MultiCurveConfig((TEST17,))


def toy_keypair(d):
    q = scalar_mul(d, TEST17.base, TEST17)
    return MultiCurveKeypair(ONE17, (d,), (q,))


def verify(message, r, s, kp):
    return mverify(message, MultiSignature(r, (s,)), kp.q, kp.config)


def test_hash_is_deterministic():
    assert hash_to_int(b"same bytes") == hash_to_int(b"same bytes")


def test_hash_of_empty_message():
    assert hash_to_int(b"") == SHA256_EMPTY


def test_hash_differs_on_one_byte():
    assert hash_to_int(b"message-0") != hash_to_int(b"message-1")


def test_keygen_unit_scalar_gives_base_point():
    kp = mkeygen(ONE17, ListNonceSource([1]))
    assert kp.q == (TEST17.base,)


def test_keygen_matches_repeated_addition():
    (q,) = mkeygen(ONE17, ListNonceSource([7])).q
    expected = repeated_add(7, (TEST17.gx, TEST17.gy), TEST17.a, TEST17.p)
    assert (q.x, q.y) == expected


def test_keygen_random_keys_land_on_curve():
    c = default_registry().get("secp256k1")
    config = MultiCurveConfig((c,))
    rng = SeededNonceSource(1234)
    for _ in range(100):
        kp = mkeygen(config, rng)
        (d,), (q,) = kp.d, kp.q
        assert 1 <= d <= c.n - 1
        assert not q.is_infinity and is_on_curve(q, c)


def test_sign_matches_straight_line_oracle():
    toy = toy_tuple(TEST17)
    for d, k, message in [(11, 5, b"beta"), (2, 13, b"gamma"), (16, 6, b"delta")]:
        want = ecdsa_sign_oracle(message, d, k, toy)
        got = msign(message, toy_keypair(d), ListNonceSource([k]))
        assert (got.r, *got.s) == want


def test_sign_skips_nonce_with_r_zero():
    # k = 7 lands on the x = 0 point of TEST17, so r = 0 forces a retry
    assert repeated_add(7, (TEST17.gx, TEST17.gy), TEST17.a, TEST17.p)[0] == 0
    kp = toy_keypair(5)
    trace = Trace()
    src = ListNonceSource([7, 3])
    with_retry = msign(b"retry", kp, src, trace)
    direct = msign(b"retry", kp, ListNonceSource([3]))
    assert with_retry == direct
    assert (trace.retries, trace.restarts) == (1, 0)
    assert src.consumed == 2


def test_sign_skips_nonce_with_s_zero():
    # engineer d so that e + d*r = 0 (mod n) for the k = 1 attempt (r = 5)
    message = b"s-zero"
    e = hash_to_int(message)
    d = (-e) * pow(5, TEST17.n - 2, TEST17.n) % TEST17.n
    assert 1 <= d <= TEST17.n - 1
    kp = toy_keypair(d)
    trace = Trace()
    got = msign(message, kp, ListNonceSource([1, 2]), trace)
    # s = 0 spoils the shared r, so it restarts the pass, also at t = 1
    assert (trace.retries, trace.restarts) == (0, 1)
    assert got == msign(message, kp, ListNonceSource([2]))
    assert verify(message, got.r, *got.s, kp)


def test_sign_is_deterministic_for_fixed_inputs():
    kp = toy_keypair(9)
    a = msign(b"fixed", kp, ListNonceSource([4]))
    b = msign(b"fixed", kp, ListNonceSource([4]))
    assert a == b


def test_nonce_exhaustion_raises():
    kp = toy_keypair(5)
    with pytest.raises(NonceExhaustedError):
        msign(b"over", kp, ListNonceSource([7]))  # r = 0, then empty


def test_list_nonce_source_rejects_out_of_range():
    src = ListNonceSource([0])
    with pytest.raises(ValueError):
        src.draw(TEST17.n)
    with pytest.raises(ValueError):
        ListNonceSource([19]).draw(TEST17.n)


def test_system_nonce_source_range():
    src = SystemNonceSource()
    for _ in range(50):
        assert 1 <= src.draw(19) <= 18


def test_roundtrip_all_builtin_curves():
    registry = default_registry()
    rng = SeededNonceSource(777)
    rnd = random.Random(777)
    for name in registry.names():
        config = MultiCurveConfig((registry.get(name),))
        for _ in range(100):
            kp = mkeygen(config, rng)
            message = rnd.randbytes(64)
            sig = msign(message, kp, rng)
            assert verify(message, sig.r, *sig.s, kp)


def test_single_byte_perturbations_refuse():
    registry = default_registry()
    rng = SeededNonceSource(31337)
    rnd = random.Random(31337)
    cases = 0
    while cases < 100:
        config = MultiCurveConfig((registry.get(rnd.choice(registry.names())),))
        kp = mkeygen(config, rng)
        message = bytearray(rnd.randbytes(32))
        sig = msign(bytes(message), kp, rng)
        r, (s,) = sig.r, sig.s
        which = rnd.choice(("m", "r", "s"))
        if which == "m":
            idx = rnd.randrange(len(message))
            message[idx] ^= 1 << rnd.randrange(8)
            assert not verify(bytes(message), r, s, kp)
        elif which == "r":
            flipped = r ^ (1 << rnd.randrange(r.bit_length()))
            assert not verify(bytes(message), flipped, s, kp)
        else:
            flipped = s ^ (1 << rnd.randrange(s.bit_length()))
            assert not verify(bytes(message), r, flipped, kp)
        cases += 1


def test_verify_rejects_out_of_range_components():
    kp = toy_keypair(5)
    sig = msign(b"bounds", kp, ListNonceSource([3]))
    r, (s,) = sig.r, sig.s
    n = TEST17.n
    assert not verify(b"bounds", 0, s, kp)
    assert not verify(b"bounds", r, 0, kp)
    assert not verify(b"bounds", n, s, kp)
    assert not verify(b"bounds", r, n, kp)


def test_verify_rejects_junk_public_keys():
    kp = toy_keypair(5)
    sig = msign(b"pubkey", kp, ListNonceSource([3]))
    for junk in (INFINITY, Point(1, 1), Point(200, 1)):  # O, off curve, out of field
        assert not mverify(b"pubkey", sig, (junk,), ONE17)


def test_malleated_s_agrees_with_oracle():
    toy = toy_tuple(TEST17)
    kp = toy_keypair(7)
    message = b"malleability"
    sig = msign(message, kp, ListNonceSource([3]))
    r, flipped = sig.r, TEST17.n - sig.s[0]
    ours = verify(message, r, flipped, kp)
    (q,) = kp.q
    assert ours == ecdsa_verify_oracle(message, r, flipped, (q.x, q.y), toy)


def test_verify_recovers_the_nonce_point():
    # the recomputed point R inside verify equals k*P from signing
    kp = toy_keypair(11)
    sign_trace, verify_trace = Trace(), Trace()
    sig = msign(b"identity", kp, ListNonceSource([6]), sign_trace)
    assert mverify(b"identity", sig, kp.q, ONE17, verify_trace)
    assert verify_trace.points == sign_trace.points
    assert verify_trace.r_values == sign_trace.r_values


def test_signature_text_roundtrip():
    sig = MultiSignature(0x1F, (0x2A,))
    assert format_signature(sig) == "1f:2a"
    assert parse_signature("1f:2a") == sig
    with pytest.raises(FormatError):
        parse_signature("1f")
    with pytest.raises(FormatError):
        parse_signature("1f:zz")
