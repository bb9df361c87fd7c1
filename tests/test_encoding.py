import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecdsa.ecdsa import SeededNonceSource
from mecdsa.errors import FormatError
from mecdsa.multi import (
    MultiCurveConfig,
    MultiSignature,
    decode_multisig,
    encode_multisig,
    mkeygen,
    msign,
)
from mecdsa.registry import default_registry

from .conftest import TEST17, TOY23


def test_known_layout():
    sig = MultiSignature(0x1234, (0x01, 0xFF00))
    blob = encode_multisig(sig)
    assert blob == bytes.fromhex("0102" + "0002" + "1234" + "0001" + "01" + "0002" + "ff00")
    assert decode_multisig(blob) == sig


def test_zero_components_encode_as_empty():
    sig = MultiSignature(0, (0,))
    blob = encode_multisig(sig)
    assert blob == bytes.fromhex("0101" + "0000" + "0000")
    assert decode_multisig(blob) == sig


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**300),
    st.lists(st.integers(min_value=0, max_value=2**257), min_size=1, max_size=8),
)
def test_roundtrip_property(r, ss):
    sig = MultiSignature(r, tuple(ss))
    assert decode_multisig(encode_multisig(sig)) == sig


def test_roundtrip_thousand_random_signatures():
    rnd = random.Random(505)
    for _ in range(1000):
        t = rnd.randrange(1, 6)
        sig = MultiSignature(
            rnd.randrange(0, 2**260),
            tuple(rnd.randrange(1, 2**256) for _ in range(t)),
        )
        assert decode_multisig(encode_multisig(sig)) == sig


def test_encode_rejects_bad_arity():
    with pytest.raises(FormatError):
        encode_multisig(MultiSignature(1, ()))
    with pytest.raises(FormatError):
        encode_multisig(MultiSignature(1, (1,) * 256))


def test_encode_rejects_negative_values():
    with pytest.raises(FormatError):
        encode_multisig(MultiSignature(-1, (1,)))


def test_encode_rejects_an_integer_above_the_length_prefix():
    # a 2-byte length prefix holds at most 0xFFFF bytes
    at_limit = MultiSignature(1 << (8 * 0xFFFF - 1), (1,))
    assert decode_multisig(encode_multisig(at_limit)) == at_limit
    with pytest.raises(FormatError, match="^integer too large for the wire format$"):
        encode_multisig(MultiSignature(1 << (8 * 0xFFFF), (1,)))


def test_decode_rejects_bad_version():
    blob = bytearray(encode_multisig(MultiSignature(5, (6,))))
    blob[0] = 0x02
    with pytest.raises(FormatError) as err:
        decode_multisig(bytes(blob))
    assert err.value.offset == 0


def test_decode_rejects_zero_count():
    with pytest.raises(FormatError) as err:
        decode_multisig(bytes.fromhex("0100"))
    assert err.value.offset == 1


def test_decode_rejects_truncation():
    blob = encode_multisig(MultiSignature(5, (6,)))
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            decode_multisig(blob[:cut])


def test_decode_rejects_trailing_bytes():
    blob = encode_multisig(MultiSignature(5, (6,)))
    with pytest.raises(FormatError) as err:
        decode_multisig(blob + b"\x00")
    assert err.value.offset == len(blob)


def test_decode_rejects_non_minimal_integers():
    # r = 5 encoded with a leading zero byte
    blob = bytes.fromhex("0101" + "0002" + "0005" + "0001" + "06")
    with pytest.raises(FormatError) as err:
        decode_multisig(blob)
    assert "non-minimal" in str(err.value)


def _payload_byte_bound(orders):
    # the formula bounds bits; a byte encoding rounds each component up
    t = len(orders)
    lengths = [n.bit_length() for n in orders]
    r_bytes = (max(lengths) + t - 1 + 7) // 8
    s_bytes = sum((l + 7) // 8 for l in lengths)
    return r_bytes + s_bytes


def _header_bytes(t):
    return 2 + 2 * (t + 1)


@pytest.mark.parametrize(
    "curve_names,toys",
    [(("secp256k1", "p256"), None), (None, (TEST17, TOY23)), (None, (TEST17,))],
)
def test_encoded_size_respects_formula_bound(curve_names, toys):
    if curve_names:
        registry = default_registry()
        curves = tuple(registry.get(n) for n in curve_names)
    else:
        curves = toys
    config = MultiCurveConfig(curves)
    rng = SeededNonceSource(99)
    rnd = random.Random(99)
    kp = mkeygen(config, rng)
    orders = [c.n for c in curves]
    for _ in range(25):
        sig = msign(rnd.randbytes(32), kp, rng)
        blob = encode_multisig(sig)
        assert len(blob) <= _payload_byte_bound(orders) + _header_bytes(config.t)
        # bit-level payload obeys the formula exactly
        payload_bits = sig.r.bit_length() + sum(s.bit_length() for s in sig.s)
        t = config.t
        formula = max(n.bit_length() for n in orders) + t - 1 + sum(
            n.bit_length() for n in orders
        )
        assert payload_bits <= formula


def test_t1_payload_within_double_order_bits():
    config = MultiCurveConfig((TEST17,))
    rng = SeededNonceSource(7)
    kp = mkeygen(config, rng)
    sig = msign(b"t1 length", kp, rng)
    payload_bits = sig.r.bit_length() + sig.s[0].bit_length()
    assert payload_bits <= 2 * TEST17.n.bit_length()
