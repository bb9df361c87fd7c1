"""Public keys outside the base point's subgroup, on a curve with h = 2.

SEC 1 v2 3.2.2.1 step 4 asks for n*Q = O when the cofactor is not 1.  On
TOY211 the point Q + T, with T of order two, satisfies the verification
equation u*G + v*(Q + T) = R for every signature by Q whose v = r/s is
even, so without that check about half of Q's signatures verify under a
public key outside <G>.
"""

from mecdsa.cli import main
import pytest

from mecdsa.curve import (
    CurveParams,
    Point,
    decode_point,
    encode_point,
    validate_curve_params,
)
from mecdsa.errors import InvalidPointError
from mecdsa.ecdsa import ListNonceSource
from mecdsa.multi import MultiCurveConfig, MultiCurveKeypair, msign, mverify
from mecdsa.registry import format_curve_config

from .conftest import toy_tuple
from .oracles import (
    chord_tangent_add,
    ecdsa_sign_oracle,
    ecdsa_verify_oracle,
    enum_points,
    repeated_add,
)

# y^2 = x^3 + x + 4 over F_211: 226 = 2 * 113 points, G = (0, 2) of order
# 113, T = (60, 0) of order two.  D is any secret key, and NONCE the first
# nonce above 1 whose signature on MESSAGE also verifies under Q + T.
TOY211 = CurveParams(name="toy211", p=211, a=1, b=4, gx=0, gy=2, n=113, h=2)
T = (60, 0)
D, NONCE, MESSAGE = 17, 7, b"cofactor"


def _keys():
    c = TOY211
    q = repeated_add(D, (c.gx, c.gy), c.a, c.p)
    return q, chord_tangent_add(q, T, c.a, c.p)


def test_toy211_is_rederived():
    c = TOY211
    assert all(c.n % f for f in range(2, c.n))
    points = enum_points(c.a, c.b, c.p)
    assert len(points) == c.h * c.n
    assert repeated_add(c.n, (c.gx, c.gy), c.a, c.p) is None
    assert T in points and chord_tangent_add(T, T, c.a, c.p) is None
    assert validate_curve_params(c, strict=False).ok
    q, bad = _keys()
    assert repeated_add(c.n, q, c.a, c.p) is None
    assert repeated_add(c.n, bad, c.a, c.p) is not None  # Q + T is not in <G>
    # the verification equation alone accepts the signature under Q + T
    r, s = ecdsa_sign_oracle(MESSAGE, D, NONCE, toy_tuple(c))
    assert ecdsa_verify_oracle(MESSAGE, r, s, bad, toy_tuple(c))


def test_mverify_refuses_a_public_key_outside_the_subgroup():
    config = MultiCurveConfig((TOY211,))
    q, bad = _keys()
    keypair = MultiCurveKeypair(config, (D,), (Point(*q),))
    sig = msign(MESSAGE, keypair, ListNonceSource([NONCE]))
    r, s = ecdsa_sign_oracle(MESSAGE, D, NONCE, toy_tuple(TOY211))
    assert (sig.r, sig.s) == (r, (s,))
    assert mverify(MESSAGE, sig, (Point(*q),), config)
    assert not mverify(MESSAGE, sig, (Point(*bad),), config)


def test_verify_command_refuses_a_key_file_outside_the_subgroup(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy211.curve").write_text(format_curve_config(TOY211))
    (tmp_path / "m.bin").write_bytes(MESSAGE)
    q, bad = (encode_point(Point(*pt), TOY211) for pt in _keys())
    head = "version = 1\ncurves = toy211\n"
    (tmp_path / "key.sec").write_text(f"{head}d = {D:x}\nq = {q}\n")
    (tmp_path / "key.pub").write_text(f"{head}q = {bad}\n")
    common = ["--in", "m.bin", "--curve-file", "toy211.curve"]
    sign = ["sign", "--key", "key.sec", "--out", "m.sig", "--nonces", f"{NONCE:x}"]
    assert main([*sign, *common]) == 0
    capsys.readouterr()
    assert main(["verify", "--public", "key.pub", "--sig", "m.sig", *common]) == 2
    assert "not of order n" in capsys.readouterr().err


def test_decode_point_refuses_the_odd_root_of_y_0():
    # T's y is 0, the one root of x^3 + x + 4 at x = 60, and 0 is even
    assert decode_point("02" + f"{T[0]:02x}", TOY211) == Point(*T)
    with pytest.raises(InvalidPointError, match="^no root with the requested parity$"):
        decode_point("03" + f"{T[0]:02x}", TOY211)
