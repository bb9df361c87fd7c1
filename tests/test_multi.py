import random

import pytest

from mecdsa import curve
from mecdsa.curve import CurveParams, Point, is_on_curve, scalar_mul
from mecdsa.ecdsa import ListNonceSource, SeededNonceSource
from mecdsa.errors import NonceExhaustedError
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    MultiSignature,
    mkeygen,
    msign,
    mverify,
    t_ecdsa_sign,
    t_ecdsa_verify,
)
from mecdsa.opcount import Trace
from mecdsa.registry import default_registry

from .conftest import TEST17, TOY23, TOY43, toy_tuple
from .oracles import chord_tangent_add, hash_int, msign_oracle, mverify_oracle

# engineered on (TEST17, TOY23): the first pair makes r = r_1 + r_2 = 19,
# which is 0 mod n_1 and forces a full restart; the second pair is clean
RESTART_NONCES = [1, 2, 1, 3]
CLEAN_NONCES = [1, 3]


def toy_keypair(config, ds):
    qs = tuple(scalar_mul(d, c.base, c) for d, c in zip(ds, config.curves))
    return MultiCurveKeypair(config, tuple(ds), qs)


def test_config_requires_at_least_one_curve():
    with pytest.raises(ValueError, match="at least one curve"):
        MultiCurveConfig(())
    with pytest.raises(ValueError, match="at least one curve"):
        MultiCurveConfig(curves=iter(()))
    # any iterable of curves is kept as a tuple
    assert MultiCurveConfig(curves=[TEST17, TOY23]).curves == (TEST17, TOY23)


def test_keypair_lists_must_align_with_the_config():
    config = MultiCurveConfig((TEST17, TOY23))
    q = (TEST17.base, TOY23.base)
    keypair = MultiCurveKeypair(config=config, d=(1, 1), q=q)
    assert keypair == MultiCurveKeypair(config, (1, 1), q)
    for d, qs in (((1,), q), ((1, 1), q[:1]), ((1, 1, 1), q + q[:1])):
        with pytest.raises(ValueError, match="must align with the config"):
            MultiCurveKeypair(config, d, qs)


VALUES = {
    "Point": lambda: Point(5, 1),
    "CurveParams": lambda: CurveParams(
        name="test17", p=17, a=2, b=2, gx=5, gy=1, n=19, h=1
    ),
    "MultiCurveConfig": lambda: MultiCurveConfig(curves=(TEST17, TOY23)),
    "MultiCurveKeypair": lambda: MultiCurveKeypair(
        config=MultiCurveConfig((TEST17,)), d=(1,), q=(TEST17.base,)
    ),
    "MultiSignature": lambda: MultiSignature(r=3, s=(4, 5)),
}


@pytest.mark.parametrize("kind", VALUES)
def test_value_types_are_immutable_and_compare_by_value(kind):
    one, other = VALUES[kind](), VALUES[kind]()
    assert one is not other
    assert one == other and hash(one) == hash(other)
    # neither a field nor a new attribute can be set
    for attr in (*one._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(one, attr, 0)
    assert one == other


def test_mkeygen_unit_scalars_give_base_points():
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    kp = mkeygen(config, ListNonceSource([1, 1]))
    assert kp.q == tuple(c.base for c in config.curves)


def test_mkeygen_degenerates_to_single_keygen():
    config = MultiCurveConfig((TEST17,))
    kp = mkeygen(config, ListNonceSource([7]))
    assert kp.d == (7,)
    assert kp.q[0] == scalar_mul(7, TEST17.base, TEST17)


def test_mkeygen_toy_pair_on_curve(toy_pair_config):
    rng = SeededNonceSource(5)
    kp = mkeygen(toy_pair_config, rng)
    for c, q in zip(toy_pair_config.curves, kp.q):
        assert not q.is_infinity and is_on_curve(q, c)


def test_msign_matches_straight_line_oracle(toy_pair_config):
    toys = [toy_tuple(TEST17), toy_tuple(TOY23)]
    for d1, d2, k1, k2, message in [
        (4, 11, 8, 8, b"mv-a"),
        (12, 16, 5, 9, b"mv-b"),
        (13, 20, 11, 11, b"mv-c"),
    ]:
        want_r, want_ss = msign_oracle(message, [d1, d2], [k1, k2], toys)
        kp = toy_keypair(toy_pair_config, [d1, d2])
        got = msign(message, kp, ListNonceSource([k1, k2]))
        assert got.r == want_r
        assert got.s == tuple(want_ss)


def test_msign_r_stays_in_declared_interval(toy_pair_config):
    rng = SeededNonceSource(17)
    rnd = random.Random(17)
    kp = mkeygen(toy_pair_config, rng)
    t = toy_pair_config.t
    upper = toy_pair_config.order_sum - t
    for _ in range(200):
        sig = msign(rnd.randbytes(16), kp, rng)
        assert t <= sig.r <= upper


def test_msign_roundtrip_mixed_toys():
    config = MultiCurveConfig((TEST17, TOY23, TOY43))
    rng = SeededNonceSource(23)
    rnd = random.Random(23)
    kp = mkeygen(config, rng)
    for _ in range(50):
        message = rnd.randbytes(32)
        sig = msign(message, kp, rng)
        assert mverify(message, sig, kp.q, config)


def test_msign_roundtrip_duplicate_curves():
    config = MultiCurveConfig((TEST17, TEST17))
    rng = SeededNonceSource(29)
    kp = mkeygen(config, rng)
    assert kp.d[0] != kp.d[1]  # independent keys per index
    sig = msign(b"dup", kp, rng)
    assert mverify(b"dup", sig, kp.q, config)


def test_msign_roundtrip_builtin_pair():
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    rng = SeededNonceSource(31)
    kp = mkeygen(config, rng)
    sig = msign(b"builtin pair", kp, rng)
    assert mverify(b"builtin pair", sig, kp.q, config)
    assert not mverify(b"builtin pair!", sig, kp.q, config)


def test_points_are_checked_once_where_they_enter(monkeypatch):
    # the group law does not re-check the points the scheme made or has
    # checked: msign checks none, mverify checks each public key once
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    rng = SeededNonceSource(53)
    kp = mkeygen(config, rng)
    checked = []

    def counting_is_on_curve(pt, c):
        checked.append(pt)
        return is_on_curve(pt, c)

    monkeypatch.setattr(curve, "is_on_curve", counting_is_on_curve)
    sig = msign(b"check once", kp, rng)
    assert checked == []
    assert mverify(b"check once", sig, kp.q, config)
    assert checked == list(kp.q)


def test_mverify_refuses_public_keys_off_the_curve():
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    rng = SeededNonceSource(59)
    kp = mkeygen(config, rng)
    sig = msign(b"off curve", kp, rng)
    (q1, q2), c1 = kp.q, config.curves[0]
    off_curve = Point(q1.x, (q1.y + 1) % c1.p)
    # the same residues as Q_1, which the group law would compute with
    outside_field = Point(q1.x + c1.p, q1.y)
    for bad in (off_curve, outside_field):
        assert not mverify(b"off curve", sig, (bad, q2), config)
    assert mverify(b"off curve", sig, kp.q, config)


def test_each_s_malleates_independently_on_builtin_pair():
    # Known property, not enforced away: (k, s_i) and (-k, n_i - s_i) give
    # the same x(R_i), so each s_i flips on its own and one genuine
    # signature yields 2^t valid ones.  Low-s form would be a scheme change.
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    rng = SeededNonceSource(47)
    kp = mkeygen(config, rng)
    message = b"malleable"
    sig = msign(message, kp, rng)
    variants = set()
    for mask in range(2**config.t):
        s = tuple(
            c.n - s_i if mask >> i & 1 else s_i
            for i, (s_i, c) in enumerate(zip(sig.s, config.curves))
        )
        variants.add(s)
        assert mverify(message, MultiSignature(sig.r, s), kp.q, config), mask
    assert len(variants) == 4
    for r in (sig.r - 1, sig.r + 1):
        assert not mverify(message, MultiSignature(r, sig.s), kp.q, config)


def test_full_restart_on_r_divisible_by_order(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    src = ListNonceSource(RESTART_NONCES)
    trace = Trace()
    message = b"restart"
    sig = msign(message, kp, src, trace)
    assert trace.restarts == 1
    assert src.consumed == 4  # both curves drew fresh nonces
    assert sig == msign(message, kp, ListNonceSource(CLEAN_NONCES))
    assert mverify(message, sig, kp.q, toy_pair_config)


def test_per_curve_retry_on_r_zero(toy_pair_config):
    # k_2 = 7 gives 7*P_2 = (0, 2) on TOY23, so r_2 = 0: only curve 2
    # draws again, and the pass itself does not restart
    kp = toy_keypair(toy_pair_config, [4, 11])
    src = ListNonceSource([1, 7, 3])
    trace = Trace()
    sig = msign(b"retry", kp, src, trace)
    assert (trace.retries, trace.restarts) == (1, 0)
    assert trace.counts.ec_mul == 3
    assert src.consumed == 3
    assert sig == msign(b"retry", kp, ListNonceSource(CLEAN_NONCES))


def test_full_restart_on_s_zero(toy_pair_config):
    # nonces [1, 3] give r = 22, and e + 21*22 = 0 mod 29, so s_2 = 0
    # after s_1 was computed: the whole pass restarts on fresh nonces
    kp = toy_keypair(toy_pair_config, [12, 21])
    src = ListNonceSource([1, 3, 2, 5])
    trace = Trace()
    sig = msign(b"s-zero", kp, src, trace)
    assert (trace.retries, trace.restarts) == (0, 1)
    assert trace.counts.field_inv == 4  # both s_i of the failed pass
    assert src.consumed == 4
    assert trace.nonces == [2, 5]
    assert mverify(b"s-zero", sig, kp.q, toy_pair_config)


def test_restart_exhaustion_raises(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    with pytest.raises(NonceExhaustedError):
        msign(b"restart", kp, ListNonceSource([1, 2, 1]))  # one nonce short


def test_mverify_rejects_out_of_range_r(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    sig = msign(b"bounds", kp, ListNonceSource(CLEAN_NONCES))
    t = toy_pair_config.t
    upper = toy_pair_config.order_sum - t
    assert not mverify(b"bounds", MultiSignature(t - 1, sig.s), kp.q, toy_pair_config)
    assert not mverify(b"bounds", MultiSignature(upper + 1, sig.s), kp.q, toy_pair_config)


def test_mverify_rejects_out_of_range_s(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    sig = msign(b"bounds", kp, ListNonceSource(CLEAN_NONCES))
    bad_low = (0, sig.s[1])
    bad_high = (sig.s[0], TOY23.n)
    for bad in (bad_low, bad_high):
        assert not mverify(b"bounds", MultiSignature(sig.r, bad), kp.q, toy_pair_config)


def test_mverify_rejects_swapped_components(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    message = b"swap 0"
    sig = msign(message, kp, ListNonceSource([8, 8]))
    swapped = MultiSignature(sig.r, (sig.s[1], sig.s[0]))
    assert not mverify(message, swapped, kp.q, toy_pair_config)


def test_mverify_rejects_wrong_arity(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    sig = msign(b"arity", kp, ListNonceSource(CLEAN_NONCES))
    assert not mverify(b"arity", MultiSignature(sig.r, (sig.s[0],)), kp.q, toy_pair_config)


def test_mverify_refuses_r_at_infinity():
    # On TEST17 with d = 7, an r with e + d*r = 0 (mod n) makes
    # R = (e/s)*P + (r/s)*Q = ((e + d*r)/s)*P = O for every s.  At t = 2
    # TOY23 comes first and recovers its point; TEST17 then meets R = O.
    message = b"R at infinity"
    e = hash_int(message)
    d, n = 7, TEST17.n
    assert e % n != 0
    r_zero = -e * pow(d, -1, n) % n

    one = toy_keypair(MultiCurveConfig((TEST17,)), [d])
    for s in range(1, n):
        trace = Trace()
        assert not mverify(message, MultiSignature(r_zero, (s,)), one.q, one.config, trace)
        assert trace.counts.ec_mul == 2 and trace.points == []

    two = toy_keypair(MultiCurveConfig((TOY23, TEST17)), [3, d])
    r = next(
        r
        for r in range(2, two.config.order_sum - 1)
        if r % n == r_zero and (e + 3 * r) % TOY23.n != 0
    )
    for s_1 in (1, 5, TOY23.n - 1):
        for s_2 in range(1, n):
            trace = Trace()
            sig = MultiSignature(r, (s_1, s_2))
            assert not mverify(message, sig, two.q, two.config, trace)
            assert trace.counts.ec_mul == 4 and len(trace.points) == 1


def test_mverify_agrees_with_oracle(toy_pair_config):
    toys = [toy_tuple(TEST17), toy_tuple(TOY23)]
    kp = toy_keypair(toy_pair_config, [4, 11])
    message = b"oracle-check 0"
    sig = msign(message, kp, ListNonceSource([8, 8]))
    publics = [(q.x, q.y) for q in kp.q]
    want, _points = mverify_oracle(message, sig.r, list(sig.s), publics, toys)
    assert mverify(message, sig, kp.q, toy_pair_config) == want is True


def test_validity_identity_instrumented(toy_pair_config):
    # verification recovers exactly the signer's nonce points and residues
    kp = toy_keypair(toy_pair_config, [12, 16])
    message = b"identity 0"
    sign_trace, verify_trace = Trace(), Trace()
    sig = msign(message, kp, ListNonceSource([5, 9]), sign_trace)
    assert mverify(message, sig, kp.q, toy_pair_config, verify_trace)
    assert verify_trace.points == sign_trace.points
    assert verify_trace.r_values == sign_trace.r_values
    assert sum(verify_trace.r_values) == sig.r


def test_t_ecdsa_degenerate_single_curve():
    # at t = 1 the baseline and MECDSA are both plain ECDSA
    config = MultiCurveConfig((TEST17,))
    kp = toy_keypair(config, [11])
    sig = t_ecdsa_sign(b"baseline 0", kp, ListNonceSource([5]))
    assert sig == (msign(b"baseline 0", kp, ListNonceSource([5])),)


def test_t_ecdsa_components_verify_individually(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    message = b"per-curve 0"
    sig = t_ecdsa_sign(message, kp, ListNonceSource([8, 8]))
    for c, pair, q in zip(toy_pair_config.curves, sig, kp.q):
        assert mverify(message, pair, (q,), MultiCurveConfig((c,)))
    assert t_ecdsa_verify(message, sig, kp.q, toy_pair_config)


def test_t_ecdsa_zeroed_s_refused(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    message = b"zeroed 0"
    sig = t_ecdsa_sign(message, kp, ListNonceSource([8, 8]))
    broken = (sig[0], MultiSignature(sig[1].r, (0,)))
    assert not t_ecdsa_verify(message, broken, kp.q, toy_pair_config)


def test_t_ecdsa_permuted_components_refused(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    message = b"permuted 0"
    sig = t_ecdsa_sign(message, kp, ListNonceSource([8, 8]))
    permuted = (sig[1], sig[0])
    assert not t_ecdsa_verify(message, permuted, kp.q, toy_pair_config)


def test_t_ecdsa_refuses_a_count_mismatch(toy_pair_config):
    # a pair or a key too many or too few is refused, not zipped away
    kp = toy_keypair(toy_pair_config, [4, 11])
    message = b"count 0"
    sig = t_ecdsa_sign(message, kp, ListNonceSource([8, 8]))
    assert t_ecdsa_verify(message, sig, kp.q, toy_pair_config)
    assert not t_ecdsa_verify(message, sig[:1], kp.q, toy_pair_config)
    assert not t_ecdsa_verify(message, (*sig, sig[0]), kp.q, toy_pair_config)
    assert not t_ecdsa_verify(message, sig, kp.q[:1], toy_pair_config)
    assert not t_ecdsa_verify(message, sig, (*kp.q, kp.q[0]), toy_pair_config)


def test_t_ecdsa_total_payload_is_twice_sum_of_order_bits(toy_pair_config):
    kp = toy_keypair(toy_pair_config, [4, 11])
    sig = t_ecdsa_sign(b"length 1", kp, ListNonceSource([8, 8]))
    bound = 2 * sum(c.n.bit_length() for c in toy_pair_config.curves)
    total = sum(p.r.bit_length() + p.s[0].bit_length() for p in sig)
    assert total <= bound


@pytest.mark.parametrize("first", [0, 1])
def test_base_tables_are_never_shared_between_curves(first):
    # TOY43 and a copy whose base point is 2G share every field but gx and
    # gy, the name included.  Each signature verifies under its own curve
    # only, whichever curve's tables the cache builds first.
    g2 = chord_tangent_add((TOY43.gx, TOY43.gy), (TOY43.gx, TOY43.gy), TOY43.a, TOY43.p)
    curves = (TOY43, CurveParams(**{**TOY43._asdict(), "gx": g2[0], "gy": g2[1]}))
    assert curves[0].name == curves[1].name and curves[0] != curves[1]
    signed = []
    for c in curves:
        config = MultiCurveConfig((c,))
        keypair = toy_keypair(config, [7])
        signed.append((config, keypair.q, msign(b"shared name", keypair, ListNonceSource([11]))))
    curve._base_terms.cache_clear()
    for i in (first, 1 - first):
        config = signed[i][0]
        for j, (_, q, sig) in enumerate(signed):
            assert mverify(b"shared name", sig, q, config) == (i == j), (i, j)
