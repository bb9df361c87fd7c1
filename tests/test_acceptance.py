"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success; the conftest terminal summary
collects the per-criterion outcomes at the end of the run.
"""

import random
import time

from mecdsa.bench import (
    formula_sig_bits,
    measure_counts,
    predicted_counts,
    signature_length_report,
)
from mecdsa.curve import CurveParams, Point, point_add, scalar_mul, validate_curve_params
from mecdsa.ecdsa import ListNonceSource, SeededNonceSource
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    MultiSignature,
    encode_multisig,
    mkeygen,
    msign,
    mverify,
)
from mecdsa.opcount import OpCounts, Trace
from mecdsa.registry import default_registry

from .conftest import TEST17, TOY23, TOY43, toy_tuple
from .oracles import (
    affine_ladder,
    ecdsa_sign_oracle,
    ecdsa_verify_oracle,
    enum_points,
    group_table,
    msign_oracle,
    repeated_add,
)
from .test_bench import fixed_setup

# Frozen straight-line-oracle vectors on TEST17 and (TEST17, TOY23).
# Each row was computed by the oracle implementations in oracles.py and
# is re-derived live by criterion 6.
ECDSA_VECTORS = [
    (16, 6, b"ecdsa vector 0", 16, 15),
    (14, 9, b"ecdsa vector 1", 7, 1),
    (18, 8, b"ecdsa vector 2", 13, 3),
    (14, 17, b"ecdsa vector 3", 6, 3),
    (7, 10, b"ecdsa vector 4", 7, 12),
    (18, 11, b"ecdsa vector 5", 13, 16),
    (17, 3, b"ecdsa vector 6", 10, 12),
    (7, 15, b"ecdsa vector 7", 3, 5),
    (5, 18, b"ecdsa vector 8", 5, 17),
    (7, 14, b"ecdsa vector 9", 9, 2),
    (14, 15, b"ecdsa vector 10", 3, 4),
    (4, 5, b"ecdsa vector 11", 9, 10),
    (11, 13, b"ecdsa vector 12", 16, 1),
    (7, 11, b"ecdsa vector 13", 13, 17),
    (14, 14, b"ecdsa vector 14", 9, 7),
    (14, 8, b"ecdsa vector 15", 13, 2),
    (7, 2, b"ecdsa vector 16", 6, 2),
    (8, 1, b"ecdsa vector 17", 5, 15),
    (9, 17, b"ecdsa vector 18", 6, 4),
    (11, 14, b"ecdsa vector 19", 9, 2),
]
MECDSA_VECTORS = [
    (4, 11, 8, 8, b"mecdsa vector 0", 24, 16, 19),
    (12, 16, 5, 9, b"mecdsa vector 1", 24, 13, 17),
    (13, 20, 11, 11, b"mecdsa vector 2", 31, 5, 3),
    (10, 8, 15, 20, b"mecdsa vector 3", 18, 1, 23),
    (14, 7, 3, 10, b"mecdsa vector 4", 20, 8, 17),
    (9, 17, 4, 16, b"mecdsa vector 5", 12, 14, 22),
    (17, 28, 8, 11, b"mecdsa vector 6", 31, 3, 8),
    (12, 25, 2, 19, b"mecdsa vector 7", 16, 10, 7),
    (18, 13, 3, 4, b"mecdsa vector 8", 18, 11, 15),
    (8, 2, 17, 5, b"mecdsa vector 9", 10, 7, 21),
    (7, 21, 3, 17, b"mecdsa vector 10", 32, 3, 10),
    (6, 8, 16, 19, b"mecdsa vector 11", 20, 12, 10),
    (6, 6, 3, 5, b"mecdsa vector 12", 14, 5, 18),
    (4, 26, 18, 26, b"mecdsa vector 13", 22, 4, 6),
    (1, 20, 4, 18, b"mecdsa vector 14", 21, 8, 25),
    (6, 18, 11, 1, b"mecdsa vector 15", 14, 17, 2),
    (4, 9, 1, 6, b"mecdsa vector 16", 12, 5, 20),
    (6, 16, 11, 9, b"mecdsa vector 17", 28, 3, 4),
    (15, 21, 15, 27, b"mecdsa vector 18", 17, 7, 16),
    (7, 13, 15, 28, b"mecdsa vector 19", 4, 18, 22),
]


def toy_keypair(config, ds):
    qs = tuple(scalar_mul(d, c.base, c) for d, c in zip(ds, config.curves))
    return MultiCurveKeypair(config, tuple(ds), qs)


def flip_bytes(data: bytes, rnd) -> bytes:
    out = bytearray(data)
    idx = rnd.randrange(len(out))
    out[idx] ^= 1 << rnd.randrange(8)
    return bytes(out)


def flip_int_byte(value: int, rnd) -> int:
    width = max(1, (value.bit_length() + 7) // 8)
    flipped = value ^ ((1 << rnd.randrange(8)) << (8 * rnd.randrange(width)))
    return flipped


def test_criterion_1_operation_counts_match_predictions():
    started = time.perf_counter()
    for t in (1, 2, 3):
        keypair, ks, message = fixed_setup(t)
        for scheme in ("mecdsa", "t-ecdsa"):
            traces = measure_counts(scheme, keypair, message, ListNonceSource(ks))
            for phase, run in zip(("sign", "verify"), traces):
                assert not run.retried, (scheme, phase, t)
                assert run.counts == predicted_counts(scheme, phase, t), (
                    scheme,
                    phase,
                    t,
                    run.counts,
                )
    assert predicted_counts("mecdsa", "sign", 2) == OpCounts(3, 4, 2, 0, 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: counts match predictions for t in 1..3 ({elapsed:.2f}s)")


def test_criterion_2_signature_length_comparison():
    started = time.perf_counter()
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    orders = [c.n for c in config.curves]
    assert all(n.bit_length() == 256 for n in orders)
    assert formula_sig_bits("mecdsa", orders) == 769
    assert formula_sig_bits("t-ecdsa", orders) == 1024
    reduction = 1 - 769 / 1024
    assert reduction >= 0.249
    report = signature_length_report(config, samples=100, seed=2)
    assert report.mecdsa_measured_max <= 769
    assert report.tecdsa_measured_max <= 1024
    # byte-level minimal encodings stay within the byte-rounded bound
    rng = SeededNonceSource(3)
    keypair = mkeygen(config, rng)
    rnd = random.Random(3)
    byte_bound = (256 + 1 + 7) // 8 + 2 * 32  # r bytes + both s_i
    header = 2 + 2 * 3
    for _ in range(100):
        sig = msign(rnd.randbytes(48), keypair, rng)
        assert len(encode_multisig(sig)) <= byte_bound + header
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        "PASS criterion 2: 769 vs 1024 bits "
        f"({100 * reduction:.1f}% reduction), bounds hold ({elapsed:.2f}s)"
    )


def test_criterion_3_validity_identity():
    registry = default_registry()
    k1, p256 = registry.get("secp256k1"), registry.get("p256")
    plan = (
        [(MultiCurveConfig((TEST17,)), 30)]
        + [(MultiCurveConfig((k1,)), 20)]
        + [(MultiCurveConfig((TEST17, TOY23)), 30)]
        + [(MultiCurveConfig((TOY43, p256)), 20)]
    )
    rnd = random.Random(41)
    rng = SeededNonceSource(41)
    checked = 0
    for config, count in plan:
        keypair = mkeygen(config, rng)
        for _ in range(count):
            message = rnd.randbytes(32)
            sign_trace, verify_trace = Trace(), Trace()
            sig = msign(message, keypair, rng, sign_trace)
            assert mverify(message, sig, keypair.q, config, verify_trace)
            # R_i = k_i * P_i, exactly
            for c, k, big_r in zip(
                config.curves, sign_trace.nonces, verify_trace.points
            ):
                assert big_r == scalar_mul(k, c.base, c)
            assert verify_trace.points == sign_trace.points
            # r'_i = r_i, and their sum is the signature's r
            assert verify_trace.r_values == sign_trace.r_values
            assert sum(verify_trace.r_values) == sig.r
            checked += 1
    assert checked == 100
    print("PASS criterion 3: verification recovered every nonce point exactly (100 runs)")


def test_criterion_4_mecdsa_degenerates_to_ecdsa():
    # msign and mverify at t = 1 against the independent straight-line
    # ECDSA oracles, which multiply by repeated addition on the toys and
    # by the affine ladder on the full-size curves
    registry = default_registry()
    pool = (
        [TEST17] * 45
        + [TOY23] * 45
        + [registry.get("secp256k1")] * 5
        + [registry.get("p256")] * 5
    )
    rnd = random.Random(1009)
    stored = []
    for c in pool:
        d = rnd.randrange(1, c.n)
        message = rnd.randbytes(24)
        nonce_pool = [rnd.randrange(1, c.n) for _ in range(8)]
        config = MultiCurveConfig((c,))
        kp = toy_keypair(config, [d])
        mul = repeated_add if c in (TEST17, TOY23) else affine_ladder
        trace = Trace()
        sig = msign(message, kp, ListNonceSource(nonce_pool), trace)
        (k,) = trace.nonces  # the nonce msign accepted
        assert (sig.r, *sig.s) == ecdsa_sign_oracle(message, d, k, toy_tuple(c), mul)
        stored.append((c, config, kp, message, sig, mul))
    assert len(stored) == 100
    for c, config, kp, message, sig, mul in stored:
        kind = rnd.choice(("m", "r", "s"))
        msg, r, (s,) = message, sig.r, sig.s
        if kind == "m":
            msg = flip_bytes(message, rnd)
        elif kind == "r":
            r = flip_int_byte(r, rnd)
        else:
            s = flip_int_byte(s, rnd)
        as_multi = mverify(msg, MultiSignature(r, (s,)), kp.q, config)
        (q,) = kp.q
        assert as_multi == ecdsa_verify_oracle(msg, r, s, (q.x, q.y), toy_tuple(c), mul)
    print("PASS criterion 4: t=1 is bit-identical to ECDSA (100 tuples + 100 probes)")


def test_criterion_5_roundtrip_and_tamper_suite():
    started = time.perf_counter()
    registry = default_registry()
    rnd = random.Random(55)
    rng = SeededNonceSource(55)
    for name in registry.names():
        c = registry.get(name)
        for t in (1, 2, 3):
            config = MultiCurveConfig((c,) * t)
            keypair = mkeygen(config, rng)
            for i in range(100):
                message = rnd.randbytes(64)
                sig = msign(message, keypair, rng)
                assert mverify(message, sig, keypair.q, config), (name, t)
                kind = ("m", "r", "s")[i % 3]
                if kind == "m":
                    bad = mverify(flip_bytes(message, rnd), sig, keypair.q, config)
                elif kind == "r":
                    mutated = MultiSignature(flip_int_byte(sig.r, rnd), sig.s)
                    bad = mverify(message, mutated, keypair.q, config)
                else:
                    idx = rnd.randrange(t)
                    ss = list(sig.s)
                    ss[idx] = flip_int_byte(ss[idx], rnd)
                    mutated = MultiSignature(sig.r, tuple(ss))
                    bad = mverify(message, mutated, keypair.q, config)
                assert not bad, (name, t, kind)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"PASS criterion 5: 1200 roundtrips + 1200 tamper probes ({elapsed:.1f}s)")


def test_criterion_6_test17_oracle_equivalence():
    # group law vs the exhaustively enumerated table
    points = enum_points(TEST17.a, TEST17.b, TEST17.p)
    assert len(points) == 19
    table = group_table(points, TEST17.a, TEST17.p)
    for (raw1, raw2), want in table.items():
        got = point_add(
            Point(*raw1) if raw1 else Point(),
            Point(*raw2) if raw2 else Point(),
            TEST17,
        )
        want_pt = Point(*want) if want else Point()
        assert got == want_pt
    # scalar multiplication vs repeated addition for every k in [0, 19]
    base_raw = (TEST17.gx, TEST17.gy)
    for k in range(0, 20):
        want_raw = repeated_add(k, base_raw, TEST17.a, TEST17.p)
        want_pt = Point(*want_raw) if want_raw else Point()
        assert scalar_mul(k, TEST17.base, TEST17) == want_pt
    # 20 fixed-nonce ECDSA vectors: one-curve msign == frozen == live oracle
    toy17 = toy_tuple(TEST17)
    for d, k, message, want_r, want_s in ECDSA_VECTORS:
        assert ecdsa_sign_oracle(message, d, k, toy17) == (want_r, want_s)
        kp = toy_keypair(MultiCurveConfig((TEST17,)), [d])
        got = msign(message, kp, ListNonceSource([k]))
        assert (got.r, got.s) == (want_r, (want_s,))
    # 20 fixed-nonce MECDSA vectors on (TEST17, TOY23)
    toys = [toy17, toy_tuple(TOY23)]
    config = MultiCurveConfig((TEST17, TOY23))
    for d1, d2, k1, k2, message, want_r, s1, s2 in MECDSA_VECTORS:
        assert msign_oracle(message, [d1, d2], [k1, k2], toys) == (want_r, [s1, s2])
        kp = toy_keypair(config, [d1, d2])
        got = msign(message, kp, ListNonceSource([k1, k2]))
        assert (got.r, got.s) == (want_r, (s1, s2))
    print("PASS criterion 6: group table, scalar ladder, and 40 signing vectors agree")


def test_criterion_7_appendix_fidelity():
    started = time.perf_counter()
    registry = default_registry()
    for name in registry.names():
        report = validate_curve_params(registry.get(name), strict=True)
        assert report.ok, f"{name}: {report}"
    # bit-exact decompression of the published base points
    k1 = registry.get("secp256k1")
    compressed = "02" + "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
    uncompressed = (
        "04"
        "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
        "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"
    )
    from mecdsa.curve import decode_point, encode_point

    pt = decode_point(compressed, k1)
    assert encode_point(pt, k1) == uncompressed
    p256 = registry.get("p256")
    compressed = "03" + "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
    uncompressed = (
        "04"
        "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
        "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
    )
    pt = decode_point(compressed, p256)
    assert encode_point(pt, p256) == uncompressed
    # sampled single-hex-digit mutations of every stored parameter
    rnd = random.Random(77)
    hexdigits = "0123456789abcdef"
    mutations = 0
    for name in registry.names():
        c = registry.get(name)
        for field_name in ("p", "a", "b", "gx", "gy", "n", "h"):
            original = getattr(c, field_name)
            text = format(original, "x")
            for _ in range(2):
                pos = rnd.randrange(len(text))
                repl = rnd.choice(hexdigits.replace(text[pos], ""))
                mutated_value = int(text[:pos] + repl + text[pos + 1 :], 16)
                mutated = CurveParams(
                    **{
                        **{
                            f: getattr(c, f)
                            for f in ("name", "p", "a", "b", "gx", "gy", "n", "h")
                        },
                        field_name: mutated_value,
                    }
                )
                report = validate_curve_params(mutated, strict=True)
                assert not report.ok, (name, field_name, pos, repl)
                mutations += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: strict validation, bit-exact decompression, "
        f"{mutations} mutations rejected ({elapsed:.1f}s)"
    )


def test_criterion_8_range_checks_run_before_arithmetic():
    config = MultiCurveConfig((TEST17, TOY23))
    keypair = toy_keypair(config, [4, 11])
    message = b"range-check 0"
    sig = msign(message, keypair, ListNonceSource([8, 8]))
    t = config.t
    upper = config.order_sum - t
    zero = OpCounts()
    rejected = [
        MultiSignature(t - 1, sig.s),
        MultiSignature(0, sig.s),
        MultiSignature(upper + 1, sig.s),
        MultiSignature(sig.r, (0, sig.s[1])),
        MultiSignature(sig.r, (sig.s[0], TOY23.n)),
        MultiSignature(sig.r, (sig.s[0],)),  # arity mismatch
    ]
    for bad in rejected:
        trace = Trace()
        assert not mverify(message, bad, keypair.q, config, trace)
        assert trace.counts == zero, bad
    # the interval is closed: r = t and r = sum(n_i) - t reach arithmetic
    for boundary in (t, upper):
        trace = Trace()
        mverify(message, MultiSignature(boundary, sig.s), keypair.q, config, trace)
        assert trace.counts.ec_mul > 0
    # same contract for single-curve verification, which is t = 1
    single_config = MultiCurveConfig((TEST17,))
    single_kp = toy_keypair(single_config, [4])
    single_sig = msign(message, single_kp, ListNonceSource([8]))
    for bad_sig in (
        MultiSignature(0, single_sig.s),
        MultiSignature(single_sig.r, (0,)),
        MultiSignature(TEST17.n, single_sig.s),
    ):
        trace = Trace()
        assert not mverify(message, bad_sig, single_kp.q, single_config, trace)
        assert trace.counts == zero
    print("PASS criterion 8: out-of-range signatures refused with zero curve work")
