"""Tests of the benchmark's checker: a wrong output must count as failed.

    python3 -m pytest -q perfbench/test_checker.py

They need only ``cryptography``, not the program.
"""

import inputs
import checker

MESSAGE = b"perfbench checker test"
DS = inputs.signing_key("test", 1)
KS = inputs.nonces("test", 1, 0)


def genuine():
    return checker.expected_signature(MESSAGE, DS, KS)


def test_genuine_signature_passes():
    r, ss = genuine()
    assert checker.check_signature(MESSAGE, DS, KS, inputs.encode_wire(r, ss))


def test_recomputed_signature_verifies_by_textbook_ecdsa():
    # R_i = (e/s_i) P_i + (r/s_i) Q_i, with the additions done by OpenSSL's
    # key derivation: x(R_i) must sum back to r, reduced per curve.
    r, ss = genuine()
    e = checker.hash_int(MESSAGE)
    total = 0
    for i, (s, d, n) in enumerate(zip(ss, DS, inputs.ORDERS)):
        w = pow(s, -1, n)
        k = (e * w + r * w * d) % n
        total += checker.mul_base(k, i)[0] % n
    assert total == r


def test_one_changed_s_fails():
    r, ss = genuine()
    for which in range(len(ss)):
        changed = list(ss)
        changed[which] = (changed[which] + 1) % inputs.ORDERS[which]
        assert not checker.check_signature(MESSAGE, DS, KS, inputs.encode_wire(r, changed))


def test_wrong_r_fails():
    r, ss = genuine()
    assert not checker.check_signature(MESSAGE, DS, KS, inputs.encode_wire(r + 1, ss))


def test_valid_printed_for_tampered_file_fails():
    assert not checker.check_cli_verify(False, 0, "VALID\n")
    assert not checker.check_cli_verify(False, 1, "VALID\n")
    assert checker.check_cli_verify(False, 1, "INVALID\n")
    assert checker.check_cli_verify(True, 0, "VALID\n")
    assert not checker.check_cli_verify(True, 1, "INVALID\n")


def test_cli_sign_file_must_hold_the_recomputed_signature():
    r, ss = genuine()
    path = "s0.sig"
    stdout = f"wrote {path} (mecdsa, t=2)\n"
    good = checker.signature_document(inputs.encode_wire(r, ss).hex())
    bad = checker.signature_document(inputs.encode_wire(*inputs.tamper(r, ss, "s", 1)).hex())
    assert checker.check_cli_sign(MESSAGE, DS, KS, path, 0, stdout, good)
    assert not checker.check_cli_sign(MESSAGE, DS, KS, path, 0, stdout, bad)
    assert not checker.check_cli_sign(MESSAGE, DS, KS, path, 1, stdout, good)


def test_tampering_keeps_range_and_changes_the_signature():
    r, ss = genuine()
    for kind, which in (("r", 0), ("s", 0), ("s", 1)):
        r2, ss2 = inputs.tamper(r, ss, kind, which)
        assert (r2, ss2) != (r, ss)
        assert 2 <= r2 <= sum(inputs.ORDERS) - 2
        assert all(1 <= s < n for s, n in zip(ss2, inputs.ORDERS))
        assert inputs.decode_wire(inputs.encode_wire(r2, ss2)) == (r2, ss2)


def test_corpus_has_fixed_shares_and_fresh_keys():
    lines, expected = checker.verify_corpus(seed=7, rounds=2)
    assert len(lines) == len(expected) == 2 * inputs.VERIFY_ROUND
    refused = 2 * inputs.VERIFY_TAMPERED
    assert expected.count(False) == refused
    keys = [tuple(line.split()[1:3]) for line in lines]
    assert len(set(keys)) == len(keys)
