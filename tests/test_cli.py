import os
import subprocess
import sys

import pytest

from mecdsa.cli import main
from mecdsa.registry import format_curve_config, parse_kv_lines

from .conftest import TEST17, TOY23

TEST17_CONFIG = format_curve_config(TEST17)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def toy_file(workdir):
    path = workdir / "test17.curve"
    path.write_text(TEST17_CONFIG)
    return str(path)


def run_python(*args, timeout=60):
    """Run ``python *args`` in a fresh interpreter that imports this
    package; a run longer than ``timeout`` seconds fails the test instead
    of stalling the suite."""
    import mecdsa

    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(mecdsa.__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_cli_process(*args, timeout=60):
    """Run ``python -m mecdsa.cli *args`` in a fresh interpreter."""
    return run_python("-m", "mecdsa.cli", *args, timeout=timeout)


def keygen_toy(workdir, toy_file, seed="a5"):
    code = main(
        [
            "keygen",
            "--curves",
            "test17",
            "--curve-file",
            toy_file,
            "--seed",
            seed,
        ]
    )
    assert code == 0
    return workdir / "key.sec", workdir / "key.pub"


def test_end_to_end_default_curves(workdir, capsys):
    message = workdir / "msg.bin"
    message.write_bytes(b"the quick brown fox")
    assert main(["keygen", "--seed", "1f"]) == 0
    secret = parse_kv_lines((workdir / "key.sec").read_text())
    assert secret["curves"] == "secp256k1,p256"  # two curves by default
    assert len(secret["d"].split(",")) == 2
    assert main(["sign", "--key", "key.sec", "--in", str(message), "--out", "msg.sig"]) == 0
    assert main(["verify", "--public", "key.pub", "--in", str(message), "--sig", "msg.sig"]) == 0
    assert capsys.readouterr().out.strip().endswith("VALID")
    # one flipped message byte flips the exit code
    tampered = workdir / "tampered.bin"
    tampered.write_bytes(b"the quick brown fux")
    assert main(["verify", "--public", "key.pub", "--in", str(tampered), "--sig", "msg.sig"]) == 1
    assert capsys.readouterr().out.strip().endswith("INVALID")


def test_public_file_has_no_secrets(workdir):
    assert main(["keygen", "--curves", "secp256k1", "--seed", "2a"]) == 0
    public = parse_kv_lines((workdir / "key.pub").read_text())
    assert "d" not in public
    assert len(public["q"].split(",")) == 1  # t = 1


def test_keygen_unknown_curve_exits_2(workdir):
    assert main(["keygen", "--curves", "nosuch"]) == 2


def test_keygen_is_deterministic_under_seed(workdir, toy_file):
    keygen_toy(workdir, toy_file)
    first = (workdir / "key.sec").read_text()
    keygen_toy(workdir, toy_file)
    assert (workdir / "key.sec").read_text() == first


def test_sign_deterministic_with_nonces(workdir, toy_file):
    keygen_toy(workdir, toy_file)
    message = workdir / "m.bin"
    message.write_bytes(b"nonce determinism")
    args = [
        "sign", "--key", "key.sec", "--in", str(message), "--out", "a.sig",
        "--nonces", "5", "--curve-file", toy_file,
    ]
    assert main(args) == 0
    first = (workdir / "a.sig").read_text()
    args[6] = "b.sig"
    assert main(args) == 0
    assert (workdir / "b.sig").read_text() == first


def test_toy_roundtrip_and_stdin(workdir, toy_file, capsys, monkeypatch):
    keygen_toy(workdir, toy_file)
    message = workdir / "m.bin"
    message.write_bytes(b"stdin test")
    assert (
        main(
            [
                "sign", "--key", "key.sec", "--in", str(message),
                "--out", "m.sig", "--seed", "07", "--curve-file", toy_file,
            ]
        )
        == 0
    )

    class FakeStdin:
        buffer = type("B", (), {"read": staticmethod(lambda: b"stdin test")})

    monkeypatch.setattr(sys, "stdin", FakeStdin)
    code = main(
        [
            "verify", "--public", "key.pub", "--in", "-",
            "--sig", "m.sig", "--curve-file", toy_file,
        ]
    )
    assert code == 0


def test_t_ecdsa_scheme_roundtrip(workdir, toy_file):
    keygen_toy(workdir, toy_file)
    message = workdir / "m.bin"
    message.write_bytes(b"baseline scheme")
    assert (
        main(
            [
                "sign", "--key", "key.sec", "--in", str(message), "--out", "m.sig",
                "--scheme", "t-ecdsa", "--seed", "0b", "--curve-file", toy_file,
            ]
        )
        == 0
    )
    doc = parse_kv_lines((workdir / "m.sig").read_text())
    assert doc["scheme"] == "t-ecdsa"
    assert ":" in doc["signature"]  # r:s pairs
    assert (
        main(
            [
                "verify", "--public", "key.pub", "--in", str(message),
                "--sig", "m.sig", "--curve-file", toy_file,
            ]
        )
        == 0
    )


def test_corrupted_signature_file_exits_2(workdir, toy_file):
    keygen_toy(workdir, toy_file)
    message = workdir / "m.bin"
    message.write_bytes(b"corrupt")
    assert (
        main(
            [
                "sign", "--key", "key.sec", "--in", str(message), "--out", "m.sig",
                "--seed", "0d", "--curve-file", toy_file,
            ]
        )
        == 0
    )
    doc = (workdir / "m.sig").read_text().replace("signature = 01", "signature = 02")
    (workdir / "m.sig").write_text(doc)
    code = main(
        [
            "verify", "--public", "key.pub", "--in", str(message),
            "--sig", "m.sig", "--curve-file", toy_file,
        ]
    )
    assert code == 2


def test_missing_files_exit_3(workdir):
    assert main(["sign", "--key", "nope.sec", "--in", "nope.msg", "--out", "x"]) == 3
    assert main(["verify", "--public", "nope.pub", "--in", "nope.msg", "--sig", "x"]) == 3


def test_tampered_secret_scalar_exits_2(workdir, toy_file):
    sec, _pub = keygen_toy(workdir, toy_file)
    doc = parse_kv_lines(sec.read_text())
    flipped = format(int(doc["d"], 16) % TEST17.n + 1, "x")
    if flipped == doc["d"]:
        flipped = format(int(doc["d"], 16) - 1, "x")
    sec.write_text(sec.read_text().replace(f"d = {doc['d']}", f"d = {flipped}"))
    message = workdir / "m.bin"
    message.write_bytes(b"x")
    code = main(
        [
            "sign", "--key", "key.sec", "--in", str(message), "--out", "m.sig",
            "--curve-file", toy_file,
        ]
    )
    assert code == 2


def test_identity_public_point_in_secret_file_exits_2(workdir, toy_file, capsys):
    # d = 0 with q = O would pass the d*P = q check, but no text decodes to O
    (workdir / "key.sec").write_text("version = 1\ncurves = test17\nd = 0\nq = inf\n")
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig"]
    assert main([*sign, "--seed", "3", "--curve-file", toy_file]) == 2
    err = capsys.readouterr().err
    assert err == "error: key.sec: not a hex point encoding: 'inf'\n"
    assert not (workdir / "m.sig").exists()


def verify_with_public_q(workdir, toy_file, capsys, q):
    """Sign with a toy key, replace the public file's q by ``q``, verify;
    returns the exit code and the captured output of the verify."""
    keygen_toy(workdir, toy_file)
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig"]
    assert main([*sign, "--seed", "3", "--curve-file", toy_file]) == 0
    (workdir / "key.pub").write_text(f"version = 1\ncurves = test17\nq = {q}\n")
    capsys.readouterr()
    verify = ["verify", "--public", "key.pub", "--in", "m.bin", "--sig", "m.sig"]
    return main([*verify, "--curve-file", toy_file]), capsys.readouterr()


def test_identity_public_point_in_public_file_exits_2(workdir, toy_file, capsys):
    code, captured = verify_with_public_q(workdir, toy_file, capsys, "inf")
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: key.pub: not a hex point encoding: 'inf'\n"


def test_off_curve_public_point_in_public_file_exits_2(workdir, toy_file, capsys):
    code, captured = verify_with_public_q(workdir, toy_file, capsys, "040502")
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: key.pub: Point(0x5, 0x2) is not on curve test17\n"


def test_secret_scalar_above_order_exits_2(workdir, toy_file, capsys):
    # d + n gives the same d*P, so only the range check refuses it
    sec, _pub = keygen_toy(workdir, toy_file)
    d = parse_kv_lines(sec.read_text())["d"]
    sec.write_text(sec.read_text().replace(f"d = {d}", f"d = {int(d, 16) + TEST17.n:x}"))
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig"]
    capsys.readouterr()
    assert main([*sign, "--seed", "3", "--curve-file", toy_file]) == 2
    assert capsys.readouterr().err == "error: key.sec: d on test17 is outside [1, n-1]\n"


@pytest.mark.parametrize("command", ["sign", "verify"])
def test_extra_q_entries_exit_2(workdir, toy_file, capsys, command):
    # a t = 2 key with a third q entry that is not a point at all
    argv = ["keygen", "--curves", "test17,test17", "--curve-file", toy_file]
    assert main([*argv, "--seed", "a5"]) == 0
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig"]
    assert main([*sign, "--seed", "3", "--curve-file", toy_file]) == 0
    path = "key.sec" if command == "sign" else "key.pub"
    doc = (workdir / path).read_text()
    q = parse_kv_lines(doc)["q"]
    (workdir / path).write_text(doc.replace(q, q + ",zzzz-not-a-point"))
    if command == "sign":
        argv = sign
    else:
        argv = ["verify", "--public", "key.pub", "--in", "m.bin", "--sig", "m.sig"]
    capsys.readouterr()
    assert main([*argv, "--curve-file", toy_file]) == 2
    assert capsys.readouterr().err == f"error: {path}: q list does not match curve list\n"


@pytest.mark.parametrize(
    "curves, code",
    [
        ("SECP256K1,P256", 0),
        ("Secp256k1, p256", 0),
        ("p256,secp256k1", 2),
        ("secp256r1,p256", 2),
        ("SECP256K1", 2),
    ],
)
def test_signature_curve_list_is_case_insensitive(workdir, capsys, curves, code):
    # the key file and the registry take curve names in any case; so does
    # the signature file, but the list must still name the same curves
    assert main(["keygen", "--curves", "SECP256K1,P256", "--seed", "05"]) == 0
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "s2.sig"]
    assert main([*sign, "--seed", "07"]) == 0
    doc = (workdir / "s2.sig").read_text()
    assert "curves = secp256k1,p256\n" in doc
    (workdir / "s2.sig").write_text(doc.replace("secp256k1,p256", curves))
    capsys.readouterr()
    assert main(["verify", "--public", "key.pub", "--in", "m.bin", "--sig", "s2.sig"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out == "VALID\n" and err == ""
    else:
        assert err == "error: s2.sig: curve list does not match the key file\n"


@pytest.mark.parametrize("path", ["key.sec", "key.pub", "m.sig"])
def test_bad_document_names_its_file(workdir, toy_file, capsys, path):
    keygen_toy(workdir, toy_file)
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig"]
    verify = ["verify", "--public", "key.pub", "--in", "m.bin", "--sig", "m.sig"]
    assert main([*sign, "--seed", "3", "--curve-file", toy_file]) == 0
    argv = sign if path == "key.sec" else verify
    good = (workdir / path).read_text()
    lines = good.count("\n")

    (workdir / path).write_text(good + "garbage line\n")
    capsys.readouterr()
    assert main([*argv, "--curve-file", toy_file]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: line {lines + 1}: expected 'key = value': 'garbage line'\n"
    )

    (workdir / path).write_text(good.replace("version = 1", "version = 2"))
    assert main([*argv, "--curve-file", toy_file]) == 2
    assert capsys.readouterr().err == f"error: {path}: unsupported file version '2'\n"


def test_curves_list_and_show(workdir, capsys):
    assert main(["curves", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("p256", "secp256k1", "secp256r1", "sm2"):
        assert name in out
    assert main(["curves", "show", "secp256k1"]) == 0
    out = capsys.readouterr().out
    assert "name = secp256k1" in out
    assert "b = 7" in out
    assert main(["curves", "show", "nosuch"]) == 2


@pytest.mark.parametrize("name", ["p256", "secp256k1", "secp256r1", "sm2"])
def test_shown_builtin_passes_validate(workdir, capsys, name):
    # how a user checks a built-in at run time: show it, then validate it
    assert main(["curves", "show", name]) == 0
    (workdir / "f.conf").write_text(capsys.readouterr().out)
    assert main(["curves", "validate", "f.conf"]) == 0
    header, *checks = capsys.readouterr().out.splitlines()
    assert header == f"validation of {name} (strict):"
    assert checks and all(line.startswith("  PASS ") for line in checks), checks


def test_shown_relaxed_curve_loads_back(workdir, toy_file, capsys):
    assert main(["curves", "show", "test17", "--curve-file", toy_file]) == 0
    shown = capsys.readouterr().out
    assert "strict = false\n" in shown
    (workdir / "shown.conf").write_text(shown)
    assert main(["curves", "show", "test17", "--curve-file", "shown.conf"]) == 0
    assert capsys.readouterr().out == shown


def test_curves_validate(workdir, toy_file, capsys):
    assert main(["curves", "validate", toy_file]) == 0
    assert "PASS" in capsys.readouterr().out
    strict_file = workdir / "strict17.curve"
    strict_file.write_text(TEST17_CONFIG.replace("strict = false", "strict = true"))
    assert main(["curves", "validate", str(strict_file)]) == 1
    assert "FAIL order-above-2^160" in capsys.readouterr().out
    garbage = workdir / "garbage.curve"
    garbage.write_text("not a config")
    assert main(["curves", "validate", str(garbage)]) == 2


def test_curves_validate_refuses_off_curve_base_while_reading(workdir, capsys):
    # the parser decodes the base point, so no validation report is printed
    path = workdir / "off.curve"
    path.write_text(TEST17_CONFIG.replace("base = 040501\n", "base = 040502\n"))
    assert main(["curves", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: Point(0x5, 0x2) is not on curve test17\n"


@pytest.mark.parametrize("modulus", ["0", "1"])
def test_degenerate_field_modulus_exits_2_without_traceback(workdir, modulus):
    config = TEST17_CONFIG.replace("p = 11\n", f"p = {modulus}\n")
    assert config != TEST17_CONFIG
    path = workdir / "degenerate.curve"
    path.write_text(config)
    for args in (("curves", "validate", str(path)), ("curves", "list", "--curve-file", str(path))):
        result = run_cli_process(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and ">= 2" in result.stderr


# p = 9 is composite and 1 (mod 4): decompressing the base would need a
# Tonelli-Shanks root, whose search for a non-residue mod 9 never ends.
C9_CONFIG = "name = c9\np = 9\na = 0\nb = 1\nbase = 0200\nn = 7\nh = 1\nstrict = false\n"


def test_composite_modulus_under_compressed_base_exits_2_promptly(workdir):
    (workdir / "c9.conf").write_text(C9_CONFIG)
    for args in (
        ("curves", "validate", "c9.conf"),
        ("keygen", "--curves", "c9", "--curve-file", "c9.conf"),
    ):
        result = run_cli_process(*args, timeout=10)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr == "error: c9.conf: field modulus 9 is not prime\n"


def test_composite_modulus_under_uncompressed_base_is_reported(workdir, capsys):
    (workdir / "c9.conf").write_text(C9_CONFIG.replace("base = 0200", "base = 040001"))
    assert main(["curves", "validate", "c9.conf"]) == 1
    assert "  FAIL field-modulus-prime\n" in capsys.readouterr().out


NOT_UTF8 = b"\xff\xfe not UTF-8\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sign", "--key", "bad.txt", "--in", "m.bin", "--out", "x.sig"],
        ["verify", "--public", "bad.txt", "--in", "m.bin", "--sig", "m.sig"],
        ["verify", "--public", "key.pub", "--in", "m.bin", "--sig", "bad.txt"],
        ["curves", "validate", "bad.txt"],
        ["curves", "list", "--curve-file", "bad.txt"],
    ],
    ids=["sign-key", "verify-public", "verify-sig", "curves-validate", "curve-file"],
)
def test_non_utf8_file_exits_2(workdir, toy_file, capsys, argv):
    keygen_toy(workdir, toy_file)
    (workdir / "m.bin").write_bytes(b"m")
    sign = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig", "--seed", "3"]
    assert main(sign + ["--curve-file", toy_file]) == 0
    (workdir / "bad.txt").write_bytes(NOT_UTF8)
    if argv[0] != "curves":
        argv = argv + ["--curve-file", toy_file]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad.txt: ") and err.count("\n") == 1, err


def test_non_utf8_file_exits_2_without_traceback(workdir):
    (workdir / "bad.txt").write_bytes(NOT_UTF8)
    result = run_cli_process("curves", "validate", "bad.txt")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: bad.txt: ")


@pytest.mark.parametrize("scheme", ["mecdsa", "t-ecdsa"])
@pytest.mark.parametrize("nonce", ["0", format(TEST17.n, "x")])
def test_out_of_range_nonce_exits_2(workdir, toy_file, capsys, scheme, nonce):
    keygen_toy(workdir, toy_file)
    (workdir / "m.bin").write_bytes(b"m")
    argv = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig"]
    argv += ["--scheme", scheme, "--nonces", nonce, "--curve-file", toy_file]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: nonce {int(nonce, 16)} outside [1, 18]\n"
    assert not (workdir / "m.sig").exists()


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_keygen_secret_file_is_never_readable_by_others(workdir, monkeypatch, capsys):
    old_umask = os.umask(0o022)
    try:
        # an existing world-readable key.sec is restricted before d goes in
        (workdir / "key.sec").write_text("old\n")
        os.chmod(workdir / "key.sec", 0o644)
        assert main(["keygen", "--seed", "1f"]) == 0
        assert os.stat(workdir / "key.sec").st_mode & 0o777 == 0o600
        os.remove(workdir / "key.pub")

        def refuse(*args, **kwargs):
            raise PermissionError("chmod refused")

        # if the mode cannot be restricted, no secret is written at all
        os.chmod(workdir / "key.sec", 0o644)
        monkeypatch.setattr(os, "chmod", refuse)
        capsys.readouterr()
        assert main(["keygen", "--seed", "1f"]) == 3
    finally:
        os.umask(old_umask)
    assert capsys.readouterr().err.startswith("error: cannot write key.sec: ")
    assert "d =" not in (workdir / "key.sec").read_text()
    assert not (workdir / "key.pub").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--seed", ""],
        ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig", "--seed", ""],
        ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig", "--nonces", ""],
        ["bench", "--length-samples", "1", "--seed", ""],
    ],
    ids=["keygen-seed", "sign-seed", "sign-nonces", "bench-seed"],
)
def test_empty_seed_or_nonces_exits_2(workdir, toy_file, capsys, argv):
    keygen_toy(workdir, toy_file)
    (workdir / "m.bin").write_bytes(b"m")
    before = (workdir / "key.sec").read_text()
    capsys.readouterr()
    assert main([*argv, "--curve-file", toy_file]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (workdir / "key.sec").read_text() == before
    assert not (workdir / "m.sig").exists()


# passes relaxed validation (n = 2 is prime and kills the base point),
# but no nonce source can draw from [1, 1]
TINY_CONFIG = "name = tiny\np = 5\na = 0\nb = 1\nbase = 040400\nn = 2\nh = 3\nstrict = false\n"
TINY_ERROR = "error: cannot make a key on tiny: order too small to draw from\n"


def test_keygen_order_too_small_exits_2(workdir, capsys):
    (workdir / "tiny.conf").write_text(TINY_CONFIG)
    for seed in ([], ["--seed", "3"]):
        argv = ["keygen", "--curves", "tiny", "--curve-file", "tiny.conf", *seed]
        assert main(argv) == 2
        assert capsys.readouterr().err == TINY_ERROR


def test_bench_order_too_small_exits_2_without_traceback(workdir):
    (workdir / "tiny.conf").write_text(TINY_CONFIG)
    argv = ["bench", "--curves", "tiny", "--curve-file", "tiny.conf", "--length-samples", "1"]
    result = run_cli_process(*argv)
    assert (result.returncode, result.stderr, result.stdout) == (2, TINY_ERROR, "")


@pytest.mark.parametrize("public_out", ["k", "./k", "sub/../k", "symlink", "hardlink"])
def test_keygen_refuses_one_file_for_both_keys(workdir, capsys, public_out):
    # the public document written second would leave no copy of d
    (workdir / "sub").mkdir()
    (workdir / "k").write_bytes(b"old\n")
    os.symlink("k", workdir / "symlink")
    os.link(workdir / "k", workdir / "hardlink")
    argv = ["keygen", "--seed", "1", "--secret-out", "k", "--public-out", public_out]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --secret-out and --public-out are the same file\n"
    assert captured.out == ""
    assert (workdir / "k").read_bytes() == b"old\n"
    # the same holds for a path that does not exist yet
    assert main(["keygen", "--secret-out", "new", "--public-out", "sub/../new"]) == 2
    assert not (workdir / "new").exists()


@pytest.mark.parametrize(
    "out", ["{}", "./{}", "symlink", "hardlink"], ids=["same", "dot", "symlink", "hardlink"]
)
@pytest.mark.parametrize("flag, target", [("--key", "key.sec"), ("--in", "msg.bin")])
def test_sign_refuses_an_out_file_it_reads(workdir, toy_file, capsys, flag, target, out):
    # a signature written over the key file would leave no copy of d
    keygen_toy(workdir, toy_file)
    (workdir / "msg.bin").write_bytes(b"hello\n")
    os.symlink(target, workdir / "symlink")
    os.link(workdir / target, workdir / "hardlink")
    before = {name: (workdir / name).read_bytes() for name in ("key.sec", "msg.bin")}
    capsys.readouterr()
    argv = ["sign", "--key", "key.sec", "--in", "msg.bin", "--out", out.format(target)]
    assert main([*argv, "--curve-file", toy_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out and {flag} are the same file\n"
    assert captured.out == ""
    assert {name: (workdir / name).read_bytes() for name in before} == before


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["keygen", "--secret-out", "-"], "--secret-out"),
        (["keygen", "--public-out", "-"], "--public-out"),
        (["sign", "--key", "key.sec", "--in", "-", "--out", "-"], "--out"),
        (["sign", "--key", "key.sec", "--in", "msg.bin", "--out", "-"], "--out"),
    ],
    ids=["secret-out", "public-out", "sign-stdin", "sign-file"],
)
def test_dash_is_no_output_file(workdir, toy_file, capsys, monkeypatch, argv, flag):
    # "-" is standard input, for --in only; no file named "-" may appear
    keygen_toy(workdir, toy_file)
    (workdir / "msg.bin").write_bytes(b"hello\n")
    monkeypatch.setattr("sys.stdin", None)  # nothing is read before the refusal
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    capsys.readouterr()
    assert main([*argv, "--seed", "1", "--curve-file", toy_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must name a file; - stands for stdin in --in only\n"
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before
    assert not (workdir / "-").exists()


def test_bench_counts_match_and_report(workdir, capsys):
    # the whole report is frozen: counts, matches, retry flags and lengths
    assert main(["bench", "--length-samples", "2", "--seed", "05"]) == 0
    assert capsys.readouterr().out == golden("bench_seed05.txt")


def test_cli_import_leaves_out_what_only_bench_needs():
    # every sign and verify process pays for what importing the CLI
    # loads; the bench is imported by its own command alone, and the value
    # types need neither dataclasses nor the inspect module behind it
    script = (
        "import sys; before = set(sys.modules); import mecdsa.cli; "
        "print(sorted({'dataclasses', 'inspect', 'mecdsa.bench'} "
        "& (set(sys.modules) - before)))"
    )
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_bench_in_a_fresh_process_matches_in_process(workdir, capsys):
    # the bench module is imported inside its command, so a fresh
    # interpreter, which has not loaded it, must print the same report
    argv = ["bench", "--length-samples", "1", "--seed", "01"]
    result = run_cli_process(*argv)
    assert result.returncode == main(argv) == 0, result.stderr
    assert result.stdout == capsys.readouterr().out
    assert "mecdsa.sign.match = true" in result.stdout


def test_bench_toy_retry_report_is_frozen(workdir, capsys):
    # seed 01 makes both schemes redraw a nonce while signing: the counts
    # exceed the predictions, so bench exits 1
    (workdir / "test17.conf").write_text(TEST17_CONFIG)
    (workdir / "toy23.conf").write_text(format_curve_config(TOY23))
    argv = [
        "bench", "--curve-file", "test17.conf", "--curve-file", "toy23.conf",
        "--curves", "test17,toy23,test17", "--length-samples", "5", "--seed", "01",
    ]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out == golden("bench_toy_seed01.txt")
    assert "mecdsa.sign.retried = true" in out


def test_bench_t1_lengths_coincide(workdir, capsys):
    code = main(
        [
            "bench", "--curves", "secp256k1", "--length-samples", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "length.mecdsa.formula_bits = 512" in out
    assert "length.tecdsa.formula_bits = 512" in out


@pytest.mark.parametrize("seed, code", [("01", 1), ("03", 0)])
def test_bench_count_mismatch_exits_1(workdir, toy_file, capsys, seed, code):
    # seed 01's first nonce on TEST17 is k = 7, whose k*P has x = 0 (r = 0):
    # the retry adds counted steps the cost model does not predict
    argv = ["bench", "--curve-file", toy_file, "--curves", "test17"]
    assert main([*argv, "--length-samples", "1", "--seed", seed]) == code
    out = capsys.readouterr().out
    retried = "true" if code else "false"
    assert f"mecdsa.sign.retried = {retried}" in out


def test_bench_bad_flags(workdir):
    assert main(["bench", "--curves", ""]) == 2
    assert main(["bench", "--length-samples", "0"]) == 2


def test_console_script_entry_point(workdir):
    result = run_cli_process("curves", "list")
    assert result.returncode == 0
    assert "secp256k1" in result.stdout
