"""The CLI's error lines, frozen: for each bad input, the exact stderr
line, an empty stdout and the exit code (2 malformed input, 3 I/O
failure).  Every error about a file's content starts with its path."""

import sys

import pytest

from mecdsa.cli import main
from mecdsa.registry import format_curve_config

from .conftest import TEST17

NOT_UTF8 = b"\xff\xfe not UTF-8\n"
NO_FILE = "[Errno 2] No such file or directory"
TOY = ["--curve-file", "test17.curve"]
SIGN = ["sign", "--key", "key.sec", "--in", "m.bin", "--out", "new.sig", "--seed", "3", *TOY]
VERIFY = ["verify", "--public", "key.pub", "--in", "m.bin", "--sig", "m.sig", *TOY]


def with_flag(argv, flag, value):
    """``argv`` with the value after ``flag`` replaced."""
    i = argv.index(flag)
    return [*argv[: i + 1], value, *argv[i + 2 :]]


@pytest.fixture
def toy_files(tmp_path, monkeypatch):
    """A TEST17 curve file, key pair, message and mecdsa signature."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "test17.curve").write_text(format_curve_config(TEST17))
    (tmp_path / "m.bin").write_bytes(b"m")
    assert main(["keygen", "--curves", "test17", "--seed", "a5", *TOY]) == 0
    assert main(["sign", "--key", "key.sec", "--in", "m.bin", "--out", "m.sig", *TOY]) == 0
    return tmp_path


def apply_edit(path, change):
    """Write ``change`` if it is bytes; else rewrite the "key = value"
    lines it names: None drops the line, a string is formatted with the
    old value as its one argument."""
    if isinstance(change, bytes):
        path.write_bytes(change)
        return
    lines = []
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key in change:
            if change[key] is None:
                continue
            line = f"{key} = {change[key].format(value)}"
        lines.append(line)
    path.write_text("".join(line + "\n" for line in lines))


ERRORS = [
    # (id, argv, file edits, exit code, stderr)
    ("key-missing-key", SIGN, {"key.sec": {"q": None}}, 2,
     "key.sec: missing key 'q'"),
    ("sig-missing-key", VERIFY, {"m.sig": {"signature": None}}, 2,
     "m.sig: missing key 'signature'"),
    ("sig-missing-scheme", VERIFY, {"m.sig": {"scheme": None}}, 2,
     "m.sig: missing key 'scheme'"),
    ("unknown-scheme", VERIFY, {"m.sig": {"scheme": "rsa"}}, 2,
     "m.sig: unknown scheme 'rsa'"),
    ("key-version-2", SIGN, {"key.sec": {"version": "2"}}, 2,
     "key.sec: unsupported file version '2'"),
    ("sig-version-2", VERIFY, {"m.sig": {"version": "2"}}, 2,
     "m.sig: unsupported file version '2'"),
    ("q-list-length", VERIFY, {"key.pub": {"q": "{0},{0}"}}, 2,
     "key.pub: q list does not match curve list"),
    ("d-list-length", SIGN, {"key.sec": {"d": "{},1"}}, 2,
     "key.sec: d list does not match curve list"),
    ("sig-curve-list", VERIFY, {"m.sig": {"curves": "test17,test17"}}, 2,
     "m.sig: curve list does not match the key file"),
    ("sig-not-pairs", VERIFY, {"m.sig": {"scheme": "t-ecdsa", "signature": "1"}}, 2,
     "m.sig: signature must be 'r:s', got '1'"),
    ("sig-not-hex", VERIFY, {"m.sig": {"signature": "zz"}}, 2,
     "m.sig: non-hexadecimal number found in fromhex() arg at position 0"),
    ("public-key-signs", with_flag(SIGN, "--key", "key.pub"), {}, 2,
     "key.pub: no private scalars in this file (is it public?)"),
    ("non-utf8-curve", ["curves", "list", "--curve-file", "bad.conf"],
     {"bad.conf": NOT_UTF8}, 2,
     "bad.conf: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("non-utf8-key", SIGN, {"key.sec": NOT_UTF8}, 2,
     "key.sec: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("curve-not-config", ["curves", "validate", "g.conf"], {"g.conf": b"not a config\n"}, 2,
     "g.conf: line 1: expected 'key = value': 'not a config'"),
    ("curve-twice", ["curves", "list", *TOY, *TOY], {}, 2,
     "test17.curve: curve name 'test17' already registered"),
    ("unknown-curve", ["keygen", "--curves", "nosuch"], {}, 2,
     "unknown curve 'nosuch'; available: p256, secp256k1, secp256r1, sm2"),
    ("empty-curve-list", ["bench", "--curves", ","], {}, 2,
     "curve list is empty"),
    ("length-samples-0", ["bench", "--length-samples", "0"], {}, 2,
     "length-samples must be >= 1"),
    ("nonce-not-hex", [*SIGN, "--nonces", "zz"], {}, 2,
     "nonce: not a hex string: 'zz'"),
    # SIGN gives --seed: the seed would be dropped without a word
    ("seed-and-nonces", [*SIGN, "--nonces", "05,07"], {}, 2,
     "--seed and --nonces cannot be used together"),
    # a curve list could never name it
    ("curve-name-comma", ["curves", "validate", "test17.curve"],
     {"test17.curve": {"name": "a,b"}}, 2,
     "test17.curve: curve name 'a,b' contains ',', the curve-list separator"),
    ("curve-file-name-comma", ["curves", "list", *TOY], {"test17.curve": {"name": "a,b"}}, 2,
     "test17.curve: curve name 'a,b' contains ',', the curve-list separator"),
    ("cannot-read-key", with_flag(SIGN, "--key", "no.sec"), {}, 3,
     f"cannot read no.sec: {NO_FILE}: 'no.sec'"),
    ("cannot-read-message", with_flag(SIGN, "--in", "no.bin"), {}, 3,
     f"cannot read no.bin: {NO_FILE}: 'no.bin'"),
    ("cannot-read-curve", ["curves", "list", "--curve-file", "no.conf"], {}, 3,
     f"cannot read no.conf: {NO_FILE}: 'no.conf'"),
    ("cannot-read-validated", ["curves", "validate", "no.conf"], {}, 3,
     f"cannot read no.conf: {NO_FILE}: 'no.conf'"),
    ("cannot-write-sig", with_flag(SIGN, "--out", "no/new.sig"), {}, 3,
     f"cannot write no/new.sig: {NO_FILE}: 'no/new.sig'"),
    # only --in takes - for standard input; a key file named - is a file
    ("key-dash", with_flag(SIGN, "--key", "-"), {}, 3,
     f"cannot read -: {NO_FILE}: '-'"),
]


@pytest.mark.parametrize(
    "argv, edits, code, err", [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS]
)
def test_error_line_and_exit_code(toy_files, capsys, monkeypatch, argv, edits, code, err):
    for name, change in edits.items():
        apply_edit(toy_files / name, change)

    class NoStdin:
        class buffer:
            @staticmethod
            def read():
                raise AssertionError("standard input read")

    monkeypatch.setattr(sys, "stdin", NoStdin)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert not (toy_files / "new.sig").exists()
