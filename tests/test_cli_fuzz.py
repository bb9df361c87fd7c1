"""Fuzz of the CLI's ``main()``: whatever the key, signature and curve
files hold and whatever ``--nonces`` says, every subcommand returns an
exit code from 0 to 3 and lets no exception escape ``main``.  Files are
either arbitrary bytes or a valid document with one line dropped, doubled
or rewritten.  The TEST17 toy curve keeps each example fast."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from mecdsa.cli import main
from mecdsa.registry import format_curve_config

from .conftest import TEST17

HEXISH = st.text(alphabet="0123456789abcdefABCDEF,:=# x-", max_size=40)
NONCES = st.one_of(
    st.sampled_from(["0", format(TEST17.n, "x"), "1,2,3", ",", ""]),
    st.lists(st.integers(0, 2 * TEST17.n), min_size=1, max_size=4).map(
        lambda ks: ",".join(format(k, "x") for k in ks)
    ),
    HEXISH,
)


def run_main(argv) -> int:
    """main's exit code; an argparse SystemExit counts as its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@st.composite
def near_valid(draw, text):
    """``text`` with one line dropped, doubled, or given a new value."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["drop", "double", "rewrite"]))
    if op == "drop":
        del lines[i]
    elif op == "double":
        lines.insert(i, lines[i])
    else:
        key = lines[i].partition("=")[0]
        lines[i] = key + "= " + draw(st.one_of(HEXISH, st.text(max_size=20)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def file_content(text):
    return st.one_of(st.just(text.encode()), near_valid(text), st.binary(max_size=120))


def documents(tmp):
    """Valid TEST17 curve, key and signature documents, written by main."""
    (tmp / "test17.curve").write_text(format_curve_config(TEST17))
    (tmp / "m.bin").write_bytes(b"fuzz")
    toy = ["--curve-file", str(tmp / "test17.curve")]
    key = ["--secret-out", str(tmp / "key.sec"), "--public-out", str(tmp / "key.pub")]
    assert run_main(["keygen", "--curves", "test17", "--seed", "5", *key, *toy]) == 0
    for scheme in ("mecdsa", "t-ecdsa"):
        argv = ["sign", "--key", str(tmp / "key.sec"), "--in", str(tmp / "m.bin")]
        argv += ["--out", str(tmp / f"{scheme}.sig"), "--scheme", scheme, "--seed", "7"]
        assert run_main(argv + toy) == 0
    names = ("test17.curve", "key.sec", "key.pub", "mecdsa.sig", "t-ecdsa.sig")
    return {name: (tmp / name).read_text() for name in names}


def test_fuzz_main_exit_codes(tmp_path):
    docs = documents(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        def put(name, content):
            (tmp_path / f"in-{name}").write_bytes(content)
            return str(tmp_path / f"in-{name}")

        curve = put("test17.curve", data.draw(file_content(docs["test17.curve"])))
        message = str(tmp_path / "m.bin")
        out = str(tmp_path / "out")
        commands = ["keygen", "sign", "verify", "validate", "bench", "show", "list"]
        command = data.draw(st.sampled_from(commands))
        if command == "keygen":
            argv = ["keygen", "--curves", "test17", "--seed", "5"]
            argv += ["--secret-out", out + ".sec", "--public-out", out + ".pub"]
        elif command == "sign":
            key = put("key.sec", data.draw(file_content(docs["key.sec"])))
            scheme = data.draw(st.sampled_from(["mecdsa", "t-ecdsa"]))
            argv = ["sign", "--key", key, "--in", message, "--out", out]
            argv += ["--scheme", scheme, "--nonces=" + data.draw(NONCES)]
        elif command == "verify":
            public = put("key.pub", data.draw(file_content(docs["key.pub"])))
            sig_doc = docs[data.draw(st.sampled_from(["mecdsa.sig", "t-ecdsa.sig"]))]
            sig = put("sig", data.draw(file_content(sig_doc)))
            argv = ["verify", "--public", public, "--in", message, "--sig", sig]
        elif command == "bench":
            argv = ["bench", "--curves", "test17", "--length-samples", "1"]
        elif command == "show":
            argv = ["curves", "show", "test17"]
        elif command == "list":
            argv = ["curves", "list"]
        else:
            argv = ["curves", "validate", curve]
        if command != "validate":
            argv += ["--curve-file", curve]
        assert run_main(argv) in (0, 1, 2, 3), argv

    check()
