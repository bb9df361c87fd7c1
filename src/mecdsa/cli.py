"""Command-line front end: keygen, sign, verify, curve inspection, bench.

Exit codes form a strict contract so scripts can tell refusal from error:
0 success / signature valid, 1 cryptographic refusal (or bench count
mismatch, or failed curve validation), 2 malformed input (unknown curve,
bad file content, bad flags), 3 I/O failure.  ``main`` alone maps errors
to codes: malformed input raises a ``MecdsaError`` (exit 2), and an I/O
failure an ``OSError`` that reads "cannot read <path>" or "cannot write
<path>" (exit 3).  Every error about a file's content starts with its
path, which ``_reading`` adds.

Key and signature files are line-oriented UTF-8 "key = value" documents,
all integers as lowercase big-endian hex without a prefix.  Secret
material lives in its own file, never alongside anything a verifier
needs.  This is desk-scale tooling: key files are unencrypted and the
arithmetic is not constant-time, so do not use it to guard real funds.
"""

import argparse
import contextlib
import os
import sys

from mecdsa import bench as benchmod
from mecdsa import curve
from mecdsa._hex import hex_to_int, int_to_hex
from mecdsa.curve import decode_point, encode_point, validate_curve_params
from mecdsa.ecdsa import (
    ListNonceSource,
    NonceSource,
    SeededNonceSource,
    SystemNonceSource,
)
from mecdsa.errors import FormatError, MecdsaError
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    decode_multisig,
    encode_multisig,
    format_signature,
    mkeygen,
    msign,
    mverify,
    parse_signature,
    t_ecdsa_sign,
    t_ecdsa_verify,
)
from mecdsa.registry import (
    CurveRegistry,
    format_curve_config,
    parse_curve_config,
    parse_kv_lines,
)

DEFAULT_CURVES = "secp256k1,p256"

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3

_FILE_VERSION = "1"


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None


def _read_message(path) -> bytes:
    """The message file, or standard input for ``-``."""
    return sys.stdin.buffer.read() if path == "-" else _read(path)


def _write(path, text, secret=False):
    """Write ``text`` to ``path``.  A secret file is made readable by its
    owner only before its first byte goes in: ``os.open`` sets the mode
    only on a file it creates, so the descriptor is restricted too."""
    mode = 0o600 if secret else 0o666
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
        with open(fd, "w", encoding="utf-8") as fh:
            if secret:
                os.chmod(fd, mode)
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


@contextlib.contextmanager
def _reading(path):
    """Name ``path`` in any error about the content read inside the block:
    a missing key, a ``MecdsaError``, or a ``ValueError`` such as bad UTF-8.
    An I/O failure passes through, since it names the file already."""
    try:
        yield
    except (KeyError, MecdsaError, ValueError) as exc:
        detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"{path}: {detail}") from None


def _build_registry(curve_files) -> CurveRegistry:
    registry = CurveRegistry()
    for path in curve_files or ():
        with _reading(path):
            text = _read(path).decode("utf-8")
            registry.load_custom(text, source=os.path.basename(path))
    return registry


def _curve_names(names_csv) -> "list[str]":
    names = [n.strip() for n in names_csv.split(",") if n.strip()]
    if not names:
        raise FormatError("curve list is empty")
    return names


def _resolve_config(names, registry) -> MultiCurveConfig:
    return MultiCurveConfig(tuple(registry.get(n) for n in names))


def _nonce_source(args) -> NonceSource:
    nonces = getattr(args, "nonces", None)
    if nonces is not None:
        values = [hex_to_int(v.strip(), "nonce") for v in nonces.split(",")]
        return ListNonceSource(values)
    if getattr(args, "seed", None) is not None:
        return SeededNonceSource(hex_to_int(args.seed, "seed"))
    return SystemNonceSource()


def _kv_document(pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _read_document(path) -> "dict[str, str]":
    """The "key = value" pairs of a key or signature file of version 1;
    call it inside ``_reading(path)``."""
    kv = parse_kv_lines(_read(path).decode("utf-8"))
    if kv.get("version") != _FILE_VERSION:
        raise FormatError(f"unsupported file version {kv.get('version', '')!r}")
    return kv


def _load_key_file(path, registry, need_secret):
    with _reading(path):
        kv = _read_document(path)
        names = [n.strip() for n in kv["curves"].split(",")]
        config = _resolve_config(names, registry)
        q_texts = kv["q"].split(",")
        if len(q_texts) != config.t:
            raise FormatError("q list does not match curve list")
        publics = tuple(decode_point(q, c) for q, c in zip(q_texts, config.curves))
        for c, q in zip(config.curves, publics):
            if q.is_infinity:
                raise FormatError(f"public point on {c.name} is the identity")
        if not need_secret:
            return config, None, publics
        if "d" not in kv:
            raise FormatError("no private scalars in this file (is it public?)")
        ds = tuple(hex_to_int(v.strip(), "d") for v in kv["d"].split(","))
        if len(ds) != config.t:
            raise FormatError("d list does not match curve list")
        keypair = MultiCurveKeypair(config, ds, publics)
        for c, d, q in zip(config.curves, ds, publics):
            if not 1 <= d < c.n:
                raise FormatError(f"d on {c.name} is outside [1, n-1]")
            if curve.scalar_mul(d, c.base, c) != q:
                raise FormatError(f"stored public point does not match d*P on {c.name}")
        return config, keypair, publics


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file, through links or not."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _cmd_keygen(args):
    # the public document would overwrite the secret one, and d be lost
    if _same_file(args.secret_out, args.public_out):
        raise FormatError("--secret-out and --public-out are the same file")
    registry = _build_registry(args.curve_file)
    config = _resolve_config(_curve_names(args.curves), registry)
    keypair = mkeygen(config, _nonce_source(args))
    names = ",".join(c.name for c in config.curves)
    qs = ",".join(encode_point(q, c) for q, c in zip(keypair.q, config.curves))
    secret = _kv_document(
        [
            ("version", _FILE_VERSION),
            ("curves", names),
            ("d", ",".join(int_to_hex(d) for d in keypair.d)),
            ("q", qs),
        ]
    )
    public = _kv_document([("version", _FILE_VERSION), ("curves", names), ("q", qs)])
    _write(args.secret_out, secret, secret=True)
    _write(args.public_out, public)
    print(f"wrote {args.secret_out} (secret) and {args.public_out} (public)")
    return EXIT_OK


def _cmd_sign(args):
    registry = _build_registry(args.curve_file)
    config, keypair, _ = _load_key_file(args.key, registry, need_secret=True)
    message = _read_message(getattr(args, "in"))
    nonces = _nonce_source(args)
    names = ",".join(c.name for c in config.curves)
    if args.scheme == "mecdsa":
        sig_text = encode_multisig(msign(message, keypair, nonces)).hex()
    else:
        pairs = t_ecdsa_sign(message, keypair, nonces)
        sig_text = ",".join(format_signature(pair) for pair in pairs)
    doc = _kv_document(
        [
            ("version", _FILE_VERSION),
            ("scheme", args.scheme),
            ("curves", names),
            ("signature", sig_text),
        ]
    )
    _write(args.out, doc)
    print(f"wrote {args.out} ({args.scheme}, t={config.t})")
    return EXIT_OK


def _cmd_verify(args):
    registry = _build_registry(args.curve_file)
    config, _, publics = _load_key_file(args.public, registry, need_secret=False)
    message = _read_message(getattr(args, "in"))
    with _reading(args.sig):
        kv = _read_document(args.sig)
        scheme = kv["scheme"]
        # curve names are case-insensitive, as in the key file
        sig_names = [n.strip().lower() for n in kv["curves"].split(",")]
        if sig_names != [c.name.lower() for c in config.curves]:
            raise FormatError("curve list does not match the key file")
        if scheme == "mecdsa":
            sig = decode_multisig(bytes.fromhex(kv["signature"]))
            ok = mverify(message, sig, publics, config)
        elif scheme == "t-ecdsa":
            pairs = tuple(
                parse_signature(part) for part in kv["signature"].split(",")
            )
            ok = t_ecdsa_verify(message, pairs, publics, config)
        else:
            raise FormatError(f"unknown scheme {scheme!r}")
    print("VALID" if ok else "INVALID")
    return EXIT_OK if ok else EXIT_REFUSED


def _cmd_curves_list(args):
    for name, bits, source in _build_registry(args.curve_file).list_curves():
        print(f"{name:<12} {bits:>4} bits   {source}")
    return EXIT_OK


def _cmd_curves_show(args):
    registry = _build_registry(args.curve_file)
    sys.stdout.write(format_curve_config(registry.get(args.name)))
    return EXIT_OK


def _cmd_curves_validate(args):
    with _reading(args.file):
        params, strict = parse_curve_config(_read(args.file).decode("utf-8"))
    report = validate_curve_params(params, strict=strict)
    print(report)
    return EXIT_OK if report.ok else EXIT_REFUSED


def _cmd_bench(args):
    registry = _build_registry(args.curve_file)
    names = _curve_names(args.curves)
    if args.length_samples < 1:
        raise FormatError("length-samples must be >= 1")
    config = _resolve_config(names, registry)
    seed = hex_to_int(args.seed, "seed") if args.seed is not None else 0
    lengths = benchmod.signature_length_report(config, args.length_samples, seed)
    reports = benchmod.cost_reports(config, seed)
    print(benchmod.format_report_table(reports, lengths))
    print()
    print(benchmod.report_kv_lines(reports, lengths))
    return EXIT_OK if all(rep.counts_match for rep in reports) else EXIT_REFUSED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecdsa",
        description="Multi-curve ECDSA signatures: one shared r over t curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_curve_file = dict(
        action="append",
        metavar="PATH",
        help="load a custom curve config before resolving names (repeatable)",
    )

    p = sub.add_parser("keygen", help="generate a multi-curve keypair")
    p.add_argument(
        "--curves",
        default=DEFAULT_CURVES,
        help=f"comma-separated curve names (default: {DEFAULT_CURVES})",
    )
    p.add_argument("--secret-out", default="key.sec", help="secret key file path")
    p.add_argument("--public-out", default="key.pub", help="public key file path")
    p.add_argument("--seed", help="hex seed for deterministic keys (tests only)")
    p.add_argument("--curve-file", **common_curve_file)
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("sign", help="sign a message")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--in", required=True, help="message file, or - for stdin")
    p.add_argument("--out", required=True, help="signature file to write")
    p.add_argument("--scheme", choices=("mecdsa", "t-ecdsa"), default="mecdsa")
    p.add_argument("--nonces", help="comma-separated hex nonces (test mode)")
    p.add_argument("--seed", help="hex seed for deterministic nonces (tests only)")
    p.add_argument("--curve-file", **common_curve_file)
    p.set_defaults(fn=_cmd_sign)

    p = sub.add_parser("verify", help="verify a signature file")
    p.add_argument("--public", required=True, help="public key file")
    p.add_argument("--in", required=True, help="message file, or - for stdin")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--curve-file", **common_curve_file)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("curves", help="inspect and validate curve parameters")
    curves_sub = p.add_subparsers(required=True)
    q = curves_sub.add_parser("list", help="list known curves")
    q.add_argument("--curve-file", **common_curve_file)
    q.set_defaults(fn=_cmd_curves_list)
    q = curves_sub.add_parser("show", help="print one curve as a config document")
    q.add_argument("name")
    q.add_argument("--curve-file", **common_curve_file)
    q.set_defaults(fn=_cmd_curves_show)
    q = curves_sub.add_parser("validate", help="validate a curve config file")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_curves_validate)

    p = sub.add_parser("bench", help="operation counts and signature lengths")
    p.add_argument(
        "--curves",
        default=DEFAULT_CURVES,
        help=f"comma-separated curve names, t = their count (default: {DEFAULT_CURVES})",
    )
    p.add_argument(
        "--length-samples",
        type=int,
        default=100,
        help="random signatures for the length measurement",
    )
    p.add_argument("--seed", help="hex seed for deterministic inputs")
    p.add_argument("--curve-file", **common_curve_file)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MecdsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
