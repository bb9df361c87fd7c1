"""Command-line front end: keygen, sign, verify, curve inspection, bench.

Exit codes form a strict contract so scripts can tell refusal from error:
0 success / signature valid, 1 cryptographic refusal (or bench count
mismatch, or failed curve validation), 2 malformed input (unknown curve,
bad file content, bad flags), 3 I/O failure.

Key and signature files are line-oriented UTF-8 "key = value" documents,
all integers as lowercase big-endian hex without a prefix.  Secret
material lives in its own file, never alongside anything a verifier
needs.  This is desk-scale tooling: key files are unencrypted and the
arithmetic is not constant-time, so do not use it to guard real funds.
"""

import argparse
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
    format_signature,
    parse_signature,
)
from mecdsa.errors import FormatError, MecdsaError
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    TEcdsaSignature,
    decode_multisig,
    encode_multisig,
    mkeygen,
    msign,
    mverify,
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


class _CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail_input(message):
    raise _CliFailure(EXIT_BAD_INPUT, message)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        _fail_input(f"{path}: {exc}")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {path}: {exc}") from None


def _write_secret(path, text):
    """Write ``text`` to a file only its owner can read.  ``os.open`` sets
    the mode only on a file it creates, so the descriptor is restricted
    too, before the first byte goes in."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with open(fd, "w", encoding="utf-8") as fh:
            os.chmod(fd, 0o600)
            fh.write(text)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {path}: {exc}") from None


def _read_message(path):
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc}") from None


def _build_registry(curve_files) -> CurveRegistry:
    registry = CurveRegistry()
    for path in curve_files or ():
        text = _read_text(path)
        try:
            registry.load_custom(text, source=os.path.basename(path))
        except MecdsaError as exc:
            _fail_input(f"{path}: {exc}")
    return registry


def _curve_names(names_csv) -> "list[str]":
    names = [n.strip() for n in names_csv.split(",") if n.strip()]
    if not names:
        _fail_input("curve list is empty")
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
    """The "key = value" pairs of a key or signature file of version 1."""
    try:
        kv = parse_kv_lines(_read_text(path))
    except FormatError as exc:
        _fail_input(f"{path}: {exc}")
    if kv.get("version") != _FILE_VERSION:
        _fail_input(f"{path}: unsupported file version {kv.get('version', '')!r}")
    return kv


def _load_key_file(path, registry, need_secret):
    kv = _read_document(path)
    try:
        names = [n.strip() for n in kv["curves"].split(",")]
        config = _resolve_config(names, registry)
        q_texts = kv["q"].split(",")
        if len(q_texts) != config.t:
            _fail_input(f"{path}: q list does not match curve list")
        publics = tuple(decode_point(q, c) for q, c in zip(q_texts, config.curves))
        for c, q in zip(config.curves, publics):
            if q.is_infinity:
                _fail_input(f"{path}: public point on {c.name} is the identity")
        if not need_secret:
            return config, None, publics
        if "d" not in kv:
            _fail_input(f"{path}: no private scalars in this file (is it public?)")
        ds = tuple(hex_to_int(v.strip(), "d") for v in kv["d"].split(","))
        if len(ds) != config.t:
            _fail_input(f"{path}: d list does not match curve list")
        keypair = MultiCurveKeypair(config, ds, publics)
        for c, d, q in zip(config.curves, ds, publics):
            if not 1 <= d < c.n:
                _fail_input(f"{path}: d on {c.name} is outside [1, n-1]")
            if curve.scalar_mul(d, c.base, c) != q:
                _fail_input(f"{path}: stored public point does not match d*P on {c.name}")
        return config, keypair, publics
    except KeyError as exc:
        _fail_input(f"{path}: missing key {exc.args[0]!r}")
    except (MecdsaError, ValueError) as exc:
        _fail_input(f"{path}: {exc}")


def _cmd_keygen(args):
    registry = _build_registry(args.curve_file)
    config = _resolve_config(_curve_names(args.curves), registry)
    rng = _nonce_source(args)
    try:
        keypair = mkeygen(config, rng)
    except ValueError as exc:  # the nonce source cannot draw below this order
        _fail_input(str(exc))
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
    _write_secret(args.secret_out, secret)
    _write_text(args.public_out, public)
    print(f"wrote {args.secret_out} (secret) and {args.public_out} (public)")
    return EXIT_OK


def _cmd_sign(args):
    registry = _build_registry(args.curve_file)
    config, keypair, _ = _load_key_file(args.key, registry, need_secret=True)
    message = _read_message(getattr(args, "in"))
    nonces = _nonce_source(args)
    names = ",".join(c.name for c in config.curves)
    try:
        if args.scheme == "mecdsa":
            sig_text = encode_multisig(msign(message, keypair, nonces)).hex()
        else:
            pairs = t_ecdsa_sign(message, keypair, nonces).pairs
            sig_text = ",".join(format_signature(pair) for pair in pairs)
    except ValueError as exc:  # a --nonces entry outside [1, n-1]
        _fail_input(str(exc))
    doc = _kv_document(
        [
            ("version", _FILE_VERSION),
            ("scheme", args.scheme),
            ("curves", names),
            ("signature", sig_text),
        ]
    )
    _write_text(args.out, doc)
    print(f"wrote {args.out} ({args.scheme}, t={config.t})")
    return EXIT_OK


def _cmd_verify(args):
    registry = _build_registry(args.curve_file)
    config, _, publics = _load_key_file(args.public, registry, need_secret=False)
    message = _read_message(getattr(args, "in"))
    kv = _read_document(args.sig)
    try:
        scheme = kv["scheme"]
        sig_names = [n.strip() for n in kv["curves"].split(",")]
        if sig_names != [c.name for c in config.curves]:
            _fail_input(f"{args.sig}: curve list does not match the key file")
        if scheme == "mecdsa":
            sig = decode_multisig(bytes.fromhex(kv["signature"]))
            ok = mverify(message, sig, publics, config)
        elif scheme == "t-ecdsa":
            pairs = tuple(
                parse_signature(part) for part in kv["signature"].split(",")
            )
            ok = t_ecdsa_verify(message, TEcdsaSignature(pairs), publics, config)
        else:
            _fail_input(f"{args.sig}: unknown scheme {scheme!r}")
    except KeyError as exc:
        _fail_input(f"{args.sig}: missing key {exc.args[0]!r}")
    except (MecdsaError, ValueError) as exc:
        _fail_input(f"{args.sig}: {exc}")
    print("VALID" if ok else "INVALID")
    return EXIT_OK if ok else EXIT_REFUSED


def _cmd_curves(args):
    if args.curves_cmd == "list":
        registry = _build_registry(args.curve_file)
        for name, bits, source in registry.list_curves():
            print(f"{name:<12} {bits:>4} bits   {source}")
        return EXIT_OK
    if args.curves_cmd == "show":
        registry = _build_registry(args.curve_file)
        sys.stdout.write(format_curve_config(registry.get(args.name)))
        return EXIT_OK
    # validate
    text = _read_text(args.file)
    try:
        params, strict = parse_curve_config(text)
    except MecdsaError as exc:
        _fail_input(f"{args.file}: {exc}")
    report = validate_curve_params(params, strict=strict)
    print(report)
    return EXIT_OK if report.ok else EXIT_REFUSED


def _cmd_bench(args):
    registry = _build_registry(args.curve_file)
    names = _curve_names(args.curves)
    if args.length_samples < 1:
        _fail_input("length-samples must be >= 1")
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
    curves_sub = p.add_subparsers(dest="curves_cmd", required=True)
    q = curves_sub.add_parser("list", help="list known curves")
    q.add_argument("--curve-file", **common_curve_file)
    q.set_defaults(fn=_cmd_curves)
    q = curves_sub.add_parser("show", help="print one curve as a config document")
    q.add_argument("name")
    q.add_argument("--curve-file", **common_curve_file)
    q.set_defaults(fn=_cmd_curves)
    q = curves_sub.add_parser("validate", help="validate a curve config file")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_curves)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MecdsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
