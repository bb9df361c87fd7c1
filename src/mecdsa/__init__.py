"""Multi-curve ECDSA signatures.

One signature over t independently-chosen curves: per-curve nonce points
give residues r_i, the shared value r is their plain integer sum, and
each curve contributes one s_i binding r under its own order.  Compared
with running ECDSA once per curve, the signature carries a single r
instead of t of them.  At t = 1 the scheme is plain ECDSA, bit for bit,
so a one-curve config is how the package signs with ECDSA, and ECDSA's
per-curve steps are written once, in ``msign`` and ``mverify``.  The
package also ships the run-it-t-times baseline, whose signature is the
tuple of its t one-curve signatures, a cost-model bench, and a CLI.  Its
modules are the API, each name in one of them: ``mecdsa.multi`` holds
``mkeygen``, ``msign`` and ``mverify``, ``mecdsa.curve`` the points.

NOT production-hardened: arithmetic is not constant-time, key files are
unencrypted, and nonce handling favors testability.  Desk-scale use only.
"""
