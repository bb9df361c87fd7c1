import pytest

from mecdsa.bench import (
    cost_reports,
    format_report_table,
    formula_sig_bits,
    measure_counts,
    predicted_counts,
    report_kv_lines,
    signature_length_report,
)
from mecdsa.curve import scalar_mul
from mecdsa.ecdsa import ListNonceSource
from mecdsa.multi import MultiCurveConfig, MultiCurveKeypair
from mecdsa.opcount import OpCounts
from mecdsa.registry import default_registry

from .conftest import TEST17, TOY23, TOY43

# retry-free fixed inputs per t (checked by the oracle when generated and
# re-checked here via the retried flag)
FIXED = {
    1: ((TEST17,), (11,), [5], b"beta"),
    2: ((TEST17, TOY23), (4, 11), [8, 8], b"oracle-check 0"),
    3: ((TEST17, TOY23, TOY43), (8, 19, 18), [5, 12, 30], b"t3 bench"),
}


def fixed_setup(t):
    curves, ds, ks, message = FIXED[t]
    config = MultiCurveConfig(curves)
    qs = tuple(scalar_mul(d, c.base, c) for d, c in zip(ds, curves))
    return MultiCurveKeypair(config, ds, qs), ks, message


def test_predicted_counts_known_rows():
    assert predicted_counts("mecdsa", "sign", 2) == OpCounts(3, 4, 2, 0, 2)
    assert predicted_counts("mecdsa", "verify", 1) == OpCounts(0, 2, 1, 1, 2)
    assert predicted_counts("t-ecdsa", "sign", 1) == OpCounts(1, 2, 1, 0, 1)
    assert predicted_counts("t-ecdsa", "verify", 3) == OpCounts(0, 6, 3, 3, 6)


def test_predicted_counts_rejects_bad_inputs():
    with pytest.raises(ValueError):
        predicted_counts("mecdsa", "sign", 0)
    with pytest.raises(ValueError):
        predicted_counts("dsa", "sign", 1)
    with pytest.raises(ValueError):
        predicted_counts("mecdsa", "keygen", 1)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("scheme", ["mecdsa", "t-ecdsa"])
@pytest.mark.parametrize("phase", ["sign", "verify"])
def test_measured_counts_equal_predictions(t, scheme, phase):
    keypair, ks, message = fixed_setup(t)
    traces = measure_counts(scheme, keypair, message, ListNonceSource(ks))
    run = traces[("sign", "verify").index(phase)]
    assert not run.retried
    assert run.counts == predicted_counts(scheme, phase, t)


@pytest.mark.parametrize("scheme", ["mecdsa", "t-ecdsa"])
def test_verify_trace_recovers_the_signed_points(scheme):
    # the counted verify checks the very signature the counted sign made
    keypair, ks, message = fixed_setup(3)
    signed, verified = measure_counts(scheme, keypair, message, ListNonceSource(ks))
    assert len(signed.points) == len(signed.r_values) == 3
    assert verified.points == signed.points
    assert verified.r_values == signed.r_values


def test_forced_retry_exceeds_predictions():
    # k = 7 hits the x = 0 point of TEST17 (r_1 = 0), forcing a retry
    keypair, _ks, message = fixed_setup(1)
    run, verified = measure_counts("mecdsa", keypair, message, ListNonceSource([7, 5]))
    assert run.retried and run.retries == 1
    assert not verified.retried
    assert verified.counts == predicted_counts("mecdsa", "verify", 1)
    predicted = predicted_counts("mecdsa", "sign", 1)
    assert run.counts != predicted
    assert run.counts.ec_mul == predicted.ec_mul + 1


def test_formula_bits_known_values():
    orders = [default_registry().get(n).n for n in ("secp256k1", "p256")]
    assert all(n.bit_length() == 256 for n in orders)
    assert formula_sig_bits("mecdsa", orders) == 769
    assert formula_sig_bits("t-ecdsa", orders) == 1024


def test_formula_bits_degenerate_t1():
    orders = [default_registry().get("secp256k1").n]
    assert formula_sig_bits("mecdsa", orders) == formula_sig_bits("t-ecdsa", orders) == 512


def test_tight_slack_replaces_linear_slack():
    # loose slack is t - 1, tight slack is ceil(log2 t)
    for t, ceil_log2_t in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        orders = [TEST17.n] * t
        loose = formula_sig_bits("mecdsa", orders)
        tight = formula_sig_bits("mecdsa", orders, tight=True)
        assert loose - tight == (t - 1) - ceil_log2_t


def test_length_report_builtin_pair():
    registry = default_registry()
    config = MultiCurveConfig((registry.get("secp256k1"), registry.get("p256")))
    report = signature_length_report(config, samples=100, seed=11)
    assert report.mecdsa_formula_bits == 769
    assert report.tecdsa_formula_bits == 1024
    assert report.mecdsa_measured_max <= report.mecdsa_tight_bits <= 769
    assert report.tecdsa_measured_max <= 1024
    # the advertised reduction: 769/1024, about a quarter shorter
    ratio = report.mecdsa_formula_bits / report.tecdsa_formula_bits
    assert abs(ratio - 0.751) < 0.001
    assert 1 - ratio >= 0.249


def test_length_report_measured_within_formula_toys():
    config = MultiCurveConfig((TEST17, TOY23, TOY43))
    report = signature_length_report(config, samples=200, seed=3)
    assert report.mecdsa_measured_max <= report.mecdsa_formula_bits
    assert report.tecdsa_measured_max <= report.tecdsa_formula_bits
    assert report.mecdsa_measured_mean <= report.mecdsa_measured_max


def test_cost_reports_shape_and_determinism():
    config = MultiCurveConfig((TEST17, TOY23))
    reports = cost_reports(config, seed=21)
    cells = {(rep.scheme, rep.phase) for rep in reports}
    assert cells == {
        ("mecdsa", "sign"),
        ("mecdsa", "verify"),
        ("t-ecdsa", "sign"),
        ("t-ecdsa", "verify"),
    }
    again = cost_reports(config, seed=21)
    assert [rep.counted for rep in reports] == [rep.counted for rep in again]
    assert [rep.retried for rep in reports] == [rep.retried for rep in again]


def test_report_formatting_contains_counts_and_lengths():
    config = MultiCurveConfig((TEST17, TOY23))
    reports = cost_reports(config, seed=1)
    lengths = signature_length_report(config, samples=5, seed=1)
    table = format_report_table(reports, lengths)
    assert "mecdsa" in table and "t-ecdsa" in table
    assert "signature payload bits" in table
    kv = report_kv_lines(reports, lengths)
    assert "mecdsa.sign.counted.field_add = 3" in kv
    assert "mecdsa.sign.predicted.field_add = 3" in kv
    assert "length.mecdsa.formula_bits" in kv
