"""Shared fixtures: toy curves whose constants the suite itself re-derives
by exhaustive enumeration, a time bound on every test, plus an
acceptance-criteria summary hook."""

import faulthandler
import os
import random

import pytest

from mecdsa.curve import CurveParams
from mecdsa.multi import MultiCurveConfig
from mecdsa.registry import default_registry

# Toy curves.  Orders and base points are frozen from exhaustive
# enumeration; test_curve re-derives them with the oracle enumerator.
#
#   TEST17:  y^2 = x^3 + 2x + 2 over F_17, G = (5, 1),  n = 19 (p = 1 mod 4)
#   TOY23:   y^2 = x^3 +  x + 4 over F_23, G = (1, 11), n = 29 (p = 3 mod 4)
#   TOY43:   y^2 = x^3      + 7 over F_43, G = (2, 12), n = 31 (p = 3 mod 4)
#   TOY23M3: y^2 = x^3 + 20x + 8 over F_23, G = (0, 10), n = 31 (a = p - 3)
#
# Between them the toys cover the coefficient shapes of the built-ins:
# a = 0 (TOY43, like secp256k1), a = p - 3 (TOY23M3, like P-256 and SM2)
# and general a (TEST17, TOY23).

TEST17 = CurveParams(name="test17", p=17, a=2, b=2, gx=5, gy=1, n=19, h=1)
TOY23 = CurveParams(name="toy23", p=23, a=1, b=4, gx=1, gy=11, n=29, h=1)
TOY43 = CurveParams(name="toy43", p=43, a=0, b=7, gx=2, gy=12, n=31, h=1)
TOY23M3 = CurveParams(name="toy23m3", p=23, a=20, b=8, gx=0, gy=10, n=31, h=1)


def toy_tuple(c: CurveParams):
    """(p, a, b, gx, gy, n) form consumed by the oracles."""
    return (c.p, c.a, c.b, c.gx, c.gy, c.n)


@pytest.fixture(scope="session")
def test17():
    return TEST17


@pytest.fixture(scope="session")
def toy23():
    return TOY23


@pytest.fixture(scope="session")
def toy43():
    return TOY43


@pytest.fixture(scope="session")
def toy_pair_config():
    return MultiCurveConfig((TEST17, TOY23))


@pytest.fixture(scope="session")
def registry():
    return default_registry()


# Twice the 300 s bound of the slowest acceptance criterion.
TEST_TIME_BOUND_S = 600
_REAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # While a test runs, descriptor 2 is pytest's capture file, whose
    # content is lost when the process exits; keep the real stderr.
    config.stash[_REAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_REAL_STDERR])


@pytest.fixture(autouse=True)
def time_bound(request):
    """A test that runs past the bound, a hang in-process included, dumps
    every thread's traceback to stderr and ends the run with status 1."""
    stderr = request.config.stash[_REAL_STDERR]
    faulthandler.dump_traceback_later(TEST_TIME_BOUND_S, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, with its duration, at
    the end of the run."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in name:
                lines.append((name.split("::", 1)[1], outcome.upper(), report.duration))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome, duration in sorted(lines):
        terminalreporter.write_line(f"{outcome:<6} {duration:7.2f}s {name}")
