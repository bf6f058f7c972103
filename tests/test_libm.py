"""The platform's libm has one owner, ``exprtaylor.LIBM``.

Every libm call that a sample value depends on goes through that table, so
swapping it for correctly rounded functions gives the digests that every
IEEE platform gives under the same swap; CI reports each platform's own
digests next to the x86-64 Linux ones (``support.report_platform_digests``).
"""

import collections
import math

import pytest

from dmint import cli, exprtaylor
from dmint.dtransform import d_sequence

from support import benchmark_workloads, demo_digests

# demo_digests with every LIBM function correctly rounded.  The three table
# digests are the x86-64 Linux ones; 185 of the 572 accel-deep D move (none
# of the F).
CORRECTLY_ROUNDED_DIGESTS = {
    "reproduce-table CSV": "09f53648c9a5db808d0a100ce539790e3f43b7d3ae7948c686b2a74fa0d42c0a",
    "reproduce-table JSON": "65347c1fab617dfe66521cb08a25ed8735d02d1c3c6bd79598222e4381e76113",
    "reproduce-table pretty": "281b78cb94e96d49734c3ba65c0b0945b615f5b2beae315a50bf3c39f3003e2d",
    "accel-deep (D, F)": "19437be26921b3db58cba60aa4bd9d22402f52cd3c075d91ef22b8695e117d9d",
}


def correctly_rounded(mpmath, name, calls):
    """``LIBM[name]`` correctly rounded: the 200-bit mpmath value rounded
    once to a float, memoized, and raising wherever the table's own does."""
    real = exprtaylor.LIBM[name]
    fn = getattr(mpmath, "power" if name == "pow" else name)
    memo = {}

    def stand_in(*args):
        key = repr(args)  # tells -0.0 from 0.0
        if key not in memo:
            real(*args)
            with mpmath.workprec(200):
                memo[key] = float(fn(*args))
            calls[name] += 1
        return memo[key]

    return stand_in


def test_correctly_rounded_libm_gives_the_platform_independent_digests(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    calls = collections.Counter()
    for name in list(exprtaylor.LIBM):
        monkeypatch.setitem(exprtaylor.LIBM, name, correctly_rounded(mpmath, name, calls))
    assert demo_digests() == CORRECTLY_ROUNDED_DIGESTS
    assert set(calls) == {"exp", "sin", "cos", "pow"}


def test_no_libm_call_bypasses_the_owner(monkeypatch, capsys):
    # The table keeps the real functions; the math module's raise.  The demo
    # table, a catalogue integrand and a fractional power still run.
    calls = collections.Counter()
    for name, fn in list(exprtaylor.LIBM.items()):
        monkeypatch.setitem(exprtaylor.LIBM, name,
                            lambda *args, name=name, fn=fn: calls.update([name]) or fn(*args))

    def bypass(*args):
        raise AssertionError("a libm call outside exprtaylor.LIBM")

    for name in ("exp", "log", "sin", "cos", "pow"):
        monkeypatch.setattr(math, name, bypass)
    assert cli.main(["reproduce-table"]) == 0
    assert capsys.readouterr().err == ""
    workloads = benchmark_workloads()
    integrand, grid, exact, _ = workloads.CATALOGUE[-1]
    assert "exp" in integrand
    table = d_sequence(integrand, grid, workloads.ACCEL_M, 20)
    assert abs(table.entries[-1].d_value - exact) < 1e-12
    d_sequence("x^(1/2)*exp(-x)", "linear:1.0", 2, 5)
    assert set(calls) == {"exp", "log", "sin", "cos", "pow"}
