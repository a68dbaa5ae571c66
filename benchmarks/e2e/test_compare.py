"""Unit checks of compare.py's verdicts."""

from __future__ import annotations

import io

import compare


def m(median, q1=None, q3=None):
    return {"median": median, "q1": median if q1 is None else q1,
            "q3": median if q3 is None else q3}


def test_verdicts_lower_is_better():
    assert compare.verdict(m(10), m(11.1), "lower", 0.10, "rel")[0] == "regressed"
    assert compare.verdict(m(10), m(10.5), "lower", 0.10, "rel")[0] == "unchanged"
    assert compare.verdict(m(10, 9.9, 10.1), m(9), "lower", 0.10, "rel")[0] == "improved"
    # Better by less than A's own spread, spread inside the bound.
    assert compare.verdict(m(10, 9.6, 10.4), m(9.5), "lower", 0.10, "rel")[0] == "unchanged"
    # Not worse by the bound, but the runs are too noisy to say more.
    assert compare.verdict(m(10, 9, 11), m(10.5), "lower", 0.10, "rel")[0] == "unresolved"


def test_verdicts_higher_is_better_and_absolute_bounds():
    assert compare.verdict(m(0.82), m(0.80), "higher", 0.01, "abs")[0] == "regressed"
    assert compare.verdict(m(0.82), m(0.815), "higher", 0.01, "abs")[0] == "unchanged"
    assert compare.verdict(m(0.82), m(0.83), "higher", 0.01, "abs")[0] == "improved"


def ledger(wall, failed=0, digest=1):
    return {"workloads": {"sim_homo_b": {
        "metrics": {"wall_s": m(wall), "final_accuracy": m(0.82)},
        "ops_attempted": 5, "ops_failed": failed, "digest": {"events": digest},
    }}}


def test_report_status():
    out = io.StringIO()
    assert compare.report(ledger(6.0), ledger(6.1), out=out) == 0
    assert "identical" in out.getvalue()
    assert compare.report(ledger(6.0), ledger(9.0), out=out) == 1
    assert compare.report(ledger(6.0), ledger(6.0, failed=1), out=out) == 1
    out = io.StringIO()
    assert compare.report(ledger(6.0), ledger(6.0, digest=2), out=out) == 0
    assert "DIFFERS" in out.getvalue()
