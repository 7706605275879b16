"""compare: the status rules, on synthetic quadrature records."""

import math

from anhgas.oracles import QuadratureResult
from anhgas.reports import Status, compare


def record(value, estimate, converged=True):
    return QuadratureResult(value, estimate, 15, converged)


def test_an_estimate_above_the_threshold_is_error_and_named():
    # literal and oracle agree, but the oracle's integral is only known to
    # 2e-6 relative against a row threshold of 1e-6
    rep = compare("q", 1.0, 1.0, 1e-6, "synthetic",
                  quadratures={"tight": record(2.0, 1e-12), "loose": record(2.0, 4e-6)})
    assert rep.status is Status.ERROR
    assert math.isnan(rep.rel_dev) and (rep.literal, rep.oracle) == (1.0, 1.0)
    assert rep.provenance == "synthetic; error estimate above threshold: loose"


def test_an_estimate_at_the_threshold_passes():
    rep = compare("q", 1.0, 1.0, 1e-6, "synthetic",
                  quadratures={"edge": record(-2.0, 2e-6), "zero": record(0.0, 0.0)})
    assert rep.status is Status.PASS and rep.provenance == "synthetic"


def test_an_unconverged_record_is_named_once():
    # an unconverged quadrature is named as such, not also for its estimate
    rep = compare("q", 1.0, 2.0, 1e-6, "synthetic",
                  quadratures={"a": record(1.0, 1.0, converged=False), "b": record(1.0, 1.0)})
    assert rep.status is Status.ERROR
    assert rep.provenance == ("synthetic; unconverged quadrature: a; "
                              "error estimate above threshold: b")


def test_a_nan_estimate_is_error():
    rep = compare("q", 1.0, 1.0, 1e-6, "synthetic", quadratures={"n": record(1.0, math.nan)})
    assert rep.status is Status.ERROR and rep.provenance.endswith("threshold: n")
