"""Paired literal-vs-oracle comparison records.

FLAGGED is a first-class outcome: a printed formula that disagrees with
its oracle is reported with the deviation, never silently patched and
never treated as a crash.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Status", "ComparisonReport", "compare"]


class Status(str, enum.Enum):
    # SKIPPED: a sweep row the parameters do not define, with no values
    PASS = "PASS"
    FLAGGED = "FLAGGED"
    ERROR = "ERROR"
    SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class ComparisonReport:
    quantity_name: str
    literal: float
    oracle: float
    abs_dev: float
    rel_dev: float
    status: Status
    provenance: str
    threshold: float
    options_used: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "quantity_name": self.quantity_name,
            "literal": self.literal,
            "oracle": self.oracle,
            "abs_dev": self.abs_dev,
            "rel_dev": self.rel_dev,
            "status": self.status.value,
            "provenance": self.provenance,
            "threshold": self.threshold,
            "options_used": self.options_used,
        }


def compare(
    quantity_name: str,
    literal: float,
    oracle: float,
    threshold: float,
    provenance: str,
    options_used: dict | None = None,
    quadratures: Mapping[str, Any] | None = None,
) -> ComparisonReport:
    """PASS iff rel_dev <= threshold; ERROR if non-finite, or if a named quadrature
    is unconverged or its error estimate exceeds threshold |value| (then named)."""
    opts = dict(options_used or {})
    quads = (quadratures or {}).items()
    unconverged = [name for name, q in quads if not q.converged]
    loose = [name for name, q in quads
             if q.converged and not q.abs_error_estimate <= threshold * abs(q.value)]
    for why, names in (("unconverged quadrature", unconverged),
                       ("error estimate above threshold", loose)):
        provenance += f"; {why}: {'; '.join(names)}" if names else ""
    if unconverged or loose or not (math.isfinite(literal) and math.isfinite(oracle)):
        return ComparisonReport(
            quantity_name, literal, oracle, math.nan, math.nan,
            Status.ERROR, provenance, threshold, opts,
        )
    abs_dev = abs(literal - oracle)
    if oracle == 0.0:
        rel_dev = 0.0 if literal == 0.0 else math.inf
    else:
        rel_dev = abs_dev / abs(oracle)
    status = Status.PASS if rel_dev <= threshold else Status.FLAGGED
    return ComparisonReport(
        quantity_name, literal, oracle, abs_dev, rel_dev,
        status, provenance, threshold, opts,
    )
