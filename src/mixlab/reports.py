"""Bound reports: time-sampled comparisons of a measured norm against a certified envelope."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["BoundSample", "BoundReport", "make_report", "log_margin"]

# Margins are ratios measured/envelope; certified exponents can be enormous
# (e.g. resolvent-block constants), so margins are evaluated in log space and
# clamped to keep report JSON finite.
_MARGIN_CAP = 1e300


def log_margin(measured: np.ndarray, log_envelope: np.ndarray) -> np.ndarray:
    """Natural log of measured/envelope per sample; -inf where the measurement vanished or either side is NaN."""
    ok = (measured > 0.0) & ~np.isnan(log_envelope)  # a NaN measurement is not > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, np.log(np.where(ok, measured, 1.0)) - log_envelope, -np.inf)


def _clamp_exp(x: np.ndarray) -> np.ndarray:
    """e^x, with -inf read as 0 and anything above log(_MARGIN_CAP) as _MARGIN_CAP."""
    with np.errstate(over="ignore"):
        return np.where(x > math.log(_MARGIN_CAP), _MARGIN_CAP, np.exp(x))


class BoundSample(NamedTuple):
    t: float
    measured: float
    envelope: float
    margin: float

    def to_json(self) -> list[float]:
        return list(self)


@dataclass
class BoundReport:
    """Outcome of checking one certified inequality along a trajectory.

    ``margin`` rows are measured/envelope; the verdict is PASS exactly when
    the worst margin stays above 1 - tol and every ``*_ok`` audit in
    ``extras`` holds.
    """

    scenario: str
    bound: str
    certificate: dict
    samples: list[BoundSample]
    min_margin: float
    tol: float
    verdict: str
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self) -> dict:
        return {**vars(self), "samples": [s.to_json() for s in self.samples]}


def make_report(
    scenario: str,
    bound: str,
    certificate: dict,
    times,
    measured,
    log_envelope,
    tol: float,
    extras: dict | None = None,
) -> BoundReport:
    """Check one inequality at the sample ``times``: ``measured`` against e^``log_envelope``, one entry each.

    The three are arrays of one length (a scalar ``log_envelope`` holds at
    every sample).  Envelopes are supplied in log space so that
    astronomically steep certified exponents neither overflow nor force a
    fake verdict.  A NaN on either side counts as margin 0.
    """
    times = np.asarray(times, dtype=float)
    measured = np.asarray(measured, dtype=float)
    log_envelope = np.broadcast_to(np.asarray(log_envelope, dtype=float), times.shape)
    lm = log_margin(measured, log_envelope)
    rows = np.column_stack((times, measured, _clamp_exp(log_envelope), _clamp_exp(lm)))
    worst = float(np.min(lm, initial=math.inf))
    extras = extras or {}
    audits_ok = all(bool(v) for key, v in extras.items() if key.endswith("_ok"))
    ok = worst >= math.log(1.0 - tol) and audits_ok
    return BoundReport(
        scenario=scenario,
        bound=bound,
        certificate=certificate,
        samples=[BoundSample(*row) for row in rows.tolist()],
        min_margin=float(_clamp_exp(worst)) if times.size else math.inf,
        tol=tol,
        verdict="PASS" if ok else "FAIL",
        extras=extras,
    )
