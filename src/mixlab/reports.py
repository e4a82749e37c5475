"""Bound reports: time-sampled comparisons of a measured norm against a certified envelope."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["BoundSample", "BoundReport", "make_report", "log_margin"]

# Margins are ratios measured/envelope; certified exponents can be enormous
# (e.g. resolvent-block constants), so margins are evaluated in log space and
# clamped to keep report JSON finite.
_MARGIN_CAP = 1e300


def log_margin(measured: float, log_envelope: float) -> float:
    """Natural log of measured/envelope; -inf when the measurement vanished or either side is NaN."""
    if math.isnan(measured) or math.isnan(log_envelope) or measured <= 0.0:
        return -math.inf
    return math.log(measured) - log_envelope


def _clamp_exp(x: float) -> float:
    if x == -math.inf:
        return 0.0
    if x > math.log(_MARGIN_CAP):
        return _MARGIN_CAP
    return math.exp(x)


@dataclass(frozen=True)
class BoundSample:
    t: float
    measured: float
    envelope: float
    margin: float

    def to_json(self) -> list[float]:
        return [self.t, self.measured, self.envelope, self.margin]


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
        return {
            "scenario": self.scenario,
            "bound": self.bound,
            "certificate": self.certificate,
            "samples": [s.to_json() for s in self.samples],
            "min_margin": self.min_margin,
            "tol": self.tol,
            "verdict": self.verdict,
            "extras": self.extras,
        }


def make_report(
    scenario: str,
    bound: str,
    certificate: dict,
    states: Iterable[tuple[float, object]],
    row: Callable[[float, object], tuple[float, float]],
    tol: float,
    extras: dict | None = None,
) -> BoundReport:
    """Check one inequality over (t, field) states; ``row(t, field)`` gives (measured, log_envelope).

    Envelopes are supplied in log space so that astronomically steep certified
    exponents neither overflow nor force a fake verdict.  A NaN on either
    side counts as margin 0.
    """
    samples = []
    worst = math.inf
    for t, f in states:
        t = float(t)
        measured, log_env = row(t, f)
        lm = log_margin(measured, log_env)
        worst = min(worst, lm)
        samples.append(BoundSample(t, measured, _clamp_exp(log_env), _clamp_exp(lm)))
    extras = extras or {}
    audits_ok = all(bool(v) for key, v in extras.items() if key.endswith("_ok"))
    ok = worst >= math.log(1.0 - tol) and audits_ok
    return BoundReport(
        scenario=scenario,
        bound=bound,
        certificate=certificate,
        samples=samples,
        min_margin=float(_clamp_exp(worst) if samples else math.inf),
        tol=tol,
        verdict="PASS" if ok else "FAIL",
        extras=extras,
    )
