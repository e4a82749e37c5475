"""Declarative shear and 2D velocity specifications.

Shears U(t,y) and plane flows u(theta,x,y) are sums of harmonic terms with a
scalar time factor (constant, or cos/sin of one full period).  Plane flows are
specified through a streamfunction, so the velocity is divergence-free by
construction.  Analytic bounds consumed by the certificates (M = sup|U|, the
W^{1,1} seminorm of U, the Lipschitz size of u) are declared data validated
against a sampling grid, not computed suprema; a plane flow's Lipschitz size
is sampled on a spatial grid but taken exactly over phase.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import Lattice, FieldError, json_number, known_keys

__all__ = [
    "FlowSpecError",
    "ShearTerm",
    "ShearSpec",
    "FlowTerm",
    "FlowSpec",
    "SpectralVelocity",
    "phase_integral",
    "time_average",
    "preset_shear",
    "preset_flow",
    "flow_to_json",
    "flow_from_json",
]

_TWO_PI = 2.0 * np.pi

# Declared analytic bounds must dominate sampled values within this slack.
_BOUND_TOL = 1e-9


class FlowSpecError(ValueError):
    """A shear/flow specification is inconsistent with its declared bounds."""


def _check_period(name: str, period: float) -> None:
    if not (period > 0 and math.isfinite(period)):
        raise FlowSpecError(f"{name} must be finite and > 0, got {period}")


def _check_declared(name: str, value: float | None) -> None:
    """A declared bound must be a finite number >= 0 (NaN compares false everywhere)."""
    if value is not None and not (value >= 0 and math.isfinite(value)):
        raise FlowSpecError(f"{name} must be finite and >= 0, got {value}")


def _time_factor(mode: str, omega: float, t: np.ndarray | float) -> np.ndarray | float:
    if mode == "const":
        return np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0
    if mode == "cos":
        return np.cos(omega * np.asarray(t, dtype=float))
    if mode == "sin":
        return np.sin(omega * np.asarray(t, dtype=float))
    raise FlowSpecError(f"unknown time mode {mode!r}")


def _integrate_time(mode: str, omega: float, t: float) -> float:
    """Integral of the time factor over [0, t], in closed form.

    The sine antiderivative is written as 2 sin^2(omega t / 2) / omega, which
    avoids the cancellation in 1 - cos(omega t) for small omega t.
    """
    if mode == "const":
        return t
    if mode == "cos":
        return float(np.sin(omega * t) / omega)
    if mode == "sin":
        return float(2.0 * np.sin(0.5 * omega * t) ** 2 / omega)
    raise FlowSpecError(f"unknown time mode {mode!r}")


@dataclass(frozen=True)
class ShearTerm:
    """One shear harmonic: ampl * tau(t) * {cos|sin}(ky*y); ky=0 means constant in y."""

    ampl: float
    ky: int
    phase: str = "cos"
    time_mode: str = "const"

    def __post_init__(self) -> None:
        if not math.isfinite(self.ampl):
            raise FlowSpecError(f"ampl must be finite, got {self.ampl}")
        if self.phase not in ("cos", "sin"):
            raise FlowSpecError(f"phase must be cos or sin, got {self.phase!r}")
        if self.time_mode not in ("const", "cos", "sin"):
            raise FlowSpecError(f"time_mode must be const, cos or sin, got {self.time_mode!r}")
        if self.ky == 0 and self.phase == "sin":
            raise FlowSpecError("ky=0 with sin spatial phase is identically zero")

    def spatial(self, y: np.ndarray) -> np.ndarray:
        if self.ky == 0:
            return np.ones_like(y)
        return np.cos(self.ky * y) if self.phase == "cos" else np.sin(self.ky * y)

    def dy_spatial(self, y: np.ndarray) -> np.ndarray:
        if self.ky == 0:
            return np.zeros_like(y)
        if self.phase == "cos":
            return -self.ky * np.sin(self.ky * y)
        return self.ky * np.cos(self.ky * y)


@dataclass(frozen=True)
class ShearSpec:
    """Time-dependent shear U(t,y) with declared sup and W^{1,1} bounds.

    ``M`` bounds sup_{t,y} |U| and ``w11`` bounds sup_t (1/2pi) int |dU/dy| dy
    (normalized measure).  When omitted they are estimated from a sampling
    grid; when given they are checked to dominate the sampled values.
    """

    terms: tuple[ShearTerm, ...] = ()
    period: float = _TWO_PI
    M: float | None = None
    w11: float | None = None

    def __post_init__(self) -> None:
        _check_period("period", self.period)
        _check_declared("M", self.M)
        _check_declared("w11", self.w11)
        object.__setattr__(self, "terms", tuple(self.terms))
        m_sampled, w_sampled = self._sampled_bounds()
        if self.M is None:
            object.__setattr__(self, "M", m_sampled)
        elif self.M < m_sampled - _BOUND_TOL:
            raise FlowSpecError(f"declared M={self.M} below sampled sup {m_sampled}")
        if self.w11 is None:
            object.__setattr__(self, "w11", w_sampled)
        elif self.w11 < w_sampled - _BOUND_TOL:
            raise FlowSpecError(f"declared w11={self.w11} below sampled seminorm {w_sampled}")

    @property
    def omega(self) -> float:
        return _TWO_PI / self.period

    @property
    def time_kind(self) -> str:
        if all(t.time_mode == "const" for t in self.terms):
            return "steady"
        return "periodic"

    @property
    def max_ky(self) -> int:
        return max((abs(t.ky) for t in self.terms), default=0)

    def is_zero(self) -> bool:
        return all(t.ampl == 0.0 for t in self.terms) or not self.terms

    def _time_grid(self, n: int = 128) -> np.ndarray:
        if self.time_kind == "steady":
            return np.array([0.0])
        return np.linspace(0.0, self.period, n, endpoint=False)

    def _sampled_bounds(self, ny: int = 512) -> tuple[float, float]:
        y = np.linspace(0.0, _TWO_PI, ny, endpoint=False)
        ts = self._time_grid()
        m = float(np.max(np.abs(self.sampler(y)(ts))))
        w = float(np.max(np.mean(np.abs(self.dy_sample(ts, y)), axis=-1)))
        return m, w

    def sample(self, t: float, y: np.ndarray) -> np.ndarray:
        """Values of U(t, .) at the points y."""
        return self.sampler(y)(t)

    def sampler(self, y: np.ndarray) -> Callable[[float | np.ndarray], np.ndarray]:
        """U(t, .) at the fixed points y as a function of t.

        Each term's spatial profile is evaluated once; a call only combines
        them with the time factors.  A 1-D array of times gives one row per
        time, shape (len(t), len(y)), each equal to the call at that time.
        """
        y = np.asarray(y, dtype=float)
        return self._combiner([(term.ampl, term.time_mode, term.spatial(y)) for term in self.terms], y.shape)

    def dy_sample(self, t: float | np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values of dU/dy(t, .) at the points y; a 1-D array of times gives one row per time."""
        y = np.asarray(y, dtype=float)
        return self._combiner([(term.ampl, term.time_mode, term.dy_spatial(y)) for term in self.terms], y.shape)(t)

    def _combiner(self, profiles: list, shape: tuple) -> Callable[[float | np.ndarray], np.ndarray]:
        """t -> sum of (ampl * tau(t)) * profile over the (ampl, time mode, profile) triples, one row per time."""
        omega = self.omega

        def at(t: float | np.ndarray) -> np.ndarray:
            out = np.zeros(np.shape(t) + shape)
            for ampl, mode, profile in profiles:
                out += np.multiply.outer(ampl * _time_factor(mode, omega, t), profile)
            return out

        return at


def _add_harmonic(vec: np.ndarray, lmax: int, ky: int, phase: str, a: float) -> None:
    if abs(ky) > lmax:
        raise FieldError(f"harmonic ky={ky} outside lmax={lmax}")
    if ky == 0:
        vec[lmax] += a
        return
    if phase == "cos":
        vec[lmax + ky] += 0.5 * a
        vec[lmax - ky] += 0.5 * a
    else:
        vec[lmax + ky] += -0.5j * a
        vec[lmax - ky] += 0.5j * a


def phase_integral(shear: ShearSpec, t: float) -> np.ndarray:
    """Fourier coefficients over l = -L..L, L = max(max_ky, 1), of Phi(., t) = int_0^t U(., s) ds.

    Every time factor is integrated in closed form; the l = 0 coefficient is
    the rigid x-drift of the shear's y-mean.
    """
    lmax = max(shear.max_ky, 1)
    out = np.zeros(2 * lmax + 1, dtype=complex)
    for term in shear.terms:
        a = term.ampl * _integrate_time(term.time_mode, shear.omega, t)
        _add_harmonic(out, lmax, term.ky, term.phase, a)
    return out


@dataclass(frozen=True)
class FlowTerm:
    """One streamfunction harmonic ampl * tau(theta) * {cos|sin}(kx*x + ky*y)."""

    ampl: float
    kx: int
    ky: int
    phase: str = "cos"
    time_mode: str = "const"

    def __post_init__(self) -> None:
        if not math.isfinite(self.ampl):
            raise FlowSpecError(f"ampl must be finite, got {self.ampl}")
        if self.phase not in ("cos", "sin"):
            raise FlowSpecError(f"phase must be cos or sin, got {self.phase!r}")
        if self.time_mode not in ("const", "cos", "sin"):
            raise FlowSpecError(f"time_mode must be const, cos or sin, got {self.time_mode!r}")
        if self.kx == 0 and self.ky == 0:
            raise FlowSpecError("constant streamfunction term generates no velocity")


@dataclass(frozen=True)
class SpectralVelocity:
    """A steady velocity field as coefficient arrays of its two components."""

    lattice: Lattice
    u: np.ndarray
    v: np.ndarray

    def max_band(self) -> int:
        mags = np.abs(self.u) + np.abs(self.v)
        idx = np.argwhere(mags > 1e-14)
        if idx.size == 0:
            return 0
        k = np.abs(idx[:, 0] - self.lattice.kmax)
        l = np.abs(idx[:, 1] - self.lattice.lmax)
        return int(max(k.max(), l.max()))


def _eval_coeffs_grid(lattice: Lattice, coeff: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ks = lattice.k_values()
    ls = lattice.l_values()
    ex = np.exp(1j * np.outer(x, ks))
    ey = np.exp(1j * np.outer(ls, y))
    return ex @ coeff @ ey


@dataclass(frozen=True)
class FlowSpec:
    """Divergence-free plane flow from a streamfunction, periodic in its phase.

    The velocity is u = (-d_y psi, d_x psi).  ``lip`` declares a bound on the
    sup over phase of max(|u|, |first derivatives of u|); it is validated on
    construction against that sup on a 128 x 128 grid, taken exactly in
    phase (``_sampled_lip``), and is that value when not declared.
    """

    terms: tuple[FlowTerm, ...] = ()
    period: float = _TWO_PI
    lip: float | None = None

    def __post_init__(self) -> None:
        _check_period("period", self.period)
        _check_declared("lip", self.lip)
        object.__setattr__(self, "terms", tuple(self.terms))
        sampled = self._sampled_lip()
        if self.lip is None:
            object.__setattr__(self, "lip", sampled)
        elif self.lip < sampled - _BOUND_TOL:
            raise FlowSpecError(f"declared lip={self.lip} below sampled value {sampled}")

    @property
    def omega(self) -> float:
        return _TWO_PI / self.period

    @property
    def max_band(self) -> int:
        return max((max(abs(t.kx), abs(t.ky)) for t in self.terms), default=0)

    def velocity_lattice(self) -> Lattice:
        b = max(1, self.max_band)
        return Lattice(b, b)

    def velocity_coeffs(self, theta: float, lattice: Lattice | None = None) -> SpectralVelocity:
        """Spectral representation of u(theta, .) on the given lattice."""
        return self._velocity(
            ((term, term.ampl * _time_factor(term.time_mode, self.omega, theta)) for term in self.terms),
            lattice,
        )

    def mode_velocity(self, mode: str) -> SpectralVelocity:
        """Velocity of the terms with time mode ``mode``, their time factor left out."""
        return self._velocity(((term, term.ampl) for term in self.terms if term.time_mode == mode), None)

    def _velocity(self, weighted_terms, lattice: Lattice | None) -> SpectralVelocity:
        """Sum of the velocities of (term, streamfunction amplitude) pairs."""
        lattice = self.velocity_lattice() if lattice is None else lattice
        u = np.zeros(lattice.shape, dtype=complex)
        v = np.zeros(lattice.shape, dtype=complex)
        for term, a in weighted_terms:
            if abs(term.kx) > lattice.kmax or abs(term.ky) > lattice.lmax:
                raise FieldError(f"flow harmonic ({term.kx},{term.ky}) outside lattice {lattice}")
            i, j = term.kx + lattice.kmax, term.ky + lattice.lmax
            im, jm = -term.kx + lattice.kmax, -term.ky + lattice.lmax
            # psi harmonic -> u = (-i*l*psi_hat, i*k*psi_hat) per mode
            if term.phase == "cos":
                psi_p, psi_m = 0.5 * a, 0.5 * a
            else:
                psi_p, psi_m = -0.5j * a, 0.5j * a
            u[i, j] += -1j * term.ky * psi_p
            u[im, jm] += -1j * (-term.ky) * psi_m
            v[i, j] += 1j * term.kx * psi_p
            v[im, jm] += 1j * (-term.kx) * psi_m
        return SpectralVelocity(lattice, u, v)

    def _sampled_lip(self, n: int = 128) -> float:
        """max over the n x n grid and over every phase of |u|, |v| and their first derivatives.

        Each of the six functions is a + b cos(omega theta) + c sin(omega theta)
        at a grid point, with a, b and c its values under the const, cos and
        sin terms, so its supremum over phase is exactly |a| + hypot(b, c);
        the grids of one function are held at a time.
        """
        x = np.linspace(0.0, _TWO_PI, n, endpoint=False)
        modes = [mode for mode in ("const", "cos", "sin") if any(t.time_mode == mode for t in self.terms)]
        if not modes:
            return 0.0
        velocities = [self.mode_velocity(mode) for mode in modes]
        lattice = velocities[0].lattice
        ik = 1j * lattice.k_values()[:, None]
        il = 1j * lattice.l_values()[None, :]
        worst = 0.0
        for comp in ("u", "v"):
            for weight in (1.0, ik, il):
                grids = {
                    mode: _eval_coeffs_grid(lattice, weight * getattr(sv, comp), x, x).real
                    for mode, sv in zip(modes, velocities)
                }
                peak = np.abs(grids.get("const", 0.0)) + np.hypot(grids.get("cos", 0.0), grids.get("sin", 0.0))
                worst = max(worst, float(np.max(peak)))
        return worst


def time_average(flow: FlowSpec) -> SpectralVelocity:
    """Phase average (1/L) int_0^L u(theta, .) dtheta, exactly.

    cos and sin factors average to 0 over a full period, so the average is
    the velocity of the constant terms; it stays divergence-free.
    """
    return flow.mode_velocity("const")


def preset_shear(name: str) -> ShearSpec:
    """Named shears: "zero" and "couette".

    True Couette flow U = y is not a continuous torus function; the "couette"
    preset ships the periodic analogue U = sin y and keeps the name only as a
    mnemonic for a steady single-harmonic shear.
    """
    if name == "zero":
        return ShearSpec(())
    if name == "couette":
        return ShearSpec((ShearTerm(1.0, 1, "sin"),))
    raise FlowSpecError(f"unknown shear preset {name!r}")


def preset_flow(name: str) -> FlowSpec:
    """Named flows: "zero" and the steady "cellular" flow psi = cos(x + y) - cos(x - y) = -2 sin x sin y.

    The cellular velocity is u = (2 sin x cos y, -2 cos x sin y), so its ``lip`` is 2.0.
    """
    if name == "zero":
        return FlowSpec(())
    if name == "cellular":
        return FlowSpec((FlowTerm(1.0, 1, 1, "cos"), FlowTerm(-1.0, 1, -1, "cos")), period=_TWO_PI)
    raise FlowSpecError(f"unknown flow preset {name!r}")


def flow_to_json(spec: ShearSpec | FlowSpec) -> dict:
    """Serialize to the shared schema {kind, terms, bounds, period}."""
    if isinstance(spec, ShearSpec):
        return {
            "kind": "shear",
            "terms": [
                {"ampl": t.ampl, "kx": 0, "ky": t.ky, "phase_mode": t.phase, "time_mode": t.time_mode}
                for t in spec.terms
            ],
            "bounds": {"M": spec.M, "w11": spec.w11},
            "period": spec.period,
        }
    return {
        "kind": "flow2d",
        "terms": [
            {"ampl": t.ampl, "kx": t.kx, "ky": t.ky, "phase_mode": t.phase, "time_mode": t.time_mode}
            for t in spec.terms
        ],
        "bounds": {"lip": spec.lip},
        "period": spec.period,
    }


# A JSON number of a flow spec, and a flow-spec object with no unread key; anything else is a FlowSpecError.
_spec_number = partial(json_number, error=FlowSpecError)
_spec_keys = partial(known_keys, error=FlowSpecError)

# The text fields of a flow-spec term, with their defaults.
_FLOW_TEXT = (("phase_mode", "cos"), ("time_mode", "const"))

# The declared bounds each spec kind reads.
_BOUND_KEYS = {"shear": ("M", "w11"), "flow2d": ("lip",)}


def _spec_terms(data: dict, required: tuple[str, ...], path: str, text: tuple = _FLOW_TEXT) -> list[tuple]:
    """Each term object of ``data["terms"]`` as (ampl, kx, ky, *text values); kx defaults to 0.

    ``path`` names ``data`` in messages (``flow``, ``initial_data``; empty at
    the top level), so an error says which list holds the bad term.  ``text``
    holds the (key, default) pairs of the term's text fields: ``phase_mode``
    and ``time_mode`` in a flow spec, ``kind`` in a scenario's initial data.
    A term key outside ampl, kx, ky and these is a FlowSpecError.
    """
    where = f"{path}.terms" if path else "terms"
    terms = data.get("terms", [])
    if not isinstance(terms, list):
        raise FlowSpecError(f"{where} must be a list, got {terms!r}")
    out = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise FlowSpecError(f"{where}[{i}] must be an object, got {term!r}")
        _spec_keys(term, ("ampl", "kx", "ky", *(key for key, _ in text)), f"{where}[{i}]")
        for key in required:
            if key not in term:
                raise FlowSpecError(f"{where}[{i}].{key} must be given")
        ampl = _spec_number(term["ampl"], f"{where}[{i}].ampl")
        if not math.isfinite(ampl):
            raise FlowSpecError(f"{where}[{i}].ampl must be finite, got {ampl}")
        out.append((
            ampl,
            _spec_number(term.get("kx", 0), f"{where}[{i}].kx", integer=True),
            _spec_number(term["ky"], f"{where}[{i}].ky", integer=True),
            *(term.get(key, default) for key, default in text),
        ))
    return out


def flow_from_json(data: dict | str, path: str = "") -> ShearSpec | FlowSpec:
    """Parse the {kind, terms, bounds, period} schema; strings name presets.

    A malformed spec (a missing term field, a value that is not a number
    where one is expected, a fractional wavenumber, a key the spec's kind
    does not read) raises FlowSpecError, as an inconsistent one does; a shear
    term's ``kx`` defaults to 0.  ``path`` is the spec's field in a scenario
    (``shear`` or ``flow``), which every message about one of its fields
    names (``shear.bounds.M``).
    """
    if isinstance(data, str):
        try:
            return preset_shear(data)
        except FlowSpecError:
            return preset_flow(data)
    if not isinstance(data, dict):
        raise FlowSpecError(f"{path or 'a flow spec'} must be an object or a preset name, got {data!r}")
    where = f"{path}." if path else ""
    _spec_keys(data, ("kind", "terms", "bounds", "period"), path or "the flow spec")
    kind = data.get("kind")
    if kind not in _BOUND_KEYS:
        raise FlowSpecError(f"{where}kind must be shear or flow2d, got {kind!r}")
    bounds = data.get("bounds", {}) or {}
    if not isinstance(bounds, dict):
        raise FlowSpecError(f"{where}bounds must be an object, got {bounds!r}")
    _spec_keys(bounds, _BOUND_KEYS[kind], f"{where}bounds")

    def declared(name: str) -> float | None:
        value = bounds.get(name)
        if value is not None:
            value = _spec_number(value, f"{where}bounds.{name}")
            _check_declared(f"{where}bounds.{name}", value)
        return value

    period = _spec_number(data.get("period", _TWO_PI), f"{where}period")
    _check_period(f"{where}period", period)
    if kind == "shear":
        terms = []
        for i, (ampl, kx, ky, phase, time_mode) in enumerate(_spec_terms(data, ("ampl", "ky"), path)):
            if kx != 0:
                raise FlowSpecError(f"{where}terms[{i}].kx must be 0 in a shear, got {kx}")
            terms.append(ShearTerm(ampl, ky, phase, time_mode))
        return ShearSpec(tuple(terms), period=period, M=declared("M"), w11=declared("w11"))
    terms = tuple(FlowTerm(*term) for term in _spec_terms(data, ("ampl", "kx", "ky"), path))
    return FlowSpec(terms, period=period, lip=declared("lip"))
