"""Mean-zero spectral fields on the normalized 2-torus.

Fields live on a truncated integer frequency lattice |k| <= kmax, |l| <= lmax
and are stored as dense complex coefficient arrays.  The convention throughout
is the normalized Haar measure: the harmonics e^{i(kx+ly)} form an orthonormal
basis, so Parseval reads ||f||_2^2 = sum |c(k,l)|^2 with no 2*pi factors.
All fields are mean-zero: the (0,0) coefficient must vanish.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "FieldError",
    "GridError",
    "Lattice",
    "SpectralField2D",
    "ModeProfile",
    "HarmonicTerm",
    "l2_norm",
    "hneg1_norm",
    "mixing_scale",
    "x_mode",
    "low_block_energy",
    "grid_sample",
    "synthesize",
    "y_grid_values",
    "y_grid_coeffs",
    "field_from_terms",
    "zeros",
    "embed",
    "grad_l2_sq",
    "laplacian_l2",
    "dx_l2",
    "h2_norm",
    "pair_bilinear",
    "field_to_json",
    "field_from_json",
]

# Mean-zero / conjugate-symmetry validation tolerance, relative to the
# largest coefficient magnitude.
_SYMMETRY_TOL = 1e-12


class FieldError(ValueError):
    """A spectral field violates one of its structural invariants."""


class GridError(ValueError):
    """A physical-space grid is too small for the requested lattice."""


def json_number(value, where: str, integer: bool = False, error: type[ValueError] = FieldError) -> float | int:
    """A JSON number of scenario data as a float, or as an int when ``integer``.

    Anything else (a string, a list, null, a boolean, a fractional value
    where an integer is expected) raises ``error`` naming the field ``where``.
    """
    # int and float are listed ahead of the (slower) abstract Real check: the JSON parser yields them
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise error(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise error(f"{where} must be within the float range") from None
    if not integer:
        return number
    if not number.is_integer():
        raise error(f"{where} must be an integer, got {value!r}")
    return int(value)


def known_keys(data: dict, allowed: tuple[str, ...], where: str, error: type[ValueError] = FieldError) -> dict:
    """``data``, a JSON object of scenario data, when it has no key outside ``allowed``.

    Any other key would be read by nothing, so a misspelt field would run
    with its default: ``error`` names the object ``where`` and the keys.
    """
    unknown = sorted(key for key in data if key not in allowed)
    if unknown:
        raise error(
            f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; it reads only {', '.join(map(repr, allowed))}"
        )
    return data


@dataclass(frozen=True)
class Lattice:
    """Truncation of the integer frequency lattice: |k| <= kmax, |l| <= lmax."""

    kmax: int = 64
    lmax: int = 64

    def __post_init__(self) -> None:
        if self.kmax < 1 or self.lmax < 1:
            raise FieldError(f"lattice cutoffs must be >= 1, got {self}")

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.kmax + 1, 2 * self.lmax + 1)

    def k_values(self) -> np.ndarray:
        return np.arange(-self.kmax, self.kmax + 1)

    def l_values(self) -> np.ndarray:
        return np.arange(-self.lmax, self.lmax + 1)

    def weight_grid(self) -> np.ndarray:
        """k^2 + l^2 over the lattice (0 at the origin)."""
        k = self.k_values()[:, None].astype(float)
        l = self.l_values()[None, :].astype(float)
        return k * k + l * l

    def min_grid(self) -> tuple[int, int]:
        """Smallest admissible sampling grid: twice the lattice extent."""
        return (2 * (2 * self.kmax + 1), 2 * (2 * self.lmax + 1))


@dataclass(frozen=True)
class SpectralField2D:
    """A mean-zero scalar on the torus, held as coefficients c(k,l).

    ``coeff[k + kmax, l + lmax]`` is the coefficient of e^{i(kx+ly)}.
    Real-valued data carries the conjugate symmetry c(-k,-l) = conj(c(k,l));
    pass ``validate_real=True`` at construction to enforce it.
    """

    lattice: Lattice
    coeff: np.ndarray
    validate_real: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeff, dtype=complex)
        if arr.shape != self.lattice.shape:
            raise FieldError(
                f"coefficient array shape {arr.shape} does not match lattice {self.lattice.shape}"
            )
        object.__setattr__(self, "coeff", arr)
        scale = max(1.0, float(np.max(np.abs(arr))))
        if abs(arr[self.lattice.kmax, self.lattice.lmax]) > _SYMMETRY_TOL * scale:
            raise FieldError("field is not mean-zero: coefficient at (0,0) must vanish")
        if self.validate_real:
            mirrored = np.conj(arr[::-1, ::-1])
            if np.max(np.abs(arr - mirrored)) > _SYMMETRY_TOL * scale:
                raise FieldError("real field lacks conjugate symmetry c(-k,-l) = conj(c(k,l))")

    def __getitem__(self, kl: tuple[int, int]) -> complex:
        k, l = kl
        return complex(self.coeff[k + self.lattice.kmax, l + self.lattice.lmax])


@dataclass(frozen=True)
class ModeProfile:
    """The single-x-mode slice f_k(y) as a coefficient vector over l."""

    k: int
    lmax: int
    coeff: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeff, dtype=complex)
        if arr.shape != (2 * self.lmax + 1,):
            raise FieldError(f"profile length {arr.shape} does not match lmax={self.lmax}")
        object.__setattr__(self, "coeff", arr)

    def l_values(self) -> np.ndarray:
        return np.arange(-self.lmax, self.lmax + 1)

    def l2(self) -> float:
        return float(np.linalg.norm(self.coeff))


def zeros(lattice: Lattice) -> SpectralField2D:
    return SpectralField2D(lattice, np.zeros(lattice.shape, dtype=complex))


def _power(field: SpectralField2D) -> np.ndarray:
    """|c(k,l)|^2 of every coefficient, as one new array."""
    power = np.abs(field.coeff)
    return np.multiply(power, power, out=power)


def l2_norm(field: SpectralField2D) -> float | np.ndarray:
    """Parseval norm sqrt(sum |c(k,l)|^2) under the normalized measure.

    It reduces over the last two axes of ``field.coeff``: one number for a
    field, one per sample for a trajectory.
    """
    return np.sqrt(np.sum(_power(field), axis=(-2, -1)))


def hneg1_norm(field: SpectralField2D) -> float | np.ndarray:
    """Homogeneous H^{-1} norm: weights 1/(k^2+l^2), origin excluded; one per sample of a trajectory."""
    kmax, lmax = field.lattice.kmax, field.lattice.lmax
    power = _power(field)
    scale = np.maximum(1.0, np.max(power, axis=(-2, -1)))
    if np.any(power[..., kmax, lmax] > _SYMMETRY_TOL**2 * scale):
        raise FieldError("H^{-1} norm requires a mean-zero field")
    w = field.lattice.weight_grid()
    w[kmax, lmax] = 1.0  # origin coefficient is zero; avoid 0/0
    return np.sqrt(np.sum(np.divide(power, w, out=power), axis=(-2, -1)))


def mixing_scale(field: SpectralField2D) -> float:
    """The ratio ||f||_{H^{-1}} / ||f||_{L^2}, always in (0, 1] for nonzero f."""
    n2 = l2_norm(field)
    if n2 == 0.0:
        raise FieldError("mixing scale is undefined for the zero field")
    return hneg1_norm(field) / n2


def x_mode(field: SpectralField2D, k: int) -> ModeProfile:
    """Extract the l-coefficient vector at fixed x-frequency k."""
    if abs(k) > field.lattice.kmax:
        raise FieldError(f"x-frequency {k} outside lattice kmax={field.lattice.kmax}")
    row = field.coeff[k + field.lattice.kmax, :].copy()
    return ModeProfile(k, field.lattice.lmax, row)


def low_block_energy(profile: ModeProfile, N: int) -> float:
    """Energy of the vertical block |l| <= N of a mode profile."""
    if N < 0:
        raise FieldError("block cutoff N must be >= 0")
    n = min(N, profile.lmax)
    c = profile.coeff[profile.lmax - n : profile.lmax + n + 1]
    return float(np.sum(np.abs(c) ** 2))


def next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n (prime factors 2, 3, 5, 7, 11 only): a fast FFT length.

    The same lengths as ``scipy.fft.next_fast_len``, without importing scipy.fft.
    """
    if n < 1:
        raise ValueError(f"FFT length must be at least 1, got {n}")
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _check_grid(lattice: Lattice, nx: int, ny: int) -> None:
    min_nx, min_ny = lattice.min_grid()
    if nx < min_nx or ny < min_ny:
        raise GridError(
            f"grid ({nx}, {ny}) below dealiasing minimum ({min_nx}, {min_ny}) for {lattice}"
        )


def grid_sample(field: SpectralField2D, nx: int | None = None, ny: int | None = None) -> np.ndarray:
    """Sample a real field on an (nx, ny) grid of the torus.

    Grid points are x_i = 2*pi*i/nx, y_j = 2*pi*j/ny.  The grid must be at
    least twice the lattice extent in each direction (dealiasing headroom).
    """
    min_nx, min_ny = field.lattice.min_grid()
    nx = next_fast_len(min_nx) if nx is None else nx
    ny = next_fast_len(min_ny) if ny is None else ny
    _check_grid(field.lattice, nx, ny)
    spec = np.zeros((nx, ny), dtype=complex)
    kmax, lmax = field.lattice.kmax, field.lattice.lmax
    ks = field.lattice.k_values()
    ls = field.lattice.l_values()
    spec[np.ix_(ks % nx, ls % ny)] = field.coeff
    values = np.fft.ifft2(spec) * (nx * ny)
    imag_max = float(np.max(np.abs(values.imag)))
    scale = max(1.0, float(np.max(np.abs(values.real))))
    if imag_max > 1e-9 * scale:
        raise FieldError("grid_sample expects conjugate-symmetric (real) data")
    return values.real


def synthesize(samples: np.ndarray, lattice: Lattice) -> SpectralField2D:
    """Build a lattice-truncated field from real grid samples (inverse of grid_sample)."""
    samples = np.asarray(samples, dtype=float)
    nx, ny = samples.shape
    _check_grid(lattice, nx, ny)
    spec = np.fft.fft2(samples) / (nx * ny)
    ks = lattice.k_values()
    ls = lattice.l_values()
    coeff = spec[np.ix_(ks % nx, ls % ny)]
    return SpectralField2D(lattice, coeff)


@lru_cache(maxsize=64)
def _y_index(lmax: int, ny: int) -> np.ndarray:
    """Grid-FFT slots of l = -lmax..lmax on a y-grid of ny points (read-only)."""
    index = np.arange(-lmax, lmax + 1) % ny
    index.flags.writeable = False
    return index


def y_grid_values(coeff: np.ndarray, ny: int) -> np.ndarray:
    """Values at y_j = 2*pi*j/ny of coefficient rows over l = -lmax..lmax (the last axis).

    The grid must hold the rows without aliasing: ny >= 2*lmax + 1.
    """
    lmax = (coeff.shape[-1] - 1) // 2
    out = np.zeros(coeff.shape[:-1] + (ny,), dtype=complex)
    out[..., : lmax + 1] = coeff[..., lmax:]  # l = 0..lmax in slots 0..lmax
    out[..., ny - lmax :] = coeff[..., :lmax]  # l = -lmax..-1 in the last lmax slots
    np.fft.ifft(out, axis=-1, norm="forward", out=out)
    return out


def y_grid_coeffs(values: np.ndarray, lmax: int) -> np.ndarray:
    """Coefficients over l = -lmax..lmax of complex values on the y-grid (the last axis); inverts y_grid_values.

    The transform runs in place: ``values`` is overwritten.
    """
    np.fft.fft(values, axis=-1, norm="forward", out=values)
    return values.take(_y_index(lmax, values.shape[-1]), axis=-1)


@dataclass(frozen=True)
class HarmonicTerm:
    """One real harmonic ampl * cos(kx*x + ky*y) or ampl * sin(kx*x + ky*y)."""

    ampl: float
    kx: int
    ky: int
    kind: str = "cos"  # cos | sin

    def __post_init__(self) -> None:
        if not math.isfinite(self.ampl):
            raise FieldError(f"ampl must be finite, got {self.ampl}")
        if self.kind not in ("cos", "sin"):
            raise FieldError(f"harmonic kind must be cos or sin, got {self.kind!r}")
        if self.kx == 0 and self.ky == 0:
            raise FieldError("constant harmonic (kx=ky=0) would break mean-zero")


def field_from_terms(lattice: Lattice, terms: Iterable[HarmonicTerm]) -> SpectralField2D:
    """Assemble a real mean-zero field from a list of harmonic terms."""
    coeff = np.zeros(lattice.shape, dtype=complex)
    for term in terms:
        if abs(term.kx) > lattice.kmax or abs(term.ky) > lattice.lmax:
            raise FieldError(f"harmonic ({term.kx},{term.ky}) outside lattice {lattice}")
        i, j = term.kx + lattice.kmax, term.ky + lattice.lmax
        im, jm = -term.kx + lattice.kmax, -term.ky + lattice.lmax
        if term.kind == "cos":
            coeff[i, j] += 0.5 * term.ampl
            coeff[im, jm] += 0.5 * term.ampl
        else:
            coeff[i, j] += -0.5j * term.ampl
            coeff[im, jm] += 0.5j * term.ampl
    return SpectralField2D(lattice, coeff, validate_real=True)


def embed(field: SpectralField2D, lattice: Lattice) -> SpectralField2D:
    """Re-house a field on a larger (or equal) lattice, zero-padding new modes."""
    if lattice.kmax < field.lattice.kmax or lattice.lmax < field.lattice.lmax:
        raise FieldError(f"cannot embed {field.lattice} into smaller {lattice}")
    coeff = np.zeros(lattice.shape, dtype=complex)
    dk = lattice.kmax - field.lattice.kmax
    dl = lattice.lmax - field.lattice.lmax
    coeff[dk : dk + field.lattice.shape[0], dl : dl + field.lattice.shape[1]] = field.coeff
    return SpectralField2D(lattice, coeff)


def grad_l2_sq(field: SpectralField2D) -> float | np.ndarray:
    """||grad f||_2^2 = sum (k^2+l^2) |c|^2; one per sample of a trajectory."""
    power = _power(field)
    return np.sum(np.multiply(power, field.lattice.weight_grid(), out=power), axis=(-2, -1))


def laplacian_l2(field: SpectralField2D) -> float:
    """||Delta f||_2 = sqrt(sum (k^2+l^2)^2 |c|^2)."""
    return float(np.sqrt(np.sum(field.lattice.weight_grid() ** 2 * np.abs(field.coeff) ** 2)))


def dx_l2(field: SpectralField2D) -> float:
    """||d_x f||_2 = sqrt(sum k^2 |c|^2)."""
    k2 = field.lattice.k_values()[:, None].astype(float) ** 2
    return float(np.sqrt(np.sum(k2 * np.abs(field.coeff) ** 2)))


def h2_norm(field: SpectralField2D) -> float:
    """Inhomogeneous H^2 norm with Bessel weight (1 + k^2 + l^2)^2."""
    w = 1.0 + field.lattice.weight_grid()
    return float(np.sqrt(np.sum(w**2 * np.abs(field.coeff) ** 2)))


def pair_bilinear(f: SpectralField2D, g: SpectralField2D) -> complex:
    """Bilinear pairing <f,g> = integral f*g = sum_{k,l} f(k,l) g(-k,-l)."""
    if f.lattice != g.lattice:
        raise FieldError("bilinear pairing requires matching lattices")
    return complex(np.sum(f.coeff * g.coeff[::-1, ::-1]))


def field_to_json(field: SpectralField2D, tol: float = 0.0) -> dict:
    """Serialize to {kmax, lmax, coeffs: [[k, l, re, im], ...]}, nonzero entries only."""
    entries = []
    kmax, lmax = field.lattice.kmax, field.lattice.lmax
    for i, k in enumerate(range(-kmax, kmax + 1)):
        for j, l in enumerate(range(-lmax, lmax + 1)):
            c = field.coeff[i, j]
            if abs(c) > tol:
                entries.append([k, l, float(c.real), float(c.imag)])
    return {"kmax": kmax, "lmax": lmax, "coeffs": entries}


def field_from_json(data: dict) -> SpectralField2D:
    """Inverse of field_to_json; a malformed, non-finite or out-of-lattice entry is a FieldError.

    Each message names the key at fault.  The conjugate symmetry of a real
    field is not checked here.
    """
    cutoffs = [json_number(data.get(key), key, integer=True) for key in ("kmax", "lmax")]
    for key, cutoff in zip(("kmax", "lmax"), cutoffs):
        if cutoff < 1:
            raise FieldError(f"{key} must be at least 1, got {cutoff}")
    lattice = Lattice(*cutoffs)
    entries = data.get("coeffs")
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 4 for e in entries):
        raise FieldError(f"coeffs must be a list of [k, l, re, im] entries, got {entries!r}")
    coeff = np.zeros(lattice.shape, dtype=complex)
    for i, entry in enumerate(entries):
        k, l, re, im = (json_number(v, f"coeffs[{i}]", integer=j < 2) for j, v in enumerate(entry))
        if abs(k) > lattice.kmax or abs(l) > lattice.lmax:
            raise FieldError(f"coeffs[{i}] ({k},{l}) outside lattice {lattice}")
        coeff[k + lattice.kmax, l + lattice.lmax] = complex(re, im)
    if not np.isfinite(coeff).all():
        raise FieldError("coeffs must be finite")
    try:
        return SpectralField2D(lattice, coeff)
    except FieldError:  # the shape fits the lattice, so the (0,0) entry broke the mean-zero rule
        origin = coeff[lattice.kmax, lattice.lmax]
        raise FieldError(f"coeffs (0,0) entry must be 0 in a mean-zero field, got {origin}") from None
