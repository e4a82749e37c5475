"""Fast-oscillation machinery at spectral truncation.

For a divergence-free flow u(A t, x, y) with phase period L, the phase
average ubar drives the operator B = nu Laplacian + ubar . grad acting on
adjoint test functions.  A root space of B on which the datum has a nonzero
bilinear pairing ("detecting" space) yields a finite-dimensional observable
whose decay rate floors the L^2 norm; all constants of that floor are
estimated here at a finite lattice truncation and assembled into an explicit
threshold A0 and exponent c_A = gamma + 2 eta.

The Sylvester-resolvent constant is a truncation estimate, not a rigorous
bound; it is flagged as such in the certificate output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .flows import FlowSpec, SpectralVelocity, time_average
from .reports import BoundReport, make_report
from .shear import FieldTrajectory, _check_times, _march
from .spectral import (
    FieldError,
    Lattice,
    SpectralField2D,
    embed,
    l2_norm,
)

__all__ = [
    "DetectionError",
    "ClusterIsolationError",
    "LAMBDA1",
    "AveragedOperator",
    "DetectingSpectrum",
    "SylvesterEstimate",
    "FastCertificate",
    "averaged_operator",
    "detecting_spectrum",
    "damping_constant",
    "sylvester_constant",
    "c_r_constant",
    "fast_certificate",
    "evolve_2d",
    "observable_series",
    "check_fast_bound",
]


class _Linalg:
    """``scipy.linalg``, imported at its first use: only the certificate's dense algebra reads it.

    ``sla.schur`` and the other calls look the module attribute ``sla`` up
    when they run, so it can be swapped for a stand-in.
    """

    def __getattr__(self, name: str):
        import scipy.linalg

        return getattr(scipy.linalg, name)


sla = _Linalg()

# First eigenvalue of -Laplacian on mean-zero functions under the integer
# frequency lattice convention.
LAMBDA1 = 1.0

# A cluster detects the datum when the root-space pairing clears this
# fraction of ||rho0||_2; below the eigen-residual noise floor the pairing is
# indistinguishable from zero.
EPS_DETECT = 1e-8

# Eigenvalues within CLUSTER_TOL * nu of a cluster's centre belong to it.
CLUSTER_TOL = 1e-6

# The detecting cluster must lie more than GAP_FLOOR cluster tolerances from the
# rest of the spectrum, or its Sylvester resolvent is not estimated.
GAP_FLOOR = 10.0

# Contour nodes of the Sylvester-resolvent estimate, evenly spaced on its circle.
SYLVESTER_NODES = 8

# The damping constant's grid: 2^DAMPING_LEVELS steps on its first window [0, 10 d / eta], which
# may double DAMPING_DOUBLINGS times before the window is given up.
DAMPING_LEVELS = 10
DAMPING_DOUBLINGS = 4

# Steps of an evolve_2d segment whose stage factors are computed together: a
# (64, 4, rows) complex array, so memory does not grow with the segment's step count.
_WEIGHT_CHUNK = 64

# The RK4 stages k1..k4 of an evolve_2d step are taken at the fractions _RK4_TIMES
# of h into the step and carry the multiples _RK4_STEPS of h, so the stage inputs
# c + h/2 k1, c + h/2 k2 and c + h k3 are one add each, and the update
# c + (h/6)(k1 + 2 k2 + 2 k3 + k4) is c + _RK4_SUM @ stages.
_RK4_TIMES = np.array([0.0, 0.5, 0.5, 1.0])
_RK4_STEPS = np.array([0.5, 0.5, 1.0, 0.5])
_RK4_SUM = np.array([1.0, 2.0, 1.0, 1.0], dtype=complex) / 3.0


class DetectionError(RuntimeError):
    """No root-space cluster pairs with the datum at this truncation."""


class ClusterIsolationError(RuntimeError):
    """The detecting cluster is not isolated from the rest of the spectrum."""


@dataclass(frozen=True)
class AveragedOperator:
    """nu*Laplacian + ubar.grad on mean-zero lattice modes, held as its class blocks.

    The mode classes are the connected components of the operator's coupling
    graph; no entry links two classes, so each is an invariant block.
    ``groups`` holds, per class size s in order of first appearance,
    ``(idx, blocks)``: the (m, s) ascending indices of the classes of that
    size, rows ordered by first index, and the (m, s, s) stack of their
    blocks, ``blocks[r][a, b]`` the entry at row ``idx[r, a]`` and column
    ``idx[r, b]``.  A stack whose imaginary part is exactly zero is stored
    real, so numpy hands it to real LAPACK.

    The flow is real, so the operator is real-structured: conjugated by the
    flip (k, l) -> (-k, -l), which reverses the mode list, it equals its
    complex conjugate exactly.  The flip of a class ``idx`` is therefore a
    class, ``dim - 1 - idx[::-1]`` (its flip partner, possibly itself), of
    the same size, whose block is the reversed conjugate of the block of
    ``idx``.

    A cos-phase stream function (every term ``cos(kx x + ky y)``) has real
    Fourier coefficients, its drift weights ``i (k a + l b)`` are real, and
    every class block is a real matrix (the imaginary part is exactly 0, as
    on both shipped fast scenarios).  The certificate then runs those blocks
    in real arithmetic (``detecting_spectrum``, ``sylvester_constant``).
    """

    nu: float
    cutoff: Lattice
    modes: np.ndarray  # (n, 2) integer rows (k, l)
    groups: tuple = dataclass_field(repr=False)

    @property
    def dim(self) -> int:
        return self.modes.shape[0]

    def field_to_vec(self, f: SpectralField2D) -> np.ndarray:
        """Coefficients on ``modes``: the raveled lattice without its centre (0, 0), index dim // 2."""
        g = embed(f, self.cutoff) if f.lattice != self.cutoff else f
        return np.delete(g.coeff.ravel(), self.dim // 2)


def _mode_list(cutoff: Lattice) -> np.ndarray:
    """The (k, l) rows of the raveled lattice without its centre: the order of ``field_to_vec``."""
    k, l = np.meshgrid(cutoff.k_values(), cutoff.l_values(), indexing="ij")
    return np.delete(np.stack((k.ravel(), l.ravel()), axis=1), k.size // 2, axis=0)


_TIME_MODES = ("const", "cos", "sin")


class _Drift:
    """Galerkin drift u . grad on a lattice: a truncated spectral convolution.

    A velocity harmonic (p, q) with coefficients (a, b) sends the field
    coefficient c(k, l) to (k + p, l + q) with weight i (k a + l b); products
    that leave the lattice, or that start or land on (0, 0), are dropped.
    Every product is held once, in one structure that both ``evolve_2d`` and
    ``averaged_operator`` read: one row per (time mode, harmonic) pair whose
    weights are not all zero, ordered by mode, then by harmonic, so a
    harmonic that appears in two time modes has two rows.  ``mode[r]``
    indexes ``velocities``, ``src[r, d]`` is the flat source d - (p_r, q_r)
    of flat destination d, and ``vals[r, d]`` the product's weight.  A
    dropped product reads the (0, 0) slot with weight exactly 0, so the
    output does not depend on a finite (0, 0) coefficient.  The drift of the
    flat ``coeff`` under the time-mode factors ``tau`` (1, cos omega theta
    and sin omega theta for a time-periodic flow at phase theta) is one
    gather, one product and one contraction over rows,
    ``tau[mode] @ (vals * coeff[src])``.
    """

    def __init__(self, velocities: list[SpectralVelocity], lattice: Lattice):
        vlat = velocities[0].lattice
        u = np.array([sv.u.ravel() for sv in velocities])
        v = np.array([sv.v.ravel() for sv in velocities])
        mode, cols = np.nonzero((u != 0) | (v != 0))
        p, q = np.unravel_index(cols, vlat.shape)
        p, q = p - vlat.kmax, q - vlat.lmax
        kmax, lmax = lattice.kmax, lattice.lmax
        k, l = (g.ravel() for g in np.meshgrid(lattice.k_values(), lattice.l_values(), indexing="ij"))
        # one row per (mode, harmonic), one column per destination coefficient
        ks, ls = k - p[:, None], l - q[:, None]
        keep = (np.abs(ks) <= kmax) & (np.abs(ls) <= lmax) & ((ks != 0) | (ls != 0)) & ((k != 0) | (l != 0))
        src = np.where(keep, (ks + kmax) * (2 * lmax + 1) + ls + lmax, k.size // 2)
        vals = np.where(keep, 1j * (ks * u[mode, cols, None] + ls * v[mode, cols, None]), 0.0)
        nonzero = np.any(vals != 0, axis=1)
        self.mode, self.src, self.vals = mode[nonzero], src[nonzero], vals[nonzero]


def averaged_operator(flow: FlowSpec, nu: float, cutoff: Lattice | int) -> AveragedOperator:
    """Assemble the averaged drift-diffusion operator as its stacks of class blocks.

    The drift is the Galerkin drift of ubar, the spectral convolution
    ``evolve_2d`` also steps with; products falling outside the truncation are
    dropped, so ubar should be band-limited within cutoff/2 for the
    convolution to be exact.  The diffusion diagonal and every drift product
    are written straight into the block stacks (``AveragedOperator.groups``);
    no n x n matrix is formed.  A harmonic links each destination to one
    source, and no harmonic is (0, 0), so every entry is written once.
    """
    if isinstance(cutoff, int):
        cutoff = Lattice(cutoff, cutoff)
    ubar = time_average(flow)
    band = ubar.max_band()
    if band > min(cutoff.kmax, cutoff.lmax) // 2:
        warnings.warn(
            f"averaged velocity band {band} exceeds half the cutoff {cutoff}; "
            "drift convolution will be truncated",
            stacklevel=2,
        )
    modes = _mode_list(cutoff)
    n = modes.shape[0]
    diagonal = -nu * (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(float)
    drift = _Drift([ubar], cutoff)  # every row is a const-mode row
    row, dst = np.nonzero(drift.vals)
    src = drift.src[row, dst]
    # the mode list is the raveled lattice without its centre, flat index n // 2
    rows, cols = dst - (dst > n // 2), src - (src > n // 2)
    vals = drift.vals[row, dst]
    classes = _mode_classes(n, rows, cols)
    by_size: dict[int, list] = {}
    for idx in classes:
        by_size.setdefault(idx.size, []).append(idx)
    stacked = [np.array(group) for group in by_size.values()]
    # each mode's class size, the row of its class in that size's stack, and its place in the class
    size, slot, place = (np.empty(n, dtype=int) for _ in range(3))
    for idx in stacked:
        m, s = idx.shape
        size[idx], slot[idx], place[idx] = s, np.arange(m)[:, None], np.arange(s)
    groups = []
    for idx in stacked:
        m, s = idx.shape
        entry = size[rows] == s  # both ends of a drift entry lie in one class
        entries = vals[entry]
        if not entries.imag.any():
            entries = entries.real  # the diagonal is real, so the stack is real when its drift entries are
        blocks = np.zeros((m, s, s), dtype=entries.dtype)
        blocks[:, np.arange(s), np.arange(s)] = diagonal[idx]
        blocks[slot[rows[entry]], place[rows[entry]], place[cols[entry]]] = entries
        groups.append((idx, blocks))
    return AveragedOperator(nu, cutoff, modes, tuple(groups))


def _mode_classes(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connected components of the graph on n modes with an edge per pair (rows[e], cols[e]).

    Each mode's label starts at its own index; every round lowers each mode
    to the smallest label among itself and its neighbours, then jumps every
    label to its label's label.  A label always names a mode of the same
    component and never grows, so at the fixed point each component carries
    its smallest index.  Components come out ordered by that index, members
    ascending.
    """
    # both directions of every edge, grouped by the mode they lower
    ends, others = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    order = np.argsort(ends, kind="stable")
    ends, others = ends[order], others[order]
    starts = np.flatnonzero(np.diff(ends, prepend=-1))
    targets = ends[starts]
    label = np.arange(n)
    while True:
        lowered = label.copy()
        lowered[targets] = np.minimum(label[targets], np.minimum.reduceat(label[others], starts))
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    order = np.argsort(label, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


@dataclass(frozen=True)
class DetectingSpectrum:
    """Detecting root-space data of the averaged operator for a given datum.

    ``schur_blocks`` holds, per member class of the cluster, ``(idx, T, Z,
    d)``: its mode indices, its sorted complex Schur form and the number of
    leading cluster columns.  The detecting basis is the columns ``Z[:, :d]``
    of every member class, each on the modes ``idx`` and zero elsewhere:
    orthonormal, and mapped by the operator to the basis times G exactly at
    truncation, G block-diagonal with blocks ``T[:d, :d]``.  lambda_nu is the
    cluster eigenvalue and gamma_nu = -Re lambda_nu its decay rate.  q0, K0
    and K2 are taken class by class: the pairing of the datum with the
    columns, their norm, and their norm weighted by (1 + k^2 + l^2)^2.
    ``residual`` is the largest column norm of the defect ``B_c Z[:, :d] -
    Z[:, :d] T[:d, :d]`` over the member classes, B_c the class block.
    """

    eigenvalues: np.ndarray  # all eigenvalues sorted by -Re ascending
    lambda_nu: complex
    gamma_nu: float
    d_nu: int
    G: np.ndarray
    q0: np.ndarray
    Q: float
    K0: float
    K2: float
    g_norm: float
    residual: float
    cluster_tol: float
    schur_blocks: tuple = dataclass_field(repr=False)

    def to_json(self) -> dict:
        return {
            "lambda_nu": [self.lambda_nu.real, self.lambda_nu.imag],
            "gamma_nu": self.gamma_nu,
            "d_nu": self.d_nu,
            "Q": self.Q,
            "K0": self.K0,
            "K2": self.K2,
            "g_norm": self.g_norm,
            "residual": self.residual,
            "cluster_tol": self.cluster_tol,
        }


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> list[np.ndarray]:
    """Greedy clustering of eigenvalues within tol, slowest decay first.

    Eigenvalues are visited by decreasing real part; each joins the first
    cluster (in order of creation) whose centre lies within tol, and that
    centre becomes the mean of its members; otherwise it opens a cluster.

    A sweep line keeps only the clusters that can still be joined.  Every
    member of a cluster, so its centre too, lies at or right of its latest
    member (the lowest real part so far); a cluster whose latest member lies
    more than tol right of the current eigenvalue cannot hold it or any later
    one.  The sweep drops a cluster at 2 tol, which leaves a margin of tol
    for rounding.  Distances are taken on Python complex scalars, and a
    centre is the running sum of its members over their count.  Clusters come out
    sorted by their centre quantized at tol.
    """
    order = np.argsort(-eigs.real).tolist()
    clusters: list[list[int]] = []
    sums: list[complex] = []
    centers: list[complex] = []
    edges: list[float] = []  # real part of each cluster's latest member
    active: list[int] = []  # joinable clusters, in order of creation
    reach = 2.0 * tol
    for i, lam in zip(order, eigs[order].tolist()):
        active = [c for c in active if edges[c] - lam.real <= reach]
        for c in active:
            if abs(centers[c] - lam) <= tol:
                clusters[c].append(i)
                sums[c] += lam
                centers[c] = sums[c] / len(clusters[c])
                edges[c] = lam.real
                break
        else:
            active.append(len(clusters))
            clusters.append([i])
            sums.append(lam)
            centers.append(lam)
            edges.append(lam.real)

    def quantized(c: int) -> tuple:
        # keys rounded at cluster granularity so conjugate-pair ordering does
        # not depend on last-bit noise
        z = centers[c]
        return (round(-z.real / tol), round(abs(z.imag) / tol), -np.sign(round(z.imag / tol)))

    keyed = sorted(range(len(clusters)), key=quantized)
    return [np.array(clusters[c], dtype=int) for c in keyed]


def detecting_spectrum(op: AveragedOperator, rho0: SpectralField2D) -> DetectingSpectrum:
    """Find the slowest-decaying eigenvalue cluster whose root space sees rho0.

    The operator is evaluated class by class (``op.groups``): eigenvalues
    come from each class's diagonal block and are clustered together.  The
    flip partner of a class is a class whose block is the flipped conjugate
    (``AveragedOperator``), so its eigenvalues are the conjugates: of each
    pair, only the class with the lower first index calls ``eigvals``, and
    a class that is its own flip is computed whole.  A stack of equal-size
    blocks whose imaginary part is exactly zero calls it in real arithmetic
    (``dgeev``), so its conjugate pairs come out exactly conjugate and its
    real eigenvalues exactly real.  When every class holding the cluster is
    real and every cluster eigenvalue is exactly real, the cluster is
    closed under conjugation, the trace of G is real, and lambda_nu is
    returned exactly real (its real part, so gamma_nu, unchanged).
    Clusters are visited by increasing decay rate; for each, the invariant
    subspace is taken from a sorted Schur decomposition of every class that
    holds a cluster eigenvalue, and the datum's bilinear pairing with its
    columns decides detection.  The cost follows the largest class, not the
    number of modes; a fully coupled operator is one class.  Fails when no
    cluster pairs above EPS_DETECT * ||rho0||_2 (truncation too small or the
    datum is orthogonal to everything resolvable).  Eigenvalues cluster within
    CLUSTER_TOL * nu.
    """
    cluster_tol = CLUSTER_TOL * op.nu
    rho_norm = l2_norm(rho0)
    if rho_norm == 0.0:
        raise FieldError("detecting spectrum requires a nonzero datum")
    # the bilinear pairing reads the datum at (-k, -l): the mode list reversed
    rho_flipped = op.field_to_vec(rho0)[::-1]

    eig_parts, owner_parts = [], []
    for idx, blocks in op.groups:
        partner = op.dim - 1 - idx[:, -1]  # first index of each class's flip partner, of the same size
        computed = idx[:, 0] <= partner
        eig = np.empty(idx.shape, dtype=complex)
        eig[computed] = np.linalg.eigvals(blocks[computed])
        # the rows are ordered by first index, so a partner's row is found by bisection
        eig[~computed] = eig[np.searchsorted(idx[:, 0], partner[~computed])].conj()
        eig_parts.append(eig.ravel())
        owner_parts.append(np.repeat(idx[:, 0], idx.shape[1]))  # a class is named by its first index
    eigs = np.concatenate(eig_parts)
    owner = np.concatenate(owner_parts)
    clusters = _cluster_eigenvalues(eigs, cluster_tol)
    # a class is named by its first index; its indices and block are a row of its size's stack
    class_of = {int(idx[0]): (idx, block) for group in op.groups for idx, block in zip(*group)}

    for cluster in clusters:
        center = complex(np.mean(eigs[cluster]))

        def near(z: complex) -> bool:
            return abs(z - center) <= cluster_tol

        # detection needs the full root space, not just eigenvectors, so each
        # candidate cluster costs one sorted Schur decomposition per class
        # holding a cluster eigenvalue or one the sort would select
        members = np.union1d(owner[cluster], owner[np.abs(eigs - center) <= cluster_tol])
        schur_blocks = []
        for first in members.tolist():
            idx, block = class_of[first]
            T, Z, sdim = sla.schur(block, output="complex", sort=near)
            if sdim:
                schur_blocks.append((idx, T, Z, int(sdim)))
        if not schur_blocks:
            continue
        columns = [(idx, Z[:, :d]) for idx, _, Z, d in schur_blocks]  # the detecting basis, class by class
        q0 = np.concatenate([phi.T @ rho_flipped[idx] for idx, phi in columns])  # bilinear pairing <rho0, phi_j>
        Q = float(np.linalg.norm(q0))
        if Q <= EPS_DETECT * rho_norm:
            continue
        G = sla.block_diag(*(T[:d, :d] for _, T, _, d in schur_blocks))
        blocks = [class_of[int(idx[0])][1] for idx, *_ in schur_blocks]
        h2_weight = (1.0 + (op.modes[:, 0] ** 2 + op.modes[:, 1] ** 2).astype(float)) ** 2
        residual = max(
            float(np.max(np.linalg.norm(B @ Z[:, :d] - Z[:, :d] @ T[:d, :d], axis=0)))
            for B, (_, T, Z, d) in zip(blocks, schur_blocks)
        )
        lam = complex(np.mean(np.diag(G)))
        real_blocks = not any(B.imag.any() for B in blocks)
        if real_blocks and not eigs[cluster].imag.any():
            # a real cluster of real blocks is closed under conjugation, so the
            # trace of G is real and its imaginary part is complex-Schur noise
            lam = complex(lam.real)
        sorted_eigs = eigs[np.argsort(-eigs.real)]
        return DetectingSpectrum(
            eigenvalues=sorted_eigs,
            lambda_nu=lam,
            gamma_nu=-lam.real,
            d_nu=G.shape[0],
            G=G,
            q0=q0,
            Q=Q,
            K0=float(np.linalg.norm(np.concatenate([phi.ravel() for _, phi in columns]))),
            K2=math.sqrt(sum(np.sum(h2_weight[idx, None] * np.abs(phi) ** 2) for idx, phi in columns)),
            g_norm=float(np.linalg.norm(G, 2)),
            residual=residual,
            cluster_tol=cluster_tol,
            schur_blocks=tuple(schur_blocks),
        )
    raise DetectionError(
        "no detecting cluster: enlarge the truncation or check that the datum "
        "is not below the detection threshold everywhere"
    )


def damping_constant(G: np.ndarray, gamma: float, eta: float) -> float:
    """An upper bound on D_eta = sup_t h(t), h(t) = e^{-(gamma+eta) t} ||e^{-G^T t}||.

    With mu the top eigenvalue of the Hermitian part of -G^T (its logarithmic
    norm), ||e^{-G^T t}|| <= e^{mu t}.  When mu <= gamma + eta this gives
    h(t) <= 1 = h(0), and the supremum is exactly 1.0.

    Otherwise, with delta = max(-Re eig G) - gamma, h(t) >= e^{(delta - eta) t}:
    for delta > eta the supremum is infinite, and for delta == eta no window
    can close (h(T) >= 1 for every T); both raise a ValueError naming delta
    and eta.  For delta < eta, h is sampled at step dt on [0, T], starting at
    T = 10 d / eta and doubling T while h(T) > 1.  Since h(t + s) <= h(t) h(s),
    once h(T) <= 1 every later value is at most one in [0, T], and on a grid
    step h(t_i + s) <= h(t_i) e^{(mu - gamma - eta) s}, so the largest sample
    times e^{(mu - gamma - eta) dt} bounds the supremum.  A T that still has
    h(T) > 1 after DAMPING_DOUBLINGS doublings raises a ValueError.
    """
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    d = G.shape[0]
    A = -G.T
    mu = float(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-1])
    if mu <= gamma + eta:
        return 1.0
    delta = float(np.max(-np.linalg.eigvals(G).real)) - gamma
    if delta > eta:
        raise ValueError(
            f"decay spread delta = {delta:.6g} exceeds eta = {eta:.6g}: "
            "e^{-(gamma+eta) t} ||e^{-G^T t}|| grows without bound"
        )
    if delta == eta:
        raise ValueError(
            f"decay spread delta = {delta:.6g} equals eta = {eta:.6g}: "
            "e^{-(gamma+eta) t} ||e^{-G^T t}|| >= 1 at every t, so no sampled window holds its supremum"
        )
    # powers[k] = e^{A_eta k dt} with A_eta = A - (gamma + eta) I, so h(k dt) = ||powers[k]||; each
    # doubling appends e^{A_eta T} e^{A_eta t} for the grid t of [0, T] and keeps the step dt
    dt = 10.0 * d / eta / 2**DAMPING_LEVELS
    powers = np.stack([np.eye(d, dtype=complex), sla.expm((A - (gamma + eta) * np.eye(d)) * dt)])
    for level in range(DAMPING_LEVELS + DAMPING_DOUBLINGS):
        powers = np.concatenate([powers, powers[-1] @ powers[1:]])
        if level + 1 >= DAMPING_LEVELS and np.linalg.norm(powers[-1], 2) <= 1.0:
            return float(np.max(_norm2(powers))) * math.exp((mu - gamma - eta) * dt)
    raise ValueError(
        f"e^{{-(gamma+eta) t}} ||e^{{-G^T t}}|| still exceeds 1 at t = {dt * (len(powers) - 1):.6g} "
        f"(decay spread delta = {delta:.6g}, eta = {eta:.6g})"
    )


@dataclass(frozen=True)
class SylvesterEstimate:
    """Contour estimate of the Sylvester-resolvent constant (non-rigorous).

    The contour is a circle around lambda_nu at half the spectral gap; at
    each node the weighted resolvent norms H^{-1} -> H^1 and L^2 -> H^2 of
    the complementary block are maximized and multiplied by the contour
    length factor.  Estimated at truncation, not a certified bound.
    """

    value: float
    gap: float
    radius: float
    nodes: np.ndarray
    h1_weighted_norms: np.ndarray
    h2_weighted_norms: np.ndarray
    flag: str = "estimated at truncation, not rigorous"
    resolvents: int = 0  # class blocks inverted, summed over contour nodes


def _norm2(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of square matrices, one per leading index.

    sigma_max(A) is the square root of the top eigenvalue of the Hermitian
    Gram matrix A^H A; an s x s member comes out to about s * eps relative,
    without the singular vectors or the iteration an SVD would spend.
    """
    gram = np.matmul(stack.conj().swapaxes(-2, -1), stack)
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def sylvester_constant(op: AveragedOperator, spectrum: DetectingSpectrum) -> SylvesterEstimate:
    """Numerically estimate the Sylvester-resolvent constant for the detecting cluster.

    Evaluated class by class (``op.groups``): the resolvent, the Riesz
    projector and the H^1/H^2 weights are all block-diagonal over the mode
    classes, so each 2-norm is the largest over the classes.  Every class,
    member of the cluster or not, is inverted and normed in one batched
    stack per class size and contour node; a member class gets its projector
    once from its sorted Schur form, and its resolvent takes the rank-d
    correction in place, while on every other class the projector vanishes.
    Each 2-norm is the square root of the top eigenvalue of the Gram matrix
    A^H A (``_norm2``), one batched Hermitian eigenvalue call per stack with
    no SVD.  The cost follows the largest class, not the number of modes.

    The operator is real-structured: with F the flip, F M F = conj(M), so
    the resolvent of a class's flip partner at z is the flipped conjugate of
    its own at conj z, and the weights and the Riesz projector of a
    conjugation-closed cluster commute with the same map.  When lambda_nu is
    real, node N - j of the N contour nodes is the conjugate of node j, so a
    partner's norm at node j is its owner's at node N - j: only the owner of
    each pair (the class whose first index is at most its partner's, as in
    ``detecting_spectrum``) is evaluated, and each node then takes the
    larger of its own norm and its mirror's.  At any other lambda_nu every
    class is evaluated at every node.

    A class block that is itself real (a stack whose imaginary part is
    exactly zero, ``AveragedOperator``) has R(conj z) = conj R(z), and the
    Riesz projector of a conjugation-closed cluster is real: when lambda_nu
    is real, a real stack is evaluated only at nodes 0..N/2 (on or above
    the real axis), and node N - j takes node j's norms, on top of the
    owners-only pairing.  The nodes are built exactly conjugate-symmetric,
    so nodes 0 and N/2 are exactly real; there a real stack with no cluster
    member is inverted at a real z, so the inverse, the Gram product and its
    eigenvalues all run in real arithmetic (a member's projector is complex,
    so its stack keeps complex z).  ``resolvents`` counts the class blocks
    inverted, summed over nodes.
    """
    lam = spectrum.lambda_nu
    eigs = spectrum.eigenvalues
    others = eigs[np.abs(eigs - lam) > spectrum.cluster_tol]
    if others.size == 0:
        raise ClusterIsolationError("cluster spans the whole resolvable spectrum; no gap")
    gap = float(np.min(np.abs(others - lam)))
    floor = GAP_FLOOR * spectrum.cluster_tol
    if gap <= floor:
        raise ClusterIsolationError(f"spectral gap {gap:.3e} below isolation floor {floor:.3e}")
    radius = 0.5 * gap

    weights = 1.0 + (op.modes[:, 0] ** 2 + op.modes[:, 1] ** 2).astype(float)
    w_half = np.sqrt(weights)

    # the unit nodes are exactly conjugate-symmetric, unit[N - j] = conj(unit[j]), and
    # unit[0] = 1 and unit[N/2] = -1 are exactly real
    index = np.arange(SYLVESTER_NODES)
    mirror = -index % SYLVESTER_NODES
    upper = index <= mirror  # nodes 0..N/2, on or above the real axis
    unit = np.exp(2j * np.pi * index / SYLVESTER_NODES)
    unit[2 * index == SYLVESTER_NODES] = -1.0
    unit[~upper] = unit[mirror[~upper]].conj()
    nodes = lam + radius * unit
    owners_only = lam.imag == 0.0
    h1w = np.zeros(SYLVESTER_NODES)
    h2w = np.zeros(SYLVESTER_NODES)
    resolvents = 0

    # Riesz projection of the cluster from each member class's block-decoupled
    # Schur form: P = Z [[I, X], [0, 0]] Z^H with T11 X - X T22 = T12; rank d.
    # Off the member classes P = 0.
    projectors = {}
    for idx, T, Z, d in spectrum.schur_blocks:
        X = sla.solve_sylvester(T[:d, :d], -T[d:, d:], T[:d, d:])
        projectors[int(idx[0])] = (Z[:, :d], np.hstack([np.eye(d, dtype=complex), X]) @ Z.conj().T)

    for idx, blocks in op.groups:
        if owners_only:
            owners = idx[:, 0] <= op.dim - 1 - idx[:, -1]
            idx, blocks = idx[owners], blocks[owners]
        members = [(i, projectors[first]) for i, first in enumerate(idx[:, 0].tolist()) if first in projectors]
        real = np.isrealobj(blocks)
        eye = np.eye(idx.shape[1])
        wh, w = w_half[idx], weights[idx]
        # a real stack's norms at node N - j are its own at node j when lambda_nu is real
        for j in np.flatnonzero(upper) if real and owners_only else range(SYLVESTER_NODES):
            z = nodes[j]
            if real and not members and z.imag == 0.0:
                z = float(z.real)  # a real resolvent: inv, Gram product and eigvalsh run real
            resolvent = np.linalg.inv(z * eye - blocks)
            resolvents += len(idx)
            # R Pi_perp = R - (R p_left) p_right: rank-d correction, in place
            for i, (p_left, p_right) in members:
                resolvent[i] -= (resolvent[i] @ p_left) @ p_right
            h1w[j] = max(h1w[j], float(np.max(_norm2(wh[:, :, None] * resolvent * wh[:, None, :]))))
            h2w[j] = max(h2w[j], float(np.max(_norm2(w[:, :, None] * resolvent))))
    if owners_only:
        # node N - j takes node j's norms: a partner's are its owner's mirrored, a real stack's its own
        h1w = np.maximum(h1w, h1w[mirror])
        h2w = np.maximum(h2w, h2w[mirror])

    d = spectrum.d_nu
    g_inv_max = float(np.max(_norm2(np.linalg.inv(nodes[:, None, None] * np.eye(d) - spectrum.G))))

    contour_factor = radius * g_inv_max
    value = max(1.0, contour_factor * float(np.max(np.maximum(h1w, h2w))))
    return SylvesterEstimate(value, gap, radius, nodes, h1w, h2w, resolvents=resolvents)


def c_r_constant(L: float) -> float:
    """Explicit admissible multiplier constant for the zero-phase inversion.

    The elementary denominator bounds give factors L/(2 pi), 1 and
    sqrt(L/(4 pi)); composing with the 1D embedding constant
    sqrt(2 max(1/L, L)) of H^1 of an L-periodic interval into C^0 yields one
    concrete choice (any larger value is also admissible).
    """
    if not (L > 0):
        raise ValueError("period must be positive")
    multiplier = max(L / (2.0 * math.pi), 1.0, math.sqrt(L / (4.0 * math.pi)))
    embedding = math.sqrt(2.0 * max(1.0 / L, L))
    return multiplier * embedding


@dataclass(frozen=True)
class FastCertificate:
    """Explicit fast-oscillation threshold A0 and admissible exponent chain."""

    nu: float
    eta: float
    M: float
    C_R: float
    C_S: float
    S_nu: float
    K_nu: float
    D_eta: float
    gamma_nu: float
    Q: float
    K0: float
    rho_norm: float
    a0_terms: dict
    A0: float
    c_A: float
    prefactor: float
    lambda1: float = LAMBDA1
    sylvester_flag: str = "estimated at truncation, not rigorous"

    def rate_for(self, A: float) -> float:
        """Sharper A-dependent admissible exponent gamma + eta + D K / A."""
        if not (A > 0):
            raise ValueError("A must be positive")
        return self.gamma_nu + self.eta + self.D_eta * self.K_nu / A

    def log_envelope(self, t: float, rate: float | None = None) -> float:
        c = self.c_A if rate is None else rate
        return math.log(self.prefactor) - c * t

    def to_json(self) -> dict:
        return {"kind": "fast", **vars(self), "a0_terms": dict(self.a0_terms)}


def fast_certificate(
    flow: FlowSpec,
    rho0: SpectralField2D,
    nu: float,
    eta: float | None,
    spectrum: DetectingSpectrum,
    sylvester: SylvesterEstimate,
) -> FastCertificate:
    """Assemble the six-term threshold A0 and the exponent c_A = gamma + 2 eta.

    eta=None selects the small-viscosity tuning eta = nu * lambda1 when that
    lies in (0, 1] (then c_A = gamma + 2 nu lambda1), else eta = 1.
    """
    if eta is None:
        eta = nu * LAMBDA1 if nu * LAMBDA1 <= 1.0 else 1.0
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    M = 1.0 + flow.lip
    C_R = c_r_constant(flow.period)
    C_S = sylvester.value
    S_nu = 1.0 + spectrum.K2 + spectrum.g_norm
    K_nu = 1.0e6 * C_R**2 * C_S**2 * M**2 * S_nu**2
    D_eta = damping_constant(spectrum.G, spectrum.gamma_nu, eta)
    rho_norm = l2_norm(rho0)
    terms = {
        "bundle_contraction_4K": 4.0 * K_nu,
        "nu": nu,
        "bundle_derivative_64K2_over_nu": 64.0 * K_nu**2 / nu,
        "bundle_quadratic_1000CS_K": 1000.0 * C_S * K_nu,
        "pairing_2K_rho_over_Q": 2.0 * K_nu * rho_norm / spectrum.Q,
        "absorption_DK_over_eta": D_eta * K_nu / eta,
    }
    A0 = max(terms.values())
    c_A = spectrum.gamma_nu + 2.0 * eta
    prefactor = spectrum.Q / (2.0 * D_eta * (spectrum.K0 + 1.0))
    return FastCertificate(
        nu=nu,
        eta=eta,
        M=M,
        C_R=C_R,
        C_S=C_S,
        S_nu=S_nu,
        K_nu=K_nu,
        D_eta=D_eta,
        gamma_nu=spectrum.gamma_nu,
        Q=spectrum.Q,
        K0=spectrum.K0,
        rho_norm=rho_norm,
        a0_terms=terms,
        A0=A0,
        c_A=c_A,
        prefactor=prefactor,
    )


def evolve_2d(
    rho0: SpectralField2D,
    flow: FlowSpec,
    A: float,
    nu: float,
    times: np.ndarray,
    dt: float | None = None,
) -> FieldTrajectory:
    """Galerkin spectral integration of d_t rho + u(A t) . grad rho = nu Laplacian rho.

    Strang splitting: exact diffusion half-steps around a classical RK4
    advection substep.  The drift is the truncated spectral convolution that
    ``averaged_operator`` assembles, one per time mode, weighted by 1,
    cos(omega A t) and sin(omega A t).  A = 0 means the steady flow frozen at
    phase 0.  The step size is forced below the fast-phase CFL cap
    0.2 / (A 2 pi / L + lip kmax).

    The raveled lattice is advanced one sample segment at a time.  The heat
    half-factor is computed once per segment.  Each drift row (``_Drift``:
    one per time mode and harmonic) takes a time factor, 1, cos(omega A t)
    or sin(omega A t); the factors of the four RK4 stages of every step
    (start, midpoint twice, end), with -h/2 folded in (-h for the third
    stage, so every stage input is one add), come from one vectorized cos
    and sin per run of ``_WEIGHT_CHUNK`` steps, cast to complex once, so
    memory does not grow with the step count.  Per step, each RK4 stage is
    one add, one gather, one product and one complex contraction
    ``factors @ (vals * x[src])`` over the rows, and the update is one
    product with the RK4 weights.  The trajectory stacks the fields at the
    sample times only; sample every step edge to audit the energy identity
    (``shear.dissipation_report``).  On the two shipped fast scenarios
    (lattices 8 and 6) a step takes about 29 and 23 us on a 2-core x86 VM
    with one BLAS thread; most of it is the fixed cost of some twenty small
    numpy calls, so it grows slowly with the lattice
    (``scripts/evolve2d_scaling.py``).
    """
    if not (nu > 0 and math.isfinite(nu)):
        raise FieldError(f"evolve_2d requires finite nu > 0, got {nu}")
    if not (A >= 0 and math.isfinite(A)):
        raise FieldError(f"fast frequency A must be finite and >= 0, got {A}")
    lattice = rho0.lattice
    cfl = 0.2 / (A * flow.omega + flow.lip * lattice.kmax + 1e-30)
    dt_target = min(dt, cfl) if dt is not None else min(1e-2, cfl)

    drift = _Drift([flow.mode_velocity(m) for m in _TIME_MODES], lattice)
    src, vals, mode = drift.src, drift.vals, drift.mode
    w = lattice.weight_grid().ravel()
    centre = w.size // 2
    has_advection = bool(flow.terms)
    stages = np.empty((4, w.size), dtype=complex)  # the RK4 stages k1..k4, times h/2, h/2, h and h/2

    def stage_factors(t0: np.ndarray, h: float) -> np.ndarray:
        """(steps, 4, rows) complex time factors of each drift row in the four RK4 stages, with -h _RK4_STEPS folded in."""
        phase = flow.omega * (A * (t0[:, None] + _RK4_TIMES * h))
        tau = np.stack((np.ones_like(phase), np.cos(phase), np.sin(phase)), axis=-1)
        return (-h * _RK4_STEPS[:, None] * tau[..., mode]).astype(complex)

    def advance(coeff: np.ndarray, t: float, h: float, n: int):
        half = np.exp(-0.5 * nu * w * h)
        for first in range(0, n, _WEIGHT_CHUNK):
            count = min(_WEIGHT_CHUNK, n - first)
            if has_advection:
                factors = stage_factors(t + (first + np.arange(count)) * h, h)
            for j in range(count):
                coeff = coeff * half
                if has_advection:
                    f1, f2, f3, f4 = factors[j]
                    np.matmul(f1, vals * coeff[src], out=stages[0])
                    np.matmul(f2, vals * (coeff + stages[0])[src], out=stages[1])
                    np.matmul(f3, vals * (coeff + stages[1])[src], out=stages[2])
                    np.matmul(f4, vals * (coeff + stages[2])[src], out=stages[3])
                    coeff = coeff + _RK4_SUM @ stages
                coeff = coeff * half
                coeff[centre] = 0.0
        return coeff

    times = _check_times(times)
    samples, diag_times = _march(times, dt_target, rho0.coeff.ravel(), advance)
    return FieldTrajectory(nu, times, lattice, samples.reshape((times.size,) + lattice.shape), diag_times)


def observable_series(trajectory: FieldTrajectory, basis: list[SpectralField2D]) -> np.ndarray:
    """Adjoint observables q_j(t) = <rho(t), phi_j> under the bilinear pairing, one row per sample.

    A basis field may sit on a larger lattice than the trajectory: the
    pairing then reads its coefficients on the trajectory's lattice.
    """
    kmax, lmax = trajectory.lattice.kmax, trajectory.lattice.lmax
    flipped = []
    for phi in basis:
        dk, dl = phi.lattice.kmax - kmax, phi.lattice.lmax - lmax
        if dk < 0 or dl < 0:
            raise FieldError(f"cannot embed {trajectory.lattice} into smaller {phi.lattice}")
        flipped.append(phi.coeff[::-1, ::-1][dk : dk + 2 * kmax + 1, dl : dl + 2 * lmax + 1])
    return np.einsum("tkl,jkl->tj", trajectory.coeff, np.reshape(flipped, (-1,) + trajectory.lattice.shape))


def check_fast_bound(
    trajectory: FieldTrajectory,
    cert: FastCertificate,
    A: float,
    tol: float = 1e-6,
    scenario: str = "",
) -> BoundReport:
    """Verify ||rho(t)||_2 >= C e^{-c t} with the certificate's admissible rate.

    Above the threshold A0 the rate is c_A = gamma + 2 eta; below it the
    sharper A-dependent admissible exponent gamma + eta + D K / A is used
    (A0 is typically astronomical since K >= 10^6, so this is the expected
    path at desk scale).  Margins are evaluated in log space.
    """
    if not (A > 0):
        raise ValueError("fast-bound check needs A > 0; steady flows can be checked at any A")
    if A > cert.A0:
        rate = cert.c_A
        regime = "above_threshold"
    else:
        rate = cert.rate_for(A)
        regime = "sharper_A_dependent"
    extras = {
        "A": A,
        "rate_used": rate,
        "regime": regime,
        "a0_terms": cert.a0_terms,
    }
    times = trajectory.times
    log_env = cert.log_envelope(times, rate)
    return make_report(
        scenario, "fast_l2_exponential_floor", cert.to_json(), times, l2_norm(trajectory), log_env, tol, extras
    )

