"""Boundary-element reference solver on triangulated surfaces.

Discretizes the induced-surface-charge integral equation

    (I + eps_hat D*) sigma = rhs

by centroid collocation with one-point quadrature.  The operator kernels
carry the 1/(4 pi) normalization, under which the constant surface density
on a sphere is an eigenvector of D* with eigenvalue -1/2.  The right-hand
side is the (negated, eps_hat-scaled) normal component of the Coulomb field
of the interior charges screened by eps_in, and sigma comes out as a true
charge density (e/Angstrom^2), so the reaction potential is the plain
Coulomb sum over panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh, gmres

from .errors import ConvergenceError, DomainError
from .mesh import PanelSurface
from .model import COULOMB_KCAL, ChargeDistribution, DielectricPair, EnergyResult
from .sphere import BibeeVariant, _diagonal_solve

DEFAULT_GMRES_TOL = 1e-8
DEFAULT_GMRES_RESTART = 50
DEFAULT_GMRES_MAXITER = 500

#: Charges closer than this (Angstrom) to a panel centroid are rejected.
NEAR_SINGULARITY_DISTANCE = 1e-6

#: Bytes per row-block temporary in D* assembly; a block stays in L2 cache.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SurfaceField:
    """Per-panel scalar boundary data (the BIE right-hand side)."""

    values: np.ndarray
    surface: PanelSurface

    def __post_init__(self):
        if self.values.shape != (self.surface.num_panels,):
            raise DomainError("field length does not match panel count")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("non-finite surface field values")
        self.values.setflags(write=False)


@dataclass(frozen=True)
class SurfaceCharge:
    """Per-panel induced charge density sigma with its producing method."""

    density: np.ndarray
    surface: PanelSurface
    method: str
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.density.shape != (self.surface.num_panels,):
            raise DomainError("density length does not match panel count")
        if not np.all(np.isfinite(self.density)):
            raise DomainError("non-finite surface charge density")
        self.density.setflags(write=False)


def coulomb_field_rhs(
    dist: ChargeDistribution, surf: PanelSurface, eps: DielectricPair
) -> SurfaceField:
    """Right-hand side of the BIE at panel centroids.

    rhs_i = -eps_hat / eps_in * sum_k q_k n_i.(r_k - c_i) / (4 pi |c_i - r_k|^3)
    The kernel's area-weighted column sums are the charges' Gauss probes
    (about -1 inside), so the same (T, Q) pass rejects exterior charges.
    """
    diff = dist.positions[None, :, :] - surf.centroids[:, None, :]   # (T, Q, 3)
    r2 = np.sum(diff * diff, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.einsum("td,tqd->tq", surf.normals, diff) / (4.0 * np.pi * r2 ** 1.5)
    dmin = np.sqrt(np.min(r2, axis=0))
    bad = np.nonzero((dmin < NEAR_SINGULARITY_DISTANCE) | ~(surf.areas @ kernel < -0.5))[0]
    if bad.size:
        k = bad[0]
        if dmin[k] < NEAR_SINGULARITY_DISTANCE:
            raise DomainError(
                f"charge {k} within {dmin[k]:g} Angstrom of a panel; refine or reposition")
        raise DomainError(f"charge {k} at {tuple(dist.positions[k])} is not inside the surface")
    values = -eps.eps_hat / eps.eps_in * kernel @ dist.magnitudes
    return SurfaceField(values=values, surface=surf)


def _row_blocks(t: int):
    """Row ranges [s, e) of a T x T float64 matrix, _BLOCK_BYTES per block."""
    rows = max(1, _BLOCK_BYTES // (8 * t))
    return [(s, min(s + rows, t)) for s in range(0, t, rows)]


def assemble_dstar(surf: PanelSurface) -> np.ndarray:
    """Dense discretization of the normal electric-field operator D*.

    Off-diagonal: D*[i, j] = A_j n_i.(c_j - c_i) / (4 pi |c_i - c_j|^3).
    Diagonal: fixed by the discrete Gauss identity so that the area-weighted
    transposed operator (the double layer) maps the constant density to -1/2
    at every panel: sum_j A_j D*[j, i] = -A_i / 2.  The result, 8 T^2 bytes
    (210 MB at 5120 panels), is the one T x T allocation: rows are filled
    in blocks of _BLOCK_BYTES.  DomainError if it cannot be allocated.
    """
    t = surf.num_panels
    try:
        dstar = np.empty((t, t))
    except MemoryError:
        raise DomainError(f"dense D* for {t} panels needs {8 * t * t} bytes") from None
    c, n, a = surf.centroids, surf.normals, surf.areas
    one, norms2, a4pi = np.ones(t), np.einsum("id,id->i", c, c), a / (4.0 * np.pi)
    # One GEMM per factor: |c_i - c_j|^2 = [c_i, |c_i|^2, 1].[-2 c_j, 1, |c_j|^2]
    # and A_j n_i.(c_j - c_i) / 4 pi = [n_i, -n_i.c_i].[c_j, 1] A_j / 4 pi.
    dist_l = np.column_stack([c, norms2, one])
    dist_r = np.column_stack([-2.0 * c, one, norms2]).T
    num_l = np.column_stack([n, -np.einsum("id,id->i", n, c)])
    num_r = np.column_stack([c, one]).T * a4pi
    blocks = _row_blocks(t)
    r3_buf = np.empty((blocks[0][1], t))
    for s, e in blocks:
        r3, blk, k = r3_buf[:e - s], dstar[s:e], np.arange(e - s)
        np.matmul(dist_l[s:e], dist_r, out=r3)
        r3[k, s + k] = 1.0
        np.sqrt(r3, out=blk)
        r3 *= blk
        np.matmul(num_l[s:e], num_r, out=blk)
        blk /= r3
        blk[k, s + k] = 0.0
    dstar[np.arange(t), np.arange(t)] = -0.5 - (a @ dstar) / a
    return dstar


def dstar_spectrum_estimates(surf: PanelSurface, tol: float = 1e-5) -> dict:
    """Extremal and dipole-mode eigenvalue estimates of the discrete D*.

    D* is similar to sqrt(A) K sqrt(A) (K the bare kernel matrix), which is
    symmetric up to discretization error on a sphere; the transform is
    symmetrized in place in the assembled matrix and fed to Lanczos.
    Returns the smallest eigenvalue (near -1/2 on spheres), the next
    distinct mode (the dipole, -1/6), and the largest (near 0).
    """
    m = assemble_dstar(surf)
    sq = np.sqrt(surf.areas)
    blocks = _row_blocks(surf.num_panels)
    for s, e in blocks:
        m[s:e] *= sq[s:e, None] / sq
    for s, e in blocks:
        sym = 0.5 * (m[s:e, s:] + m[s:, s:e].T)
        m[s:e, s:] = sym
        m[s:, s:e] = sym.T
    # A fixed start makes the estimates reproducible.  Not sqrt(A): that is
    # the constant-density eigenvector, whose Krylov space is one-dimensional.
    v0 = np.random.default_rng(0).standard_normal(surf.num_panels)
    low = np.sort(eigsh(m, k=5, which="SA", tol=tol, v0=v0, return_eigenvectors=False))
    high = eigsh(m, k=1, which="LA", tol=max(tol, 1e-4), v0=v0, return_eigenvectors=False)
    return {"lowest": float(low[0]), "dipole": float(low[1]), "highest": float(high[0])}


def bibee_surface_charge(
    rhs: SurfaceField, eps: DielectricPair, variant: BibeeVariant
) -> SurfaceCharge:
    """Diagonal-approximation surface charge from the BIE right-hand side.

    sigma = rhs / (1 + eps_hat lambda) with the variant's eigenvalues: the
    area-weighted mean of rhs (the mesh's n = 0 mode) takes lambda_0 and
    the remainder lambda_n for n >= 1.  CFA: lambda = -1/2; P: 0 (sigma is
    rhs); Lambda: lambda; M: lambda_0 = -1/2 and lambda elsewhere.
    """
    lam0, lam = variant.lambdas(1)
    v = rhs.values
    if lam0 == lam:
        density = _diagonal_solve(v, eps, lam)
    else:
        areas = rhs.surface.areas
        mean = float(np.sum(areas * v) / np.sum(areas))
        density = _diagonal_solve(mean, eps, lam0) + _diagonal_solve(v - mean, eps, lam)
    return SurfaceCharge(density=density, surface=rhs.surface,
                         method=f"BEM-{variant.method_name()}")


def exact_surface_charge(
    rhs: SurfaceField,
    surf: PanelSurface,
    eps: DielectricPair,
    tol: float = DEFAULT_GMRES_TOL,
) -> SurfaceCharge:
    """Solve (I + eps_hat D*) sigma = rhs for the reference surface charge.

    Restarted GMRES on the dense D*, to relative residual ``tol``.  Memory is
    that one 8 T^2-byte matrix: 210 MB at 5120 panels, 3.4 GB at 20480.
    """
    if not (0 < tol <= 1e-2):
        raise DomainError(f"GMRES tolerance must lie in (0, 1e-2], got {tol}")
    dstar = assemble_dstar(surf)
    eps_hat = eps.eps_hat

    def apply_system(x):
        return x + eps_hat * (dstar @ x)

    density, info = gmres(
        LinearOperator(dstar.shape, matvec=apply_system), rhs.values, rtol=tol, atol=0.0,
        restart=DEFAULT_GMRES_RESTART, maxiter=DEFAULT_GMRES_MAXITER,
    )
    residual = float(np.linalg.norm(apply_system(density) - rhs.values))
    if info != 0:
        raise ConvergenceError(
            f"GMRES did not converge within {DEFAULT_GMRES_MAXITER} iterations "
            f"(residual {residual:g})", residual=residual)
    rhs_norm = float(np.linalg.norm(rhs.values))
    if rhs_norm > 0 and residual > max(tol, 1e-10) * rhs_norm:
        raise ConvergenceError(
            f"solve residual {residual:g} exceeds {max(tol, 1e-10):g} * ||rhs||",
            residual=residual)
    return SurfaceCharge(
        density=density, surface=surf, method="BEM-exact",
        metadata={"solver": "gmres", "residual": f"{residual:.3e}"})


def reaction_energy(
    sigma: SurfaceCharge, surf: PanelSurface, dist: ChargeDistribution
) -> EnergyResult:
    """Reaction energy (k_e/2) sum_k q_k sum_j sigma_j A_j / |r_k - c_j|."""
    pos = dist.positions
    q = dist.magnitudes
    diff = pos[:, None, :] - surf.centroids[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    psi = (sigma.density * surf.areas / r).sum(axis=1)
    value = 0.5 * COULOMB_KCAL * float(np.dot(q, psi))
    return EnergyResult(value=value, method=sigma.method, metadata=dict(sigma.metadata))


def bem_energy(
    dist: ChargeDistribution,
    surf: PanelSurface,
    eps: DielectricPair,
    variant: BibeeVariant | None = None,
    tol: float = DEFAULT_GMRES_TOL,
) -> EnergyResult:
    """One-call BEM energy: exact GMRES solve to ``tol`` when ``variant`` is None."""
    rhs = coulomb_field_rhs(dist, surf, eps)
    if variant is None:
        sigma = exact_surface_charge(rhs, surf, eps, tol)
    else:
        sigma = bibee_surface_charge(rhs, eps, variant)
    return reaction_energy(sigma, surf, dist)
