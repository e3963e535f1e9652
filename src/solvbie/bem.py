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
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConvergenceError, DomainError
from .mesh import PanelSurface, gauss_probe
from .model import COULOMB_KCAL, ChargeDistribution, DielectricPair, EnergyResult
from .sphere import BibeeVariant, _diagonal_solve

DEFAULT_GMRES_TOL = 1e-8
DEFAULT_GMRES_RESTART = 50
DEFAULT_GMRES_MAXITER = 500

#: Charges closer than this (Angstrom) to a panel centroid are rejected.
NEAR_SINGULARITY_DISTANCE = 1e-6


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


def _check_charges_interior(dist: ChargeDistribution, surf: PanelSurface):
    for k, pos in enumerate(dist.positions()):
        d = np.linalg.norm(surf.centroids - pos[None, :], axis=1)
        dmin = float(np.min(d))
        if dmin < NEAR_SINGULARITY_DISTANCE:
            raise DomainError(
                f"charge {k} within {dmin:g} Angstrom of a panel; refine or reposition"
            )
        if not gauss_probe(surf, pos) < -0.5:
            raise DomainError(f"charge {k} at {tuple(pos)} is not inside the surface")


def coulomb_field_rhs(
    dist: ChargeDistribution, surf: PanelSurface, eps: DielectricPair
) -> SurfaceField:
    """Right-hand side of the BIE at panel centroids.

    rhs_i = -eps_hat / eps_in * sum_k q_k n_i.(r_k - c_i) / (4 pi |c_i - r_k|^3)
    """
    _check_charges_interior(dist, surf)
    pos = dist.positions()
    q = dist.magnitudes()
    diff = pos[None, :, :] - surf.centroids[:, None, :]          # (T, Q, 3)
    r3 = np.sum(diff * diff, axis=2) ** 1.5
    ndot = np.einsum("td,tqd->tq", surf.normals, diff)
    values = -eps.eps_hat / eps.eps_in * (ndot / (4.0 * np.pi * r3)) @ q
    return SurfaceField(values=values, surface=surf)


def assemble_dstar(surf: PanelSurface) -> np.ndarray:
    """Dense discretization of the normal electric-field operator D*.

    Off-diagonal: D*[i, j] = A_j n_i.(c_j - c_i) / (4 pi |c_i - c_j|^3).
    Diagonal: fixed by the discrete Gauss identity so that the area-weighted
    transposed operator (the double layer) maps the constant density to -1/2
    at every panel.
    """
    c = surf.centroids
    n = surf.normals
    a = surf.areas
    t = surf.num_panels
    idx = np.arange(t)
    # Pairwise quantities via matmuls to avoid (T, T, 3) temporaries.
    gram = c @ c.T
    norms2 = np.einsum("id,id->i", c, c)
    inv4pir3 = norms2[:, None] + norms2[None, :] - 2.0 * gram  # squared distances
    del gram
    inv4pir3[idx, idx] = 1.0
    np.power(inv4pir3, 1.5, out=inv4pir3)
    np.reciprocal(inv4pir3, out=inv4pir3)
    inv4pir3 /= 4.0 * np.pi
    ndotc = n @ c.T           # ndotc[i, j] = n_i . c_j
    nci = ndotc[idx, idx].copy()
    # Double-layer kernel n_j.(c_i - c_j): accumulate the diagonal correction
    # before ndotc is overwritten.
    kdl = (ndotc.T - nci[None, :]) * inv4pir3
    kdl[idx, idx] = 0.0
    # Self term shared by both kernels at i = j: row sums of the discrete
    # double layer must equal -1/2 (solid-angle identity on the surface).
    diag = -0.5 - kdl @ a
    del kdl
    # Adjoint double-layer kernel n_i.(c_j - c_i), area-weighted columns.
    dstar = ndotc
    dstar -= nci[:, None]
    dstar *= inv4pir3
    dstar *= a[None, :]
    dstar[idx, idx] = diag
    return dstar


def dstar_spectrum_estimates(surf: PanelSurface, tol: float = 1e-5) -> dict:
    """Extremal and dipole-mode eigenvalue estimates of the discrete D*.

    D* is similar to sqrt(A) K sqrt(A) (K the bare kernel matrix), which is
    symmetric up to discretization error on a sphere; the symmetrized
    transform is fed to Lanczos.  Returns the smallest eigenvalue (near -1/2
    on spheres), the next distinct mode (the dipole, -1/6), and the largest
    (near 0).
    """
    from scipy.sparse.linalg import eigsh

    dstar = assemble_dstar(surf)
    sq = np.sqrt(surf.areas)
    m = dstar * (sq[:, None] / sq[None, :])
    m = 0.5 * (m + m.T)
    low = np.sort(eigsh(m, k=5, which="SA", tol=tol, return_eigenvectors=False))
    high = eigsh(m, k=1, which="LA", tol=max(tol, 1e-4), return_eigenvectors=False)
    return {
        "lowest": float(low[0]),
        "dipole": float(low[1]),
        "highest": float(high[0]),
    }


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

    Restarted GMRES on the dense D*, to relative residual ``tol``.
    """
    if not (0 < tol <= 1e-2):
        raise DomainError(f"GMRES tolerance must lie in (0, 1e-2], got {tol}")
    n = surf.num_panels
    dstar = assemble_dstar(surf)
    eps_hat = eps.eps_hat

    def apply_system(x):
        return x + eps_hat * (dstar @ x)

    op = LinearOperator((n, n), matvec=apply_system)
    density, info = gmres(
        op, rhs.values, rtol=tol, atol=0.0,
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
    pos = dist.positions()
    q = dist.magnitudes()
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
