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


def _sq_dist_factors(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked columns L (m, 5) and R (5, n) with (L @ R)[i, j] = |x_i - y_j|^2.

    [x_i, |x_i|^2, 1].[-2 y_j, 1, |y_j|^2]: one GEMM gives every squared
    distance, with a rounding error of about 1e-16 (|x_i|^2 + |y_j|^2).
    """
    nx, ny = np.einsum("id,id->i", x, x), np.einsum("id,id->i", y, y)
    return (np.column_stack([x, nx, np.ones(len(x))]),
            np.column_stack([-2.0 * y, np.ones(len(y)), ny]).T)


def _charge_panel_geometry(dist: ChargeDistribution, surf: PanelSurface):
    """Squared charge-centroid distances r2 (T, Q) from one GEMM.

    Centroids and charges are first shifted by the mean centroid, so the
    rounding error of r2 is about 1e-16 times the squared size of the
    surface wherever it sits.  Each charge's nearest entry (argmin of r2)
    is recomputed in difference form, so that entry and the returned
    nearest distances dmin (Q,) are exact.  Also returns the shifted
    centroids and charges.
    """
    origin = surf.centroids.mean(axis=0)
    c, p = surf.centroids - origin, dist.positions - origin
    left, right = _sq_dist_factors(c, p)
    r2 = left @ right
    nearest, cols = np.argmin(r2, axis=0), np.arange(len(p))
    diff = dist.positions - surf.centroids[nearest]
    d2 = np.einsum("qd,qd->q", diff, diff)
    r2[nearest, cols] = d2
    return r2, np.sqrt(d2), c, p


def coulomb_field_rhs(
    dist: ChargeDistribution, surf: PanelSurface, eps: DielectricPair
) -> SurfaceField:
    """Right-hand side of the BIE at panel centroids.

    rhs_i = -eps_hat / eps_in * sum_k q_k n_i.(r_k - c_i) / (4 pi |c_i - r_k|^3)
    The kernel is two GEMMs in a frame centred on the mesh: r^2 from
    ``_charge_panel_geometry`` and the numerator from [n_i, -n_i.c_i].[r_k, 1].
    Its relative rounding error is about 1e-16 (size of the surface / r)^2
    per entry: below 1e-13 at 0.1 Angstrom from a centroid of a 5 Angstrom
    sphere, and exact (difference form) for each charge's nearest panel.
    The kernel's area-weighted column sums are the charges' Gauss probes
    (about -1 inside), so the same (T, Q) pass rejects exterior charges.
    """
    return _field_rhs(dist, surf, eps, _charge_panel_geometry(dist, surf))


def _field_rhs(dist, surf, eps, geometry) -> SurfaceField:
    """``coulomb_field_rhs`` from the output of ``_charge_panel_geometry``, left unchanged."""
    r2, dmin, c, p = geometry
    n = surf.normals
    kernel = np.column_stack([n, -np.einsum("td,td->t", n, c)]) @ (
        np.column_stack([p, np.ones(len(p))]).T / (4.0 * np.pi))
    with np.errstate(divide="ignore", invalid="ignore"):
        r3 = np.sqrt(r2)
        r3 *= r2
        kernel /= r3
    bad = np.nonzero((dmin < NEAR_SINGULARITY_DISTANCE) | ~(surf.areas @ kernel < -0.5))[0]
    if bad.size:
        k = bad[0]
        if dmin[k] < NEAR_SINGULARITY_DISTANCE:
            raise DomainError(
                f"charge {k} within {dmin[k]:g} Angstrom of a panel; refine or reposition")
        raise DomainError(
            f"charge {k} at {dist.positions[k].tolist()} is not inside the surface")
    values = -eps.eps_hat / eps.eps_in * (kernel @ dist.magnitudes)
    return SurfaceField(values=values, surface=surf)


def _row_blocks(t: int):
    """Row ranges [s, e) of a T x T float64 matrix, _BLOCK_BYTES per block."""
    rows = max(1, _BLOCK_BYTES // (8 * t))
    return [(s, min(s + rows, t)) for s in range(0, t, rows)]


def assemble_dstar(surf: PanelSurface) -> np.ndarray:
    """Dense discretization of the normal electric-field operator D*, freshly assembled.

    The solves take D* from ``PanelSurface.dstar``, which calls this once per
    surface and keeps the result.
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
    # One GEMM per factor: |c_i - c_j|^2 from _sq_dist_factors, and
    # A_j n_i.(c_j - c_i) / 4 pi = [n_i, -n_i.c_i].[c_j, 1] A_j / 4 pi.
    dist_l, dist_r = _sq_dist_factors(c, c)
    num_l = np.column_stack([n, -np.einsum("id,id->i", n, c)])
    num_r = np.column_stack([c, np.ones(t)]).T * (a / (4.0 * np.pi))
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
    rhs: SurfaceField, eps: DielectricPair, tol: float = DEFAULT_GMRES_TOL
) -> SurfaceCharge:
    """Solve (I + eps_hat D*) sigma = rhs on the surface of ``rhs``.

    Restarted GMRES on the surface's dense D* (``PanelSurface.dstar``), to
    relative residual ``tol``.  D* depends on the geometry alone, so the first
    exact solve on a surface assembles it and every later one, at any charges
    and any dielectric pair, reuses it.  Memory is that one 8 T^2-byte matrix,
    kept as long as the surface: 210 MB at 5120 panels, 3.4 GB at 20480.
    """
    if not (0 < tol <= 1e-2):
        raise DomainError(f"GMRES tolerance must lie in (0, 1e-2], got {tol}")
    dstar = rhs.surface.dstar
    eps_hat = eps.eps_hat
    last = [None, None]

    def apply_system(x):
        # gmres ends with a product at the x it returns; the residual below reuses it.
        if last[0] is None or not np.array_equal(last[0], x):
            last[:] = x.copy(), x + eps_hat * (dstar @ x)
        return last[1].copy()

    density, info = gmres(
        LinearOperator(dstar.shape, matvec=apply_system, dtype=float), rhs.values,
        rtol=tol, atol=0.0, restart=DEFAULT_GMRES_RESTART, maxiter=DEFAULT_GMRES_MAXITER,
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
        density=density, surface=rhs.surface, method="BEM-exact",
        metadata={"solver": "gmres", "residual": f"{residual:.3e}"})


def reaction_energy(sigma: SurfaceCharge, dist: ChargeDistribution) -> EnergyResult:
    """Reaction energy (k_e/2) sum_k q_k sum_j sigma_j A_j / |r_k - c_j| on sigma's surface.

    Computed as (k_e/2) q @ ((sigma A) @ (1 / sqrt(r2))) with r2 from
    ``_charge_panel_geometry``: relative rounding error about 1e-16
    (size of the surface / r)^2 per entry, exact for each nearest panel.
    """
    return _reaction_energy(sigma, dist, _charge_panel_geometry(dist, sigma.surface)[0])


def _reaction_energy(sigma, dist, r2) -> EnergyResult:
    """``reaction_energy`` from the squared distances r2 (T, Q), which it overwrites."""
    inv_r = r2
    np.sqrt(inv_r, out=inv_r)
    np.divide(1.0, inv_r, out=inv_r)
    psi = (sigma.density * sigma.surface.areas) @ inv_r
    value = 0.5 * COULOMB_KCAL * float(dist.magnitudes @ psi)
    return EnergyResult(value=value, method=sigma.method, metadata=dict(sigma.metadata))


def bem_energy(
    dist: ChargeDistribution,
    surf: PanelSurface,
    eps: DielectricPair,
    variant: BibeeVariant | None = None,
    tol: float = DEFAULT_GMRES_TOL,
) -> EnergyResult:
    """One-call BEM energy: exact GMRES solve to ``tol`` when ``variant`` is None.

    The exact solve uses ``surf.dstar``, assembled by the first exact solve on
    ``surf`` and reused by every later one.  The variants build no D*.
    """
    geometry = _charge_panel_geometry(dist, surf)
    rhs = _field_rhs(dist, surf, eps, geometry)
    if variant is None:
        sigma = exact_surface_charge(rhs, eps, tol)
    else:
        sigma = bibee_surface_charge(rhs, eps, variant)
    return _reaction_energy(sigma, dist, geometry[0])
