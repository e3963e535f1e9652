"""Boundary-element reference solver on triangulated surfaces.

Discretizes the induced-surface-charge integral equation

    (I + eps_hat D*) sigma = rhs

by centroid collocation with one-point quadrature.  The operator kernels
carry the 1/(4 pi) normalization, under which the constant surface density
on a sphere is an eigenvector of D* with eigenvalue -1/2.  The right-hand
side is the (negated, eps_hat-scaled) normal component of the Coulomb field
of the interior charges screened by eps_in, and sigma comes out as a true
charge density (e/Angstrom^2), so the reaction potential is the plain
Coulomb sum over panels.  A solve is two stages: one charge-panel pass gives
the geometry-only panel vectors (g, h) (``panel_vectors``), and an O(T)
material step the energy at any variant and dielectric pair
(``material_energy``), the exact solve aside.  Its surface-charge solves,
``exact_surface_charge`` and ``bibee_surface_charge``, take the right-hand
side as a plain (T,) array beside its surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .mesh import PanelSurface
from .model import COULOMB_KCAL, ChargeDistribution, DielectricPair, EnergyResult, allocate
from .sphere import BibeeVariant, _diagonal_solve

DEFAULT_GMRES_TOL = 1e-8
DEFAULT_GMRES_RESTART = 50
DEFAULT_GMRES_MAXITER = 500

#: Charges closer than this (Angstrom) to a panel centroid are rejected.
NEAR_SINGULARITY_DISTANCE = 1e-6

#: Bytes per row-block temporary in D* assembly; a block stays in L2 cache.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SurfaceCharge:
    """Per-panel induced charge density sigma with its producing method."""

    density: np.ndarray
    method: str
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
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


def panel_vectors(dist: ChargeDistribution, surf: PanelSurface) -> tuple[np.ndarray, np.ndarray]:
    """The charges' geometry-only panel vectors (g, h), read-only (T,) each, from one (T, Q) pass.

    g_i = sum_k q_k n_i.(r_k - c_i) / (4 pi |c_i - r_k|^3) is the normal field
    at the centroids (the BIE right-hand side is -eps_hat/eps_in g) and
    h_i = A_i sum_k q_k / |c_i - r_k| weighs sigma in the reaction energy
    (k_e/2) sigma.h, so one pass serves every variant, lambda and dielectric
    pair.  In a frame centred on the mesh, r^2 and the numerators are two
    GEMMs, [c_i, |c_i|^2, 1].[-2 r_k, 1, |r_k|^2] and [n_i, -n_i.c_i].[r_k, 1],
    with a relative rounding error of about 1e-16 (size of the surface / r)^2
    per entry, exact (difference form) for each charge's nearest panel.  The
    field kernel's area-weighted column sums are the Gauss probes (about -1
    inside): the first charge within NEAR_SINGULARITY_DISTANCE of a centroid
    or outside the surface is rejected, and so is a g or h that overflows.
    Its three (T, Q) arrays (24 T Q bytes) that do not fit in memory are a DomainError.
    """
    origin = surf.centroids.mean(axis=0)
    c, p = surf.centroids - origin, dist.positions - origin
    t, q = len(c), len(p)
    r2, kernel, r = allocate(f"charge-panel pass of {t} panels and {q} charges needs",
                             (t, q), (t, q), (t, q))
    np.matmul(*_sq_dist_factors(c, p), out=r2)
    nearest, cols = np.argmin(r2, axis=0), np.arange(q)
    diff = dist.positions - surf.centroids[nearest]
    d2 = np.einsum("qd,qd->q", diff, diff)
    r2[nearest, cols] = d2
    dmin, n = np.sqrt(d2), surf.normals
    np.matmul(np.column_stack([n, -np.einsum("td,td->t", n, c)]),
              np.column_stack([p, np.ones(q)]).T / (4.0 * np.pi), out=kernel)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(r2, out=r)
        r2 *= r
        kernel /= r2
    bad = np.nonzero((dmin < NEAR_SINGULARITY_DISTANCE) | ~(surf.areas @ kernel < -0.5))[0]
    if bad.size:
        k = bad[0]
        if dmin[k] < NEAR_SINGULARITY_DISTANCE:
            raise DomainError(
                f"charge {k} within {dmin[k]:g} Angstrom of a panel; refine or reposition")
        raise DomainError(
            f"charge {k} at {dist.positions[k].tolist()} is not inside the surface")
    np.divide(1.0, r, out=r)
    with np.errstate(over="ignore", invalid="ignore"):
        g, h = kernel @ dist.magnitudes, surf.areas * (r @ dist.magnitudes)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise DomainError("non-finite surface field or potential values")
    g.setflags(write=False)
    h.setflags(write=False)
    return g, h


def _row_blocks(t: int):
    """Row ranges [s, e) of a T x T float64 matrix, _BLOCK_BYTES per block."""
    rows = max(1, _BLOCK_BYTES // (8 * t))
    return [(s, min(s + rows, t)) for s in range(0, t, rows)]


def assemble_dstar(surf: PanelSurface, out: np.ndarray | None = None) -> np.ndarray:
    """Dense discretization of the normal electric-field operator D*, assembled into ``out``.

    The solves take D* from ``PanelSurface.dstar``, which calls this once per
    surface and keeps the result.
    Off-diagonal: D*[i, j] = A_j n_i.(c_j - c_i) / (4 pi |c_i - c_j|^3).
    Diagonal: fixed by the discrete Gauss identity so that the area-weighted
    transposed operator (the double layer) maps the constant density to -1/2
    at every panel: sum_j A_j D*[j, i] = -A_i / 2.  The result, 8 T^2 bytes
    (210 MB at 5120 panels), is the one T x T allocation: rows are filled
    in blocks of _BLOCK_BYTES.  DomainError if it cannot be allocated.
    ``out``, a writeable C-contiguous float64 (T, T) array, is overwritten
    in full and returned instead: storage whose pages are already touched
    saves the kernel's zeroing and page faults of a fresh 8 T^2 bytes, and
    the entries are those of a fresh assembly, bit for bit.
    """
    t = surf.num_panels
    if out is None:
        (out,) = allocate(f"dense D* for {t} panels needs", (t, t))
    elif not (out.shape == (t, t) and out.dtype == np.float64
              and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 ({t}, {t}) array")
    dstar = out
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


def _check_rhs(rhs: np.ndarray, surf: PanelSurface):
    """DomainError unless ``rhs`` is a finite (T,) array, T the panels of ``surf``."""
    if np.shape(rhs) != (surf.num_panels,):
        raise DomainError(f"right-hand side of shape {np.shape(rhs)}, not ({surf.num_panels},)")
    if not np.all(np.isfinite(rhs)):
        raise DomainError("non-finite surface field values")


def bibee_surface_charge(rhs: np.ndarray, surf: PanelSurface, eps: DielectricPair,
                         variant: BibeeVariant) -> SurfaceCharge:
    """Diagonal-approximation surface charge from the (T,) BIE right-hand side on ``surf``.

    sigma = rhs / (1 + eps_hat lambda) with the variant's eigenvalues: the
    area-weighted mean of rhs (the mesh's n = 0 mode) takes lambda_0 and
    the remainder lambda_n for n >= 1.  CFA: lambda = -1/2; P: 0 (sigma is
    rhs); Lambda: lambda; M: lambda_0 = -1/2 and lambda elsewhere.  An rhs
    that is not a finite (T,) array is a DomainError.
    """
    _check_rhs(rhs, surf)
    lam0, lam = variant.lambdas(1)
    if lam0 == lam:
        density = _diagonal_solve(rhs, eps, lam)
    else:
        mean = float(np.sum(surf.areas * rhs) / np.sum(surf.areas))
        density = _diagonal_solve(mean, eps, lam0) + _diagonal_solve(rhs - mean, eps, lam)
    return SurfaceCharge(density=density, method=f"BEM-{variant.method_name()}")


def _restarted_gmres(apply, b, tol, restart, max_products):
    """Restarted GMRES (Saad & Schultz 1986) for apply(x) = b from x = 0.

    Each cycle builds an orthonormal Krylov basis, rows of a (restart+1, T)
    array, by Arnoldi steps with classical Gram-Schmidt run twice (CGS2), and
    reduces the small least-squares problem with Givens rotations.  It ends
    when the rotated residual reaches tol ||b||, at ``restart`` steps, at an
    exact (breakdown) step or where only the closing product is left of the
    budget.  It then updates x by back-substitution and forms the true
    residual b - apply(x), which is tested against tol ||b|| and starts the
    next cycle.  Every call of ``apply`` counts against ``max_products``.
    Returns x, ||b - apply(x)||, that residual relative to ||b|| and the
    number of products; b = 0 gives 0 with no product.  The solve runs on b
    2^-e, e the binary exponent of max|b| (max|b 2^-e| in [0.5, 1)), which
    changes no bits and keeps ||b|| from overflowing or underflowing up to
    the top binade of the float range.
    """
    e = int(np.frexp(np.max(np.abs(b)))[1])
    r = b = np.ldexp(b, -e)
    x = np.zeros_like(b)
    rnorm = bnorm = float(np.linalg.norm(b))
    target, products = tol * bnorm, 0
    basis = np.empty((min(restart, len(b)) + 1, len(b)))
    while not rnorm <= target and products + 2 <= max_products:
        steps = min(len(basis) - 1, max_products - products - 1)
        hess = np.zeros((steps, steps + 1))  # row j: column j of the Hessenberg matrix
        rot = np.zeros((steps, 2))
        g = np.zeros(steps + 1)
        g[0] = rnorm
        basis[0] = r / rnorm
        for j in range(steps):
            w = apply(basis[j])
            products += 1
            wnorm, v = float(np.linalg.norm(w)), basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            col = hess[j]
            col[:j + 1] = h + h2
            col[j + 1] = np.linalg.norm(w)
            breakdown = col[j + 1] <= np.finfo(float).eps * wnorm
            if not breakdown:
                basis[j + 1] = w / col[j + 1]
            for i, (c, s) in enumerate(rot[:j]):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = np.hypot(col[j], col[j + 1])
            rot[j] = col[j] / rho, col[j + 1] / rho
            col[j], col[j + 1] = rho, 0.0
            g[j], g[j + 1] = rot[j, 0] * g[j], -rot[j, 1] * g[j]
            if abs(g[j + 1]) <= target or breakdown:
                break
        k = j + 1
        x += np.linalg.solve(hess[:k, :k].T, g[:k]) @ basis[:k]
        r = b - apply(x)
        products += 1
        rnorm = float(np.linalg.norm(r))
    return np.ldexp(x, e), math.ldexp(rnorm, e), rnorm / bnorm if bnorm else 0.0, products


def exact_surface_charge(rhs: np.ndarray, surf: PanelSurface, eps: DielectricPair,
                         tol: float = DEFAULT_GMRES_TOL) -> SurfaceCharge:
    """Solve (I + eps_hat D*) sigma = rhs, rhs a finite (T,) array, on ``surf``.

    Restarted GMRES (``_restarted_gmres``, restart ``DEFAULT_GMRES_RESTART``)
    on the surface's dense D* (``PanelSurface.dstar``), until the true
    relative residual ||rhs - (I + eps_hat D*) sigma|| / ||rhs|| is at most
    ``tol``.  ``DEFAULT_GMRES_MAXITER`` caps the dense products D* x of the
    solve, one per Arnoldi step and one per restart cycle for its true
    residual; ConvergenceError (exit 5) names the products and the relative
    residual when the cap is reached first.  A zero rhs gives sigma = 0 with
    no product and no D*.  D* depends on the geometry alone, so the first
    product on a surface assembles it and every later one, at any charges
    and any dielectric pair, reuses it.  Memory is that one 8 T^2-byte
    matrix, kept as long as the surface: 210 MB at 5120 panels, 3.4 GB at
    20480, plus the (restart+1, T) basis.  ``PanelSurface.dstar`` allocates
    that storage afresh; only the CLI, on a new mesh of the same panel
    count, assembles a surface's D* into the storage of the surface it
    drops (``PanelSurface.reuse_dstar``).  An rhs that is not a finite (T,)
    array is a DomainError before any product.
    """
    _check_rhs(rhs, surf)
    if not (0 < tol <= 1e-2):
        raise DomainError(f"GMRES tolerance must lie in (0, 1e-2], got {tol}")
    eps_hat = eps.eps_hat
    density, residual, relative, products = _restarted_gmres(
        lambda x: x + eps_hat * (surf.dstar @ x), rhs, tol,
        DEFAULT_GMRES_RESTART, DEFAULT_GMRES_MAXITER)
    if not relative <= tol:
        raise ConvergenceError(
            f"GMRES did not converge within {DEFAULT_GMRES_MAXITER} dense products "
            f"(relative residual {relative:.3e} after {products})",
            residual=residual)
    return SurfaceCharge(density=density, method="BEM-exact",
                         metadata={"solver": "gmres", "residual": f"{residual:.3e}"})


def material_energy(g: np.ndarray, h: np.ndarray, surf: PanelSurface, eps: DielectricPair,
                    variant: BibeeVariant | None = None,
                    tol: float = DEFAULT_GMRES_TOL) -> EnergyResult:
    """BEM energy of the charges whose ``panel_vectors`` on ``surf`` are (g, h), at ``eps``.

    rhs = -eps_hat/eps_in g; sigma from ``exact_surface_charge`` to ``tol``
    when ``variant`` is None, else from ``bibee_surface_charge``; the energy
    is (k_e/2) sigma.h.  O(T) work but for the exact solve.  An rhs or
    energy that overflows is a DomainError.
    """
    with np.errstate(over="ignore"):
        rhs = -eps.eps_hat / eps.eps_in * g
    if variant is None:
        sigma = exact_surface_charge(rhs, surf, eps, tol)
    else:
        sigma = bibee_surface_charge(rhs, surf, eps, variant)
    with np.errstate(over="ignore", invalid="ignore"):
        value = 0.5 * COULOMB_KCAL * float(sigma.density @ h)
    return EnergyResult(value=value, method=sigma.method, metadata=dict(sigma.metadata))


def bem_energy(dist: ChargeDistribution, surf: PanelSurface, eps: DielectricPair,
               variant: BibeeVariant | None = None,
               tol: float = DEFAULT_GMRES_TOL) -> EnergyResult:
    """One-call BEM energy: exact GMRES solve to ``tol`` when ``variant`` is None.

    The charge-panel pass (``panel_vectors``) gives the geometry-only (g, h),
    and ``material_energy`` the energy from them.  The exact solve uses
    ``surf.dstar``, assembled by the first exact solve on ``surf`` and reused
    by every later one.  The variants build no D*.
    """
    return material_energy(*panel_vectors(dist, surf), surf, eps, variant, tol)
