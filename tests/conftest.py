import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import solvbie as sv
from solvbie.bem import _row_blocks, assemble_dstar
from solvbie.errors import DomainError
from solvbie.harmonics import eval_interior_potential_many
from solvbie.mesh import build_surface
from solvbie.sphere import _gb_energies


@pytest.fixture(scope="session")
def sphere_meshes():
    """Icosphere refinement ladder at radius 5 Angstrom (320/1280/5120 panels)."""
    return {20 * 4 ** s: sv.icosphere(5.0, s) for s in (2, 3, 4)}


@pytest.fixture(scope="session")
def mesh_320(sphere_meshes):
    return sphere_meshes[320]


@pytest.fixture(scope="session")
def mesh_1280(sphere_meshes):
    return sphere_meshes[1280]


def random_ball_distribution(seed, index, count=25, radius=5.0, margin=0.95,
                             max_q=0.5):
    """Seeded random charges in a ball, independent of the experiments module."""
    rng = np.random.default_rng([seed, index])
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = margin * radius * rng.random(count) ** (1.0 / 3.0)
    q = rng.uniform(-max_q, max_q, count)
    return sv.make_distribution(dirs * r[:, None], q)


def chunk_of(dists):
    """Positions (C, Q, 3) and magnitudes (C, Q) of C charge sets of one size Q."""
    return np.stack([d.positions for d in dists]), np.stack([d.magnitudes for d in dists])


def rotate_about_z(dist, angle):
    """Rotate all charge positions about the z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return sv.make_distribution(dist.positions @ rot.T, dist.magnitudes, dist.label)


def scaled_surface(surf, factor):
    """Uniformly scaled copy of a surface."""
    return build_surface(surf.vertices * factor, surf.triangles.copy())


def summary_for(report, method):
    """The summary row of ``method`` in a comparison report."""
    for s in report.summaries:
        if s["method"] == method:
            return s
    raise KeyError(f"no summary for method {method!r}")


def mode_ratio(variant, n: int) -> float:
    """Approximate/exact coefficient ratio for mode n in the eps1/eps2 -> 0 limit.

    (n+1) / ((n+1/2)(1 - 2 lambda_n)), the eps_hat -> -2 limit of the factor
    ratio: (n+1)/(2n+1) for CFA, (n+1)/(n+1/2) for P, 1 for M at n = 0.
    """
    if n < 0:
        raise DomainError(f"mode index must be >= 0, got {n}")
    return (n + 1) / ((n + 0.5) * (1.0 - 2.0 * variant.lambdas(n)[n]))


def gb_still_energy(dist, params, eps):
    """Generalized-Born energy via the Still equation, kcal/mol: GBeps at alpha = 0.

    dG = -(k_e/2) (1/eps1 - 1/eps2) sum_ij q_i q_j / f_ij, double sum over
    all ordered pairs including the diagonal (f_ii = R_i).
    """
    (value,), = _gb_energies(*chunk_of([dist]), params.effective_radii[None],
                             params.electrostatic_radius, params.alpha, eps, ["gb"])
    return sv.EnergyResult(value=float(value), method="GB")


def gb_epsilon_energy(dist, params, eps):
    """GB energy with the dielectric-dependent alpha correction, kcal/mol.

    Collapses to the Still form when alpha = 0 or eps1/eps2 -> 0.
    """
    (value,), = _gb_energies(*chunk_of([dist]), params.effective_radii[None],
                             params.electrostatic_radius, params.alpha, eps, ["gbeps"])
    return sv.EnergyResult(value=float(value), method="GBeps")


def still_inverse_reference(dist, radii):
    """1/f_ij of the Still equation, one pair at a time from its difference vector."""
    pos = dist.positions
    inv = np.empty((len(dist), len(dist)))
    for i, j in np.ndindex(inv.shape):
        d2 = math.dist(pos[i], pos[j]) ** 2
        rr = radii[i] * radii[j]
        inv[i, j] = 1.0 / math.sqrt(d2 + rr * math.exp(-d2 / (4.0 * rr)))
    return inv


def eval_interior_potential(b_coeffs, point) -> float:
    """Reaction potential at an interior point, pre-Coulomb-constant units.

    psi = sum_{n, m>=0} Re(conj(B_nm) R_n^m), truncated at n_max, with R_n^m the
    seminormalized solid harmonics of ``solvbie.harmonics``.
    """
    vals = eval_interior_potential_many(b_coeffs, np.asarray(point, dtype=float).reshape(1, 3))
    return float(vals[0])


def dstar_spectrum_estimates(surf, tol: float = 1e-5) -> dict:
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
