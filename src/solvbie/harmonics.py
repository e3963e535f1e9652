"""Associated Legendre functions and multipole moments of interior charges.

Convention: the associated Legendre functions here exclude the
Condon-Shortley phase, and the (n-|m|)!/(n+|m|)! prefactor lives inside the
source moments.  Negative orders are handled by evaluating P at |m|, so for
real charge sets the moments satisfy E(n, -m) = conj(E(n, m)) and every
reconstructed interior potential is real up to roundoff.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .model import ChargeDistribution

#: Relative tolerance on the imaginary part of reconstructed potentials.
IMAG_TOL = 1e-9

KIND_SOURCE = "source"
KIND_REACTION = "reaction"


def assoc_legendre(n: int, m: int, x: float) -> float:
    """Unnormalized associated Legendre value P_n^m(x), no Condon-Shortley phase.

    Upward recurrence in n at fixed m (the numerically stable direction).
    """
    if n < 0 or m < 0 or m > n:
        raise DomainError(f"invalid Legendre degree/order (n={n}, m={m})")
    if abs(x) > 1:
        raise DomainError(f"Legendre argument out of range: {x}")
    return float(legendre_table(n, np.array([x]))[n, m, 0])


def legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """All P_n^m(x) for 0 <= m <= n <= n_max on an array of arguments.

    Returns an array of shape (n_max+1, n_max+1, len(x)); entries with
    m > n are zero.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1):
        raise DomainError("Legendre argument out of range [-1, 1]")
    p = np.zeros((n_max + 1, n_max + 1, x.size))
    p[0, 0] = 1.0
    if n_max == 0:
        return p
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))  # exactly 0 at x = +-1
    # Diagonal P_m^m = (2m-1)!! s^m and first superdiagonal.
    for m in range(1, n_max + 1):
        p[m, m] = (2 * m - 1) * s * p[m - 1, m - 1]
    for m in range(0, n_max):
        p[m + 1, m] = (2 * m + 1) * x * p[m, m]
    for m in range(0, n_max + 1):
        for n in range(m + 2, n_max + 1):
            p[n, m] = ((2 * n - 1) * x * p[n - 1, m] - (n + m - 1) * p[n - 2, m]) / (n - m)
    return p


def _factorial_ratio(n_max: int) -> np.ndarray:
    """Table of (n-m)!/(n+m)! for 0 <= m <= n <= n_max."""
    ratio = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        ratio[n, 0] = 1.0
        for m in range(1, n + 1):
            # (n-m)!/(n+m)! = previous / ((n+m)(n-m+1))
            ratio[n, m] = ratio[n, m - 1] / ((n + m) * (n - m + 1))
    return ratio


@dataclass(frozen=True)
class MultipoleCoefficients:
    """Triangular complex coefficient set indexed by (n, m), |m| <= n <= n_max.

    ``kind`` distinguishes source moments from reaction-field coefficients.
    Stored as a dense (n_max+1, 2*n_max+1) array with m offset by n_max;
    entries outside the triangle are zero.
    """

    n_max: int
    coeffs: np.ndarray
    kind: str

    def __post_init__(self):
        expected = (self.n_max + 1, 2 * self.n_max + 1)
        if self.coeffs.shape != expected:
            raise DomainError(f"coefficient array shape {self.coeffs.shape} != {expected}")
        if not np.all(np.isfinite(self.coeffs.view(float))):
            raise DomainError("non-finite multipole coefficients")
        self.coeffs.setflags(write=False)

    def get(self, n: int, m: int) -> complex:
        if abs(m) > n or n > self.n_max:
            raise DomainError(f"(n={n}, m={m}) outside coefficient triangle")
        return complex(self.coeffs[n, m + self.n_max])

    def __add__(self, other: "MultipoleCoefficients") -> "MultipoleCoefficients":
        if self.n_max != other.n_max or self.kind != other.kind:
            raise DomainError("cannot add mismatched coefficient sets")
        return MultipoleCoefficients(self.n_max, self.coeffs + other.coeffs, self.kind)


def _spherical_angles(positions: np.ndarray):
    """(r, cos(theta), phi) per charge; angles are zero for a charge at the origin."""
    r = np.linalg.norm(positions, axis=1)
    safe_r = np.where(r > 0, r, 1.0)
    cos_theta = np.where(r > 0, positions[:, 2] / safe_r, 1.0)
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    phi = np.arctan2(positions[:, 1], positions[:, 0])
    return r, cos_theta, phi


def source_moments(dist: ChargeDistribution, n_max: int) -> MultipoleCoefficients:
    """Multipole moments E_nm of a charge set about the cavity center.

    E_nm = sum_k q_k r_k^n (n-|m|)!/(n+|m|)! P_n^|m|(cos theta_k) exp(-i m phi_k).
    A charge exactly at the origin contributes only to E_00.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    pos = dist.positions()
    q = dist.magnitudes()
    r, cos_theta, phi = _spherical_angles(pos)

    at_origin = r == 0.0
    coeffs = np.zeros((n_max + 1, 2 * n_max + 1), dtype=complex)
    coeffs[0, n_max] = np.sum(q[at_origin])

    off = ~at_origin
    if np.any(off):
        qo, ro, co, po = q[off], r[off], cos_theta[off], phi[off]
        ptab = legendre_table(n_max, co)          # (n+1, m+1, K)
        ratio = _factorial_ratio(n_max)           # (n+1, m+1)
        rpow = ro[None, :] ** np.arange(n_max + 1)[:, None]   # (n+1, K)
        ms = np.arange(n_max + 1)
        phase = np.exp(-1j * ms[:, None] * po[None, :])       # (m+1, K)
        # E[n, m>=0] = sum_k q r^n ratio P phase
        weighted = q[off][None, None, :] * rpow[:, None, :] * ptab * phase[None, :, :]
        e_pos = np.einsum("nmk->nm", weighted) * ratio
        for n in range(n_max + 1):
            coeffs[n, n_max] += e_pos[n, 0]
            for m in range(1, n + 1):
                coeffs[n, n_max + m] += e_pos[n, m]
                coeffs[n, n_max - m] += np.conj(e_pos[n, m])
    return MultipoleCoefficients(n_max=n_max, coeffs=coeffs, kind=KIND_SOURCE)


def eval_interior_potential(b_coeffs: MultipoleCoefficients, point) -> float:
    """Reaction potential at an interior point, pre-Coulomb-constant units.

    psi = sum_nm B_nm r^n P_n^|m|(cos theta) exp(+i m phi), truncated at n_max.
    Raises ConsistencyError if the imaginary part is not negligible.
    """
    vals = eval_interior_potential_many(b_coeffs, np.asarray(point, dtype=float).reshape(1, 3))
    return float(vals[0])


def eval_interior_potential_many(b_coeffs: MultipoleCoefficients, points: np.ndarray) -> np.ndarray:
    """Vectorized reaction potential at several interior points."""
    if b_coeffs.kind != KIND_REACTION:
        raise DomainError("potential evaluation requires reaction coefficients")
    n_max = b_coeffs.n_max
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    r, cos_theta, phi = _spherical_angles(points)

    ptab = legendre_table(n_max, cos_theta)                   # (n+1, m+1, K)
    rpow = r[None, :] ** np.arange(n_max + 1)[:, None]        # (n+1, K)
    ms = np.arange(-n_max, n_max + 1)
    phase = np.exp(1j * ms[:, None] * phi[None, :])           # (2n+1, K)
    abs_m = np.abs(ms)
    # Angular factor for signed m uses P at |m|.
    pm = ptab[:, abs_m, :]                                    # (n+1, 2n+1, K)
    psi = np.einsum("nm,nk,nmk,mk->k", b_coeffs.coeffs, rpow, pm, phase)

    scale = np.abs(psi.real) + 1e-300
    worst = np.max(np.abs(psi.imag) / scale)
    if worst > IMAG_TOL:
        raise ConsistencyError(
            f"reconstructed potential has relative imaginary part {worst:.3e} "
            f"(> {IMAG_TOL}); moment/convention bug upstream"
        )
    return psi.real


def truncation_tail_estimate(dist: ChargeDistribution, b: float, n_max: int) -> float:
    """Geometric a-posteriori bound (kcal/mol) on the neglected series tail.

    Uses t = (max_k |r_k| / b)^2 and bounds the tail of the pairwise mode sum
    by k_e (sum|q|)^2 / b * t^(n_max+1) / (1 - t).  Valid as an upper bound of
    the true truncation error for eps_in >= 1 (constant 1; see tests).
    """
    from .model import COULOMB_KCAL

    r = np.linalg.norm(dist.positions(), axis=1)
    rmax = float(np.max(r))
    if rmax >= b:
        raise DomainError(f"charge at |r| = {rmax} not strictly inside b = {b}")
    t = (rmax / b) ** 2
    if t == 0.0:
        return 0.0
    gross = float(np.sum(np.abs(dist.magnitudes())))
    return COULOMB_KCAL * gross * gross / b * t ** (n_max + 1) / (1.0 - t)
