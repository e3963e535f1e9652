"""Associated Legendre functions and multipole moments of interior charges.

Convention: the associated Legendre functions here exclude the
Condon-Shortley phase, and the (n-|m|)!/(n+|m|)! prefactor lives inside the
source moments.  Negative orders are handled by evaluating P at |m|, so for
real charge sets the moments satisfy E(n, -m) = conj(E(n, m)) and every
reconstructed interior potential is real up to roundoff.

``source_moments``, ``mode_spectrum`` and ``truncation_tail_estimate`` also
take a sequence of C charge sets, or such a sequence stacked once by
``_stack``, with one Legendre table over all charges, and then return
results with a leading axis of length C.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .model import COULOMB_KCAL, ChargeDistribution

#: Relative tolerance on the imaginary part of reconstructed potentials.
IMAG_TOL = 1e-9

KIND_SOURCE = "source"
KIND_REACTION = "reaction"


def legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """All P_n^m(x) for 0 <= m <= n <= n_max on an array of arguments.

    Returns an array of shape (n_max+1, n_max+1, len(x)); entries with
    m > n are zero.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1):
        raise DomainError("Legendre argument out of range [-1, 1]")
    try:
        p = np.zeros((n_max + 1, n_max + 1, x.size))
    except MemoryError:
        raise DomainError(
            f"Legendre table to n_max {n_max} at {x.size} points needs "
            f"{8 * (n_max + 1) ** 2 * x.size} bytes") from None
    p[0, 0] = 1.0
    if n_max == 0:
        return p
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))  # exactly 0 at x = +-1
    # Diagonal P_m^m = (2m-1)!! s^m, a running product, and first superdiagonal.
    m = np.arange(1, n_max + 1)
    p[m, m] = np.cumprod((2 * m - 1)[:, None] * s, axis=0)
    m = np.arange(n_max)
    p[m + 1, m] = (2 * m + 1)[:, None] * x * p[m, m]
    # Upward in n at fixed m, every order m <= n-2 of row n at once.
    for n in range(2, n_max + 1):
        m = np.arange(n - 1)[:, None]
        up, down = p[n - 1, :n - 1], p[n - 2, :n - 1]
        p[n, :n - 1] = ((2 * n - 1) * x * up - (n + m - 1) * down) / (n - m)
    return p


@functools.lru_cache(maxsize=8)
def _factorial_ratio(n_max: int) -> np.ndarray:
    """Read-only table of (n-m)!/(n+m)! for 0 <= m <= n <= n_max; entries with m > n are zero.

    Row n is 1 / ((n+1) n) / ((n+2)(n-1)) / ..., divided left to right along m.
    Built once per n_max (the last 8 are kept).
    """
    n, m = np.ogrid[:n_max + 1, :n_max + 1]
    steps = np.where((m >= 1) & (m <= n), (n + m) * (n - m + 1), 1).astype(float)
    ratio = np.tril(np.divide.accumulate(steps, axis=1))
    ratio.setflags(write=False)
    return ratio


@dataclass(frozen=True)
class MultipoleCoefficients:
    """Triangular complex coefficient set indexed by (n, m), |m| <= n <= n_max.

    ``kind`` distinguishes source moments from reaction-field coefficients.
    Stored as a dense (n_max+1, 2*n_max+1) array with m offset by n_max,
    after a leading configuration axis for a chunk of charge sets; entries
    outside the triangle are zero.
    """

    n_max: int
    coeffs: np.ndarray
    kind: str

    def __post_init__(self):
        expected = (self.n_max + 1, 2 * self.n_max + 1)
        if self.coeffs.shape[-2:] != expected or self.coeffs.ndim > 3:
            raise DomainError(f"coefficient array shape {self.coeffs.shape} != {expected}")
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError("non-finite multipole coefficients")
        self.coeffs.setflags(write=False)

    def get(self, n: int, m: int) -> complex:
        if self.coeffs.ndim == 3:
            raise DomainError("get needs one charge set's coefficients, not a chunk's")
        if abs(m) > n or n > self.n_max:
            raise DomainError(f"(n={n}, m={m}) outside coefficient triangle")
        return complex(self.coeffs[n, m + self.n_max])


def _spherical_angles(positions: np.ndarray):
    """(r, cos(theta), phi) per charge; angles are zero for a charge at the origin."""
    r = np.linalg.norm(positions, axis=1)
    safe_r = np.where(r > 0, r, 1.0)
    cos_theta = np.where(r > 0, positions[:, 2] / safe_r, 1.0)
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    phi = np.arctan2(positions[:, 1], positions[:, 0])
    return r, cos_theta, phi


def _stack(dist) -> tuple[np.ndarray, np.ndarray]:
    """Positions (C, Q, 3) and magnitudes (C, Q) of one charge set (C = 1) or a sequence.

    Shorter sets are padded with zero charges at the origin, which change no
    result.  A pair of arrays, a chunk stacked before, is returned as it is.
    """
    if isinstance(dist, tuple) and isinstance(dist[0], np.ndarray):
        return dist
    dists = [dist] if isinstance(dist, ChargeDistribution) else dist
    size = max(len(d) for d in dists)
    pos, q = np.zeros((len(dists), size, 3)), np.zeros((len(dists), size))
    for c, d in enumerate(dists):
        pos[c, :len(d)], q[c, :len(d)] = d.positions, d.magnitudes
    return pos, q


def source_moments(dist, n_max: int) -> MultipoleCoefficients:
    """Multipole moments E_nm of a charge set, or of each of a sequence, about the cavity center.

    E_nm = sum_k q_k r_k^n (n-|m|)!/(n+|m|)! P_n^|m|(cos theta_k) exp(-i m phi_k).
    A charge exactly at the origin contributes only to E_00 (0.0**0 == 1).
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    pos, q = _stack(dist)
    r, cos_theta, phi = _spherical_angles(pos.reshape(-1, 3))
    grid = (n_max + 1, *q.shape)
    ptab = legendre_table(n_max, cos_theta).reshape(n_max + 1, *grid)   # (n+1, m+1, C, Q)
    w = q * (r[None, :] ** np.arange(n_max + 1)[:, None]).reshape(grid)  # q r^n, (n+1, C, Q)
    phase = np.exp(-1j * np.arange(n_max + 1)[:, None] * phi[None, :]).reshape(grid)
    # Real and imaginary parts apart: the real table is never cast to complex.
    e_pos = np.empty((q.shape[0], n_max + 1, n_max + 1), dtype=complex)
    for part in ("real", "imag"):
        np.einsum("nmck,nck,mck->cnm", ptab, w, getattr(phase, part), out=getattr(e_pos, part))
    e_pos *= _factorial_ratio(n_max)
    # Columns m = -n_max..n_max; E(n, -m) = conj(E(n, m)).
    coeffs = np.concatenate([np.conj(e_pos[..., :0:-1]), e_pos], axis=-1)
    if isinstance(dist, ChargeDistribution):
        coeffs = coeffs[0]
    return MultipoleCoefficients(n_max=n_max, coeffs=coeffs, kind=KIND_SOURCE)


def mode_spectrum(e: MultipoleCoefficients) -> np.ndarray:
    """Per-mode power S_n = sum_m |E_nm|^2 (n+|m|)!/(n-|m|)!, n = 0..n_max.

    S_n depends on the charges alone (Kirkwood's addition theorem gives
    S_n = sum_ij q_i q_j (r_i r_j)^n P_n(cos gamma_ij)), so every series
    energy is (k_e/2) sum_n f_n S_n with a material factor f_n per mode.
    Moments of a chunk give spectra S of shape (C, n_max+1).
    """
    if e.kind != KIND_SOURCE:
        raise DomainError("mode spectrum requires source moments")
    ratio = _factorial_ratio(e.n_max)
    # A ratio that underflowed to 0 left its moment at 0; weight it 0, not inf.
    weight = np.divide(1.0, ratio, out=np.zeros_like(ratio), where=ratio > 0)
    abs_m = np.abs(np.arange(-e.n_max, e.n_max + 1))
    power = e.coeffs.real ** 2 + e.coeffs.imag ** 2
    return np.sum(power * weight[:, abs_m], axis=-1)


def eval_interior_potential_many(b_coeffs: MultipoleCoefficients, points: np.ndarray) -> np.ndarray:
    """Vectorized reaction potential at several interior points."""
    if b_coeffs.kind != KIND_REACTION:
        raise DomainError("potential evaluation requires reaction coefficients")
    if b_coeffs.coeffs.ndim == 3:
        raise DomainError("potential evaluation needs one charge set's coefficients, not a chunk's")
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


def truncation_tail_estimate(dist, b: float, n_max: int):
    """Geometric a-posteriori bound (kcal/mol) on the neglected series tail.

    Uses t = (max_k |r_k| / b)^2 and bounds the tail of the pairwise mode sum
    by k_e (sum|q|)^2 / b * t^(n_max+1) / (1 - t).  Valid as an upper bound of
    the true truncation error for eps_in >= 1 (constant 1; see tests).  A
    float for one charge set, a (C,) array for a sequence.
    """
    pos, q = _stack(dist)
    rmax = np.max(np.linalg.norm(pos, axis=-1), axis=-1)
    bad = np.nonzero(rmax >= b)[0]
    if bad.size:
        raise DomainError(f"charge at |r| = {float(rmax[bad[0]])} not strictly inside b = {b}")
    t = (rmax / b) ** 2
    gross = np.sum(np.abs(q), axis=-1)
    tail = COULOMB_KCAL * gross * gross / b * t ** (n_max + 1) / (1.0 - t)
    return float(tail[0]) if isinstance(dist, ChargeDistribution) else tail
