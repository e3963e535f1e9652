"""Solid harmonics, multipole moments and reaction potentials of interior charges.

Convention: the associated Legendre functions here exclude the
Condon-Shortley phase, and the (n-|m|)!/(n+|m|)! prefactor lives inside the
source moments.  For real charge sets the moments satisfy
E(n, -m) = conj(E(n, m)), and every reconstructed interior potential is real
up to roundoff.  One recurrence computes the Legendre functions: that of the
Schmidt-seminormalized regular solid harmonics (``_solid_moments``), real,
with no trigonometry and no factorials.  The source moments, the
solid-harmonic spectrum and the potential at points all come from it.

``source_moments``, ``solid_spectrum``, ``pair_spectrum`` and
``truncation_tail_estimate`` also take a sequence of C charge sets, or such
a sequence stacked once by ``_stack``, and then return results with a
leading axis of length C.

The mode spectrum S_n of a charge set has two forms, equal up to rounding.
``solid_spectrum`` sums S_n = sum_{m>=0} |M_nm|^2 over the seminormalized
solid-harmonic moments, at a cost of order Q n_max^2 per set.
``pair_spectrum`` uses Kirkwood's addition theorem over the charge pairs,
S_n = sum_ij q_i q_j (r_i r_j)^n P_n(cos gamma_ij), at a cost of order
Q^2 n_max.  ``sphere.ensemble_energies`` takes the pairwise form for sets of
at most ``sphere.PAIR_CROSSOVER`` (n_max+1) charges and the solid-harmonic
form above.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .model import COULOMB_KCAL, ChargeDistribution

#: Relative tolerance on the imaginary part of reconstructed potentials.
IMAG_TOL = 1e-9

#: Natural log of the largest float: x^n overflows once n log x exceeds it.
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

KIND_SOURCE = "source"
KIND_REACTION = "reaction"


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


def _stack(dist) -> tuple[np.ndarray, np.ndarray]:
    """Positions (C, Q, 3) and magnitudes (C, Q) of one charge set (C = 1) or a sequence.

    Shorter sets are padded with zero charges at the origin.  They add
    nothing, but they change the summation order, so a padded set's
    spectrum can move in the last bits.  A pair of arrays, a chunk stacked
    before, is returned as it is.
    """
    if isinstance(dist, tuple) and isinstance(dist[0], np.ndarray):
        return dist
    dists = [dist] if isinstance(dist, ChargeDistribution) else dist
    size = max(len(d) for d in dists)
    pos, q = np.zeros((len(dists), size, 3)), np.zeros((len(dists), size))
    for c, d in enumerate(dists):
        pos[c, :len(d)], q[c, :len(d)] = d.positions, d.magnitudes
    return pos, q


@functools.lru_cache(maxsize=8)
def _solid_coefficients(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants (beta, g, c) of the scaled solid-harmonic recurrence to n_max.

    The recurrence of the Schmidt-seminormalized Pi_n^m (see ``_solid_moments``),

        Pi_n^m = ((2n-1) z Pi_{n-1}^m - sqrt((n-1)^2-m^2) r^2 Pi_{n-2}^m) / sqrt(n^2-m^2),

    runs on Pi_n^m / g_nm, with g_nm = prod_{j=m+1..n} (2j-1) / (2 sqrt(j^2-m^2)),
    which turns it into

        Phi_n^m = 2 z Phi_{n-1}^m - beta_nm r^2 Phi_{n-2}^m,
        beta_nm = 4 ((n-1)^2 - m^2) / ((2n-1)(2n-3)),

    with one multiplication fewer per entry; g stays within 1e-2 .. 1e193
    up to n_max 2000.  Phi_m^m = Pi_m^m = c_m, with c_0 = c_1 = 1 and
    c_m = c_{m-1} sqrt((2m-1)/(2m)).  beta is (n_max+1, n_max+1, 1), zero
    for m >= n-1; g is laid out (m, 1, n, 1) for the moments of
    ``_solid_moments`` and is 1 for m >= n.  Built once per n_max (the
    last 8 are kept).
    """
    n, m = np.ogrid[:n_max + 1, :n_max + 1]
    lower = m < n
    beta = np.where(m < n - 1, 4.0 * ((n - 1) ** 2 - m * m) / ((2 * n - 1) * (2 * n - 3)), 0.0)
    half_a = np.where(lower, (2 * n - 1) / (2 * np.sqrt(np.where(lower, n * n - m * m, 1))), 1.0)
    g = np.cumprod(half_a, axis=0)
    steps = np.arange(2, n_max + 1)
    c = np.concatenate([[1.0, 1.0], np.cumprod(np.sqrt((2 * steps - 1) / (2 * steps)))])
    out = beta[:, :, None], g.T[:, None, :, None].copy(), c[:n_max + 1]
    for array in out:
        array.setflags(write=False)
    return out


def _solid_moments(pos: np.ndarray, q: np.ndarray, n_max: int) -> np.ndarray:
    """Moments M_nm = sum_k q_k R_n^m(k) of stacked charge sets, as (m, C, n, [Re, Im]).

    R_n^m = u^m Pi_n^m, u = x + iy, are the regular solid harmonics
    r^n Pbar_n^m(cos theta) exp(i m phi), with Pbar_n^m = P_n^m
    sqrt((2 - delta_m0) (n-m)!/(n+m)!) Schmidt-seminormalized and without
    the Condon-Shortley phase.  Pi_n^m is a real polynomial in z and r^2;
    its scaled form Phi_n^m = Pi_n^m / g_nm (``_solid_coefficients``) runs
    upward in n for every m at once on one (n_max+1, n_max+1, C, Q) table.
    Each (m, set) then gives its moments from one matrix product of Phi
    against [Re, Im] of w_m = q u^m, scaled by g.  Entries with m > n are
    zero.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    c, k = q.shape
    try:
        table = np.zeros((n_max + 1, n_max + 1, c, k))
    except MemoryError:
        raise DomainError(
            f"solid harmonics to n_max {n_max} of {c} sets of {k} charges need "
            f"{8 * (n_max + 1) ** 2 * c * k} bytes") from None
    beta, g, sectoral = _solid_coefficients(n_max)
    # Charges of every set along one contiguous axis for the recurrence.
    flat = table.reshape(n_max + 1, n_max + 1, c * k)
    z2 = 2.0 * pos[..., 2].reshape(-1)
    r2 = np.sum(pos * pos, axis=-1).reshape(-1)
    orders = np.arange(n_max + 1)
    flat[orders, orders] = sectoral[:, None]
    if n_max >= 1:
        flat[1, 0] = z2  # Phi_1^0 = 2 z Phi_0^0
    scratch = np.empty((n_max, c * k))
    for n in range(2, n_max + 1):
        row, older = flat[n, :n], scratch[:n]
        np.multiply(flat[n - 1, :n], z2, out=row)
        np.multiply(flat[n - 2, :n], r2, out=older)
        older *= beta[n, :n]
        row -= older
    w = np.empty((n_max + 1, c, k), dtype=complex)
    w[0] = q
    w[1:] = pos[..., 0] + 1j * pos[..., 1]
    np.cumprod(w, axis=0, out=w)
    # (m, C) batches of (n x Q) (Q x 2) products; w viewed as float is [Re, Im] pairs.
    moments = np.matmul(table.transpose(1, 2, 0, 3), w.view(float).reshape(n_max + 1, c, k, 2))
    moments *= g
    return moments


def source_moments(dist, n_max: int) -> MultipoleCoefficients:
    """Multipole moments E_nm of a charge set, or of each of a sequence, about the cavity center.

    E_nm = sum_k q_k r_k^n (n-|m|)!/(n+|m|)! P_n^|m|(cos theta_k) exp(-i m phi_k),
    formed from the solid-harmonic moments M_nm of ``_solid_moments`` as
    E_nm = conj(M_nm) sqrt((n-|m|)!/((n+|m|)! (2 - delta_m0))).
    A charge exactly at the origin contributes only to E_00.
    """
    pos, q = _stack(dist)
    moments = _solid_moments(pos, q, n_max).transpose(1, 2, 0, 3)   # (C, n, m, [Re, Im])
    weight = _factorial_ratio(n_max).copy()
    weight[:, 1:] *= 0.5
    np.sqrt(weight, out=weight)
    e_pos = np.empty(moments.shape[:-1], dtype=complex)
    np.multiply(moments[..., 0], weight, out=e_pos.real)
    np.multiply(moments[..., 1], -weight, out=e_pos.imag)
    # Columns m = -n_max..n_max; E(n, -m) = conj(E(n, m)).
    coeffs = np.concatenate([np.conj(e_pos[..., :0:-1]), e_pos], axis=-1)
    if isinstance(dist, ChargeDistribution):
        coeffs = coeffs[0]
    return MultipoleCoefficients(n_max=n_max, coeffs=coeffs, kind=KIND_SOURCE)


def pair_spectrum(dist, n_max: int) -> np.ndarray:
    """Per-mode power S_n of a charge set, or of each of a sequence, from its charge pairs.

    Kirkwood's addition theorem gives S_n = sum_ij q_i q_j u_n[i, j] with
    u_n = (r_i r_j)^n P_n(cos gamma_ij), the spectrum of ``solid_spectrum``
    in the same units.  Over the Gram matrices G = P P^T of the positions
    and R_ij = r_i^2 r_j^2, the Legendre recurrence becomes

        u_n = ((2n-1) G o u_{n-1} - (n-1) R o u_{n-2}) / n,

    which runs here on w_n = q_i q_j u_n, in place on five (C, Q, Q)
    buffers.  R is built from the diagonal of G, so that the self pairs
    have cos gamma = 1 exactly.  Each S_n is one batched matrix product
    per set, so a set's spectrum does not depend on the other sets of a
    chunk of equal-sized sets.  From the first n at which r_max^(2n) of a
    set exceeds the float range its S_n are inf, and the recurrence stops
    once every set is there.
    Returns (n_max+1,) for one charge set and (C, n_max+1) for a sequence.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    pos, q = _stack(dist)
    c, k = q.shape
    try:
        gram, rr, older, old, new = np.empty((5, c, k, k))
    except MemoryError:
        raise DomainError(
            f"pair spectra of {c} sets of {k} charges need {40 * c * k * k} bytes") from None
    np.matmul(pos, pos.transpose(0, 2, 1), out=gram)
    r2 = gram.diagonal(axis1=1, axis2=2)
    np.multiply(r2[:, :, None], r2[:, None, :], out=rr)
    # (r_i r_j)^n leaves the float range from n = stop on; S_n is inf there.
    r2_max = r2.max(axis=1)
    past = np.log(np.maximum(r2_max, 1.0)) * n_max > _LOG_FLOAT_MAX
    stop = np.full(c, n_max + 1)
    stop[past] = _LOG_FLOAT_MAX // np.log(r2_max[past]) + 1
    # S_n = sum_ij w_n, one (1 x Q^2) (Q^2 x 1) product per set.
    spectra, ones = np.empty((n_max + 1, c, 1, 1)), np.ones((k * k, 1))
    np.multiply(q[:, :, None], q[:, None, :], out=older)
    np.matmul(older.reshape(c, 1, k * k), ones, out=spectra[0])
    if n_max >= 1:
        np.multiply(older, gram, out=old)
        np.matmul(old.reshape(c, 1, k * k), ones, out=spectra[1])
    stopping = set(stop[past].tolist())
    for n in range(2, stop.max()):
        if n in stopping:
            # A set past its range carries zeros from here on, which cannot overflow.
            old[stop == n] = older[stop == n] = 0.0
        np.multiply(old, gram, out=new)
        new *= (2 * n - 1) / n
        older *= rr
        older *= (n - 1) / n
        new -= older
        np.matmul(new.reshape(c, 1, k * k), ones, out=spectra[n])
        older, old, new = old, new, older
    spectra = spectra[:, :, 0, 0].T.copy()
    spectra[np.arange(n_max + 1) >= stop[:, None]] = np.inf
    return spectra[0] if isinstance(dist, ChargeDistribution) else spectra


def solid_spectrum(dist, n_max: int) -> np.ndarray:
    """Per-mode power S_n of a charge set, or of each of a sequence, from its solid-harmonic moments.

    With the Schmidt-seminormalized moments M_nm of ``_solid_moments`` the
    addition theorem gives S_n = sum_{m>=0} |M_nm|^2 (the 2 - delta_m0
    weight is inside the normalization): the spectrum of ``pair_spectrum``
    in the same units, at a cost of order Q n_max^2 per set, with no
    trigonometry and no factorials.  Each set's moments are their own
    matrix products, so a set's spectrum does not depend on the other sets
    of a chunk of equal-sized sets.  Returns (n_max+1,) for one charge set
    and (C, n_max+1) for a sequence.
    """
    pos, q = _stack(dist)
    moments = _solid_moments(pos, q, n_max)
    np.square(moments, out=moments)
    spectra = moments.sum(axis=-1).sum(axis=0)
    return spectra[0] if isinstance(dist, ChargeDistribution) else spectra


def eval_interior_potential_many(b_coeffs: MultipoleCoefficients, points: np.ndarray) -> np.ndarray:
    """Reaction potential psi = sum_nm B_nm r^n P_n^|m|(cos theta) exp(i m phi) at interior points.

    Each point is one unit charge for ``_solid_moments``.  Where the weight of
    its R_n^m underflows, a zero B_nm adds nothing and any other is a DomainError.
    """
    if b_coeffs.kind != KIND_REACTION:
        raise DomainError("potential evaluation requires reaction coefficients")
    if b_coeffs.coeffs.ndim == 3:
        raise DomainError("potential evaluation needs one charge set's coefficients, not a chunk's")
    n_max = b_coeffs.n_max
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(points)):
        raise DomainError("non-finite potential evaluation point")
    solid = _solid_moments(points[:, None], np.ones((len(points), 1)), n_max)  # (m, K, n, [Re, Im])
    up, down = b_coeffs.coeffs[:, n_max:], b_coeffs.coeffs[:, n_max::-1]  # B(n, m), B(n, -m)
    # R_n^m carries the weight sqrt((2 - delta_m0) (n-m)!/(n+m)!), and
    # B R + B' conj(R) = (B + B') Re R + i (B - B') Im R over m >= 0 counts B(n, 0) twice.
    coef = np.stack([up + down, 1j * (up - down)], axis=-1)  # (n, m, [Re, Im])
    w = np.sqrt(2.0 * _factorial_ratio(n_max))
    w[:, 0] = 2.0
    inv_w = np.divide(1.0, w, out=np.full_like(w, np.inf), where=w > 0)
    parts = coef.view(float)   # (n, m, [Re, Im] of R, [Re, Im] of psi)
    np.multiply(parts, inv_w[:, :, None], out=parts, where=parts != 0)
    # Per m, a (K x 2n) (2n x 2) product; psi as [Re, Im] pairs, summed over m.
    terms = np.matmul(solid.reshape(n_max + 1, len(points), 2 * n_max + 2),
                      parts.transpose(1, 0, 2).reshape(n_max + 1, -1, 2))
    psi = terms.sum(axis=0).view(complex)[:, 0]
    if not np.all(np.isfinite(psi)):
        raise DomainError(f"non-finite reaction potential at n_max {n_max}")
    worst = np.max(np.abs(psi.imag) / (np.abs(psi.real) + 1e-300), initial=0.0)
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
