"""Solid harmonics, multipole moments and mode spectra of interior charges.

Convention: one normalization throughout, the Schmidt-seminormalized
regular solid harmonics R_n^m = r^n Pbar_n^m(cos theta) exp(i m phi) without
the Condon-Shortley phase, Pbar_n^m = P_n^m sqrt((2 - delta_m0) (n-m)!/(n+m)!).
A charge set's moments are M_nm = sum_k q_k R_n^m(x_k) for 0 <= m <= n; for
real charges M(n, -m) = conj(M(n, m)), so the m < 0 half is not stored.  One
recurrence computes the R_n^m (``_solid_table``), real and with no
trigonometry.  The source moments, the solid-harmonic spectrum and
``sphere.reaction_potential`` at points all come from it.

``solid_spectrum``, ``pair_spectrum`` and ``truncation_tail_estimate`` take a
chunk of C sets of Q charges, positions (C, Q, 3) and magnitudes (C, Q), and
return results with a leading axis of length C.  The two spectra take the
positions in units of the cavity radius b, strictly inside |r| = 1, where
no power r^n can overflow.  ``source_moments`` takes one charge set in its
own units and returns its moments as one complex array indexed [n, m].

The mode spectrum S_n of a charge set has two forms, equal up to rounding.
``solid_spectrum`` sums S_n = sum_{m>=0} |M_nm|^2 over the moments, at a
cost of order Q n_max^2 per set.  ``pair_spectrum`` uses Kirkwood's
addition theorem over the charge pairs, S_n = sum_ij q_i q_j (r_i r_j)^n
P_n(cos gamma_ij), at a cost of order Q^2 n_max.
``sphere.ensemble_energies`` takes the pairwise form for sets of at most
``sphere.PAIR_CROSSOVER`` (n_max+1) charges and the solid-harmonic form above.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError
from .model import COULOMB_KCAL, ChargeDistribution


@functools.lru_cache(maxsize=8)
def _solid_coefficients(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants (beta, g, c) of the scaled solid-harmonic recurrence to n_max.

    The recurrence of the Schmidt-seminormalized Pi_n^m (see ``_solid_table``),

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


def _solid_table(pos: np.ndarray, n_max: int) -> np.ndarray:
    """Scaled solid harmonics Phi_n^m = Pi_n^m / g_nm at positions (C, Q, 3), as (n, m, C, Q).

    R_n^m = u^m Pi_n^m, u = x + iy, are the regular solid harmonics of the
    module's convention.  Pi_n^m is a real polynomial in z and r^2; its
    scaled form Phi_n^m (``_solid_coefficients``) runs upward in n for
    every m at once on one (n_max+1, n_max+1, C, Q) table.  Entries with
    m > n are zero.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    c, k = pos.shape[:2]
    try:
        table = np.zeros((n_max + 1, n_max + 1, c, k))
    except MemoryError:
        raise DomainError(
            f"solid harmonics to n_max {n_max} of {c} sets of {k} charges need "
            f"{8 * (n_max + 1) ** 2 * c * k} bytes") from None
    beta, _, sectoral = _solid_coefficients(n_max)
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
    return table


def _solid_moments(pos: np.ndarray, q: np.ndarray, n_max: int) -> np.ndarray:
    """Moments M_nm = sum_k q_k R_n^m(k) of stacked charge sets, as (m, C, n, [Re, Im]).

    Each (m, set) gives its moments from one matrix product of the table of
    ``_solid_table`` against [Re, Im] of w_m = q u^m, scaled by g.
    Entries with m > n are zero.
    """
    table = _solid_table(pos, n_max)
    c, k = q.shape
    w = np.empty((n_max + 1, c, k), dtype=complex)
    w[0] = q
    w[1:] = pos[..., 0] + 1j * pos[..., 1]
    np.cumprod(w, axis=0, out=w)
    # (m, C) batches of (n x Q) (Q x 2) products; w viewed as float is [Re, Im] pairs.
    moments = np.matmul(table.transpose(1, 2, 0, 3), w.view(float).reshape(n_max + 1, c, k, 2))
    moments *= _solid_coefficients(n_max)[1]
    return moments


def source_moments(dist: ChargeDistribution, n_max: int) -> np.ndarray:
    """Moments M_nm = sum_k q_k R_n^m(x_k), 0 <= m <= n, of one charge set about the cavity center.

    R_n^m are the seminormalized solid harmonics of the module's convention.
    The result is a read-only complex (n_max+1, n_max+1) array indexed
    [n, m], zero for m > n.  A charge exactly at the origin contributes
    only to M_00.
    """
    if not isinstance(dist, ChargeDistribution):
        raise DomainError("source moments are of one charge set, not a sequence")
    # Moments past the float range are inf or nan; the check below reports them.
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _solid_moments(dist.positions[None], dist.magnitudes[None], n_max)[:, 0]
    moments = np.ascontiguousarray(moments.view(complex)[..., 0].T)
    if not np.all(np.isfinite(moments)):
        raise DomainError("non-finite multipole moments")
    moments.setflags(write=False)
    return moments


def _scaled_charges(pos: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Charges q 2^-e of a chunk and e (C, 1), the binary exponent of each set's max|q|.

    S_n is quadratic in q, so a spectrum taken from q 2^-e and scaled back
    by 2^(2e) is the same bit for bit wherever the float range holds it, and
    where S_n is subnormal it is rounded once, at the end, instead of in
    every product of two small charges.  Positions (C, Q, 3) are in units of
    the cavity radius b, so that no power r^n overflows: |r| >= 1 is a DomainError.
    """
    with np.errstate(over="ignore"):
        r2 = np.max(np.sum(pos * pos, axis=-1), initial=0.0)
    if not r2 < 1.0:
        raise DomainError(f"charge at |r| = {np.sqrt(r2):g} b not strictly inside the cavity")
    e = np.frexp(np.max(np.abs(q), axis=-1, initial=0.0))[1][:, None]
    return np.ldexp(q, -e), e


def pair_spectrum(pos: np.ndarray, q: np.ndarray, n_max: int) -> np.ndarray:
    """Per-mode power S_n (C, n_max+1) of each charge set of a chunk, from its charge pairs.

    Kirkwood's addition theorem gives S_n = sum_ij q_i q_j u_n[i, j] with
    u_n = (r_i r_j)^n P_n(cos gamma_ij), the spectrum of ``solid_spectrum``
    in the same units.  Over the Gram matrices G = P P^T of the positions
    and R_ij = r_i^2 r_j^2, the Legendre recurrence becomes

        u_n = ((2n-1) G o u_{n-1} - (n-1) R o u_{n-2}) / n,

    which runs here on w_n = q_i q_j u_n, in place on five (C, Q, Q)
    buffers.  R is built from the diagonal of G, so that the self pairs
    have cos gamma = 1 exactly.  Each S_n is one batched matrix product
    per set, so a set's spectrum does not depend on the other sets of its
    chunk.  The recurrence runs on the ``_scaled_charges`` of each set, at
    |r| < 1, where |u_n| <= 1 at every n.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    q, e = _scaled_charges(pos, q)
    c, k = q.shape
    try:
        gram, rr, older, old, new = np.empty((5, c, k, k))
        spectra = np.empty((n_max + 1, c, 1, 1))
    except MemoryError:
        raise DomainError(f"pair spectra to n_max {n_max} of {c} sets of {k} charges need "
                          f"{8 * c * (5 * k * k + n_max + 1)} bytes") from None
    np.matmul(pos, pos.transpose(0, 2, 1), out=gram)
    r2 = gram.diagonal(axis1=1, axis2=2)
    np.multiply(r2[:, :, None], r2[:, None, :], out=rr)
    # S_n = sum_ij w_n, one (1 x Q^2) (Q^2 x 1) product per set.
    ones = np.ones((k * k, 1))
    np.multiply(q[:, :, None], q[:, None, :], out=older)
    np.matmul(older.reshape(c, 1, k * k), ones, out=spectra[0])
    if n_max >= 1:
        np.multiply(older, gram, out=old)
        np.matmul(old.reshape(c, 1, k * k), ones, out=spectra[1])
    for n in range(2, n_max + 1):
        np.multiply(old, gram, out=new)
        new *= (2 * n - 1) / n
        older *= rr
        older *= (n - 1) / n
        new -= older
        np.matmul(new.reshape(c, 1, k * k), ones, out=spectra[n])
        older, old, new = old, new, older
    return np.ldexp(spectra[:, :, 0, 0].T.copy(), 2 * e)


def solid_spectrum(pos: np.ndarray, q: np.ndarray, n_max: int) -> np.ndarray:
    """Per-mode power S_n (C, n_max+1) of each charge set of a chunk, from its moments.

    With the Schmidt-seminormalized moments M_nm of ``_solid_moments`` the
    addition theorem gives S_n = sum_{m>=0} |M_nm|^2 (the 2 - delta_m0
    weight is inside the normalization): the spectrum of ``pair_spectrum``
    in the same units, at a cost of order Q n_max^2 per set, with no
    trigonometry.  Each set's moments are their own matrix products, so a
    set's spectrum does not depend on the other sets of its chunk.  The
    moments are of the ``_scaled_charges`` of each set, at |r| < 1.
    """
    q, e = _scaled_charges(pos, q)
    moments = _solid_moments(pos, q, n_max)
    np.square(moments, out=moments)
    return np.ldexp(moments.sum(axis=-1).sum(axis=0), 2 * e)


def truncation_tail_estimate(pos: np.ndarray, q: np.ndarray, b: float, n_max: int) -> np.ndarray:
    """Geometric a-posteriori bound (kcal/mol) on the neglected series tail, per set of a chunk.

    Uses t = (max_k |r_k| / b)^2 and bounds the tail of the pairwise mode sum
    by k_e (sum|q|)^2 / b * t^(n_max+1) / (1 - t).  Valid as an upper bound of
    the true truncation error for eps_in >= 1 (constant 1; see tests).
    Returns (C,), finite wherever the bound is within the float range.
    """
    rmax = np.max(np.linalg.norm(pos, axis=-1), axis=-1)
    bad = np.nonzero(rmax >= b)[0]
    if bad.size:
        raise DomainError(f"charge at |r| = {float(rmax[bad[0]])} not strictly inside b = {b}")
    t = (rmax / b) ** 2
    gross = np.sum(np.abs(q), axis=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = COULOMB_KCAL * gross * gross / b * t ** (n_max + 1) / (1.0 - t)
        # Where (sum|q|)^2 overflows, the bound is taken in logarithms: the
        # product above gives nan (inf * 0) or inf where t^(n_max+1) makes it
        # finite.  It stays inf only where the bound itself passes the float range.
        big = ~np.isfinite(bound)
        if big.any():
            log_gross = np.logaddexp.reduce(np.log(np.abs(q[big])), axis=-1)
            bound[big] = COULOMB_KCAL / (b * (1.0 - t[big])) * np.exp(
                2.0 * log_gross + (n_max + 1) * np.log(t[big]))
    return bound
