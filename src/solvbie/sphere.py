"""Analytic solvation-energy models for charges in a spherical cavity.

Implements the exact Kirkwood series, the boundary-integral-based diagonal
approximations (CFA, P, generic-lambda, and the hybrid M variant), and the
Generalized Born / GB-epsilon estimators with sphere-analytic parameters.

Geometry and material separate.  With lengths in units of the cavity
radius b the geometry is dimensionless: the charges enter every series
method only through the mode spectrum S_n of their positions r/b, the
dielectrics only through one factor f_n per mode, and b only through one
factor 1/b:

    E   = (k_e/2) sum_n f_n S_n,
    f_n = P_n / (1 + eps_hat lambda_n),
    P_n = 2 (eps1-eps2)(n+1) / (eps1 (eps1+eps2)(2n+1) b),

and the methods differ only in the eigenvalue lambda_n of the sphere's
electric-field operator D* that they assume for mode n:

    exact (Kirkwood):  lambda_n = -1/(2(2n+1))
    CFA:               lambda_n = -1/2
    P:                 lambda_n = 0
    Lambda(lambda):    lambda_n = lambda
    M(lambda):         lambda_0 = -1/2, lambda_n = lambda for n >= 1

The Generalized Born methods separate the same way: their geometry term
is the pair sum s = q^T (1/F) q of the Still matrix F of the charge set,
and GB (alpha = 0) and GBeps are both pref(alpha) (s + alpha beta/A (sum
q)^2) with beta = eps1/eps2; in units of b, A = 1 and R_i = 1 - r_i^2, and
the energy is that sum over b.

Over C charge sets the series energies are one product, E = (k_e/2) S F^T,
of the (C x modes) spectra S and the (methods x modes) factor matrix F.
``ensemble_energies``, the engine for every method in ``SPHERE_METHODS``,
takes a chunk of charge sets as (C, Q, 3) positions and (C, Q) magnitudes,
divides the positions by b once, and builds S and F for it, and for the GB
methods one stack of Still matrices 1/F from one batched Gram GEMM.  At
|r/b| < 1 no power of a position leaves the float range, so every n_max is
valid at every radius.  S has two forms, equal up to rounding (see
``harmonics``): sets of Q <= ``PAIR_CROSSOVER`` (n_max+1) charges take
``pair_spectrum``, larger sets ``solid_spectrum``.  A chunk's solid-harmonic
table or pair buffers, or one of its two Still buffers, hold at most
``_CHUNK_BYTES`` at ``chunk_length`` sets.  The engine returns arrays, and
its one-set case ``sphere_energies`` labels them as ``EnergyResult``s.
``reaction_potential`` gives one charge set's reaction potential at points
from the same factors: mode n of the potential is f_n times mode n of the
set's solid-harmonic moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .harmonics import (
    _solid_coefficients,
    _solid_table,
    pair_spectrum,
    solid_spectrum,
    source_moments,  # re-exported as sphere.source_moments
    truncation_tail_estimate,
)
from .model import (
    COULOMB_KCAL,
    ChargeDistribution,
    DielectricPair,
    EnergyResult,
    SphereModel,
)

METHOD_KIRKWOOD = "kirkwood"
VARIANT_CFA = "cfa"
VARIANT_P = "p"
VARIANT_LAMBDA = "lambda"
VARIANT_M = "m"

#: Variant tag -> (method label, eigenvalue fixed by the tag, or None when
#: ``lam`` is a free parameter).
_VARIANTS = {
    VARIANT_CFA: ("CFA", -0.5),
    VARIANT_P: ("P", 0.0),
    VARIANT_LAMBDA: ("Lambda({:g})", None),
    VARIANT_M: ("M({:g})", None),
}
VARIANT_TAGS = tuple(_VARIANTS)
#: Variants whose eigenvalue is the caller's lambda.
LAMBDA_VARIANTS = tuple(tag for tag, (_, fixed) in _VARIANTS.items() if fixed is None)
#: Each Generalized Born method's alpha: GB is the alpha = 0 case of GBeps.
GB_ALPHAS = {"gb": 0.0, "gbeps": 0.57}
#: The Generalized Born methods, scored from one Still kernel per chunk.
GB_METHODS = tuple(GB_ALPHAS)
#: Every sphere method name accepted by ``sphere_energies``.
SPHERE_METHODS = (METHOD_KIRKWOOD, *VARIANT_TAGS, *GB_METHODS)

#: Fraction of the sphere radius beyond which charges are rejected.
BOUNDARY_MARGIN = 0.999

#: Bytes of an ensemble chunk's solid-harmonic table or pair-spectrum
#: buffers, or of one of its Still pair buffers.
_CHUNK_BYTES = 1 << 23

#: Charge sets of at most PAIR_CROSSOVER (n_max+1) charges take their mode
#: spectra from their charge pairs, larger sets from their solid-harmonic
#: moments.  The pairwise form costs Q^2 n_max per set and the moments
#: Q n_max^2; of the ratios Q/(n_max+1) = 1, 1.5, 2, 2.5, 3, 4, 5, 1 is the
#: largest at which the pairwise form was faster at every measured n_max
#: (10, 25, 50) and chunk size (2, 16 sets), on a shared 2-CPU x86 host with
#: one BLAS thread.
PAIR_CROSSOVER = 1


@dataclass(frozen=True)
class BibeeVariant:
    """A diagonal approximation of the boundary-integral operator.

    The tag is the method name; ``lambdas`` gives the per-mode eigenvalue
    estimates that define the variant.  ``lam`` must lie in [-1/2, 0], the
    spectral range of the sphere's electric-field operator; CFA fixes it at
    -1/2 and P at 0.  A new variant needs an entry in ``_VARIANTS``, a case
    in ``lambdas`` if its eigenvalues are not uniform, and nothing else.
    """

    tag: str
    lam: float = 0.0

    def __post_init__(self):
        if self.tag not in _VARIANTS:
            raise DomainError(f"unknown variant tag {self.tag!r}")
        fixed = _VARIANTS[self.tag][1]
        if fixed is not None:
            object.__setattr__(self, "lam", fixed)
        elif not (-0.5 <= self.lam <= 0.0):
            raise DomainError(f"lambda must lie in [-1/2, 0], got {self.lam}")

    def lambdas(self, n_max: int) -> np.ndarray:
        """Eigenvalue estimates lambda_0 .. lambda_n_max, one per mode."""
        lams = np.full(n_max + 1, float(self.lam))
        if self.tag == VARIANT_M:
            lams[0] = -0.5  # the monopole keeps its exact eigenvalue
        return lams

    def method_name(self) -> str:
        return _VARIANTS[self.tag][0].format(self.lam)


def _diagonal_solve(values, eps: DielectricPair, lams):
    """values / (1 + eps_hat lambda): (I + eps_hat D*) x = values for a diagonal D*.

    The scale is formed as (eps1 (1 + 2 lambda) + eps2 (1 - 2 lambda)) /
    (eps1 + eps2), a sum of nonnegative terms for lambda in [-1/2, 0].
    """
    lams = np.asarray(lams, dtype=float)
    e1, e2, _ = eps.scaled()
    denom = (e1 * (1.0 + 2.0 * lams) + e2 * (1.0 - 2.0 * lams)) / (e1 + e2)
    if np.any(denom <= 0):
        raise DomainError("degenerate scale: 1 + eps_hat*lambda <= 0")
    return values / denom


def _labels(methods, lam) -> list[str]:
    """The result label of each method, ``lam`` as in ``ensemble_energies``."""
    lams = np.broadcast_to(np.asarray(lam, dtype=float), (len(methods),))
    fixed = {METHOD_KIRKWOOD: "Kirkwood", "gb": "GB", "gbeps": "GBeps"}
    return [fixed.get(m) or BibeeVariant(m, lam_m).method_name() for m, lam_m in zip(methods, lams)]


def _mode_factors(model: SphereModel, methods, lams) -> np.ndarray:
    """Factors f_n = P_n / (1 + eps_hat lambda_n) of spectra in units of b, one row per method."""
    n = np.arange(model.n_max + 1, dtype=float)
    rows = [-0.5 / (2 * n + 1) if m == METHOD_KIRKWOOD
            else BibeeVariant(m, lam).lambdas(model.n_max) for m, lam in zip(methods, lams)]
    # P_n is homogeneous of degree -1 in eps, P_n(eps) = P_n(eps / s) / s, and
    # dividing the numerator by s first keeps both parts in range.
    e1, e2, s = model.dielectrics.scaled()
    p = 2.0 * (e1 - e2) / s * (n + 1) / (e1 * (e1 + e2) * (2 * n + 1) * model.radius)
    return _diagonal_solve(p, model.dielectrics, np.reshape(rows, (-1, n.size)))


def _check_interior(pos: np.ndarray, model: SphereModel) -> np.ndarray:
    """Positions (C, Q, 3) over b; DomainError for the first set with a charge past the margin."""
    b = model.radius
    # A charge far outside may overflow r/b or |r/b|: it is past the margin either way.
    with np.errstate(over="ignore"):
        pos = pos / b
        rmax = np.max(np.linalg.norm(pos, axis=-1), axis=-1)
    bad = np.nonzero(rmax > BOUNDARY_MARGIN)[0]
    if bad.size:
        raise DomainError(
            f"charge at |r| = {float(rmax[bad[0]]) * b:g} too close to the boundary "
            f"(limit {BOUNDARY_MARGIN} * b = {BOUNDARY_MARGIN * b:g})"
        )
    return pos


def chunk_length(n_max: int, charges: int) -> int:
    """Charge sets of ``charges`` charges per ensemble chunk, within _CHUNK_BYTES.

    A set counts with its larger footprint: a solid-harmonic table,
    8 (n_max+1)^2 Q bytes, or five pair-spectrum buffers, 40 Q^2 bytes,
    which also bound one Still buffer, 8 Q^2 bytes.
    """
    return max(1, _CHUNK_BYTES // (8 * charges * max((n_max + 1) ** 2, 5 * charges)))


def ensemble_energies(pos: np.ndarray, q: np.ndarray, model: SphereModel, methods,
                      lam=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Energies (C, methods), kcal/mol, and series truncation estimates (C,) of a chunk.

    The chunk is C sets of Q charges, positions (C, Q, 3) and magnitudes
    (C, Q).  Its charges are checked, and its spectra S (pairwise or from
    solid harmonics, by Q), truncation estimates, factor matrix F and Still
    matrices built, in one pass.  ``lam`` is the eigenvalue of the lambda
    and m variants: one value for every method, or one per method, which
    the other methods ignore (None stands for no eigenvalue).
    """
    b, pos = model.radius, _check_interior(pos, model)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), (len(methods),))
    series = [i for i, method in enumerate(methods) if method not in GB_METHODS]
    gb = [i for i, method in enumerate(methods) if method in GB_METHODS]
    energies = np.empty((len(q), len(methods)))
    # Charges or 1/b past the float range give inf or nan energies; the
    # energy check reports them, without numpy warnings first.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tails = truncation_tail_estimate(pos, q, 1.0, model.n_max) / b
        if q.shape[1] <= PAIR_CROSSOVER * (model.n_max + 1):
            spectra = pair_spectrum(pos, q, model.n_max)
        else:
            spectra = solid_spectrum(pos, q, model.n_max)
        factors = _mode_factors(model, [methods[i] for i in series], lams[series])
        # S F^T summed along each row, so a charge set's energies do not depend
        # on the chunk it is scored in, as a GEMM's blocking would.
        energies[:, series] = 0.5 * COULOMB_KCAL * np.sum(spectra[:, None, :] * factors, axis=-1)
        if gb:
            # The sphere's GB geometry in units of b: A = 1 and R_i = 1 - r_i^2.
            r = np.linalg.norm(pos, axis=-1)
            energies[:, gb] = _gb_energies(pos, q, 1.0 - r * r, [GB_ALPHAS[methods[i]] for i in gb],
                                           model.dielectrics) / b
    # The first non-finite energy, series methods first, one method at a time.
    bad_methods, bad_sets = np.nonzero(~np.isfinite(energies[:, series + gb].T))
    if bad_methods.size:
        i, c = (series + gb)[bad_methods[0]], bad_sets[0]
        label = _labels(methods, lams)[i]
        raise DomainError(f"non-finite energy {energies[c, i]} for method {label}")
    return energies, tails


def sphere_energies(
    dist: ChargeDistribution, model: SphereModel, methods, lam=0.0
) -> list[EnergyResult]:
    """Solvation energy of each named method for one charge set, kcal/mol.

    The one-configuration case of ``ensemble_energies``, with the series
    methods' truncation estimate and GBeps's alpha in its results.
    """
    energies, tails = ensemble_energies(dist.positions[None], dist.magnitudes[None], model,
                                        methods, lam)
    (values,), (tail,) = energies.tolist(), tails.tolist()
    return [EnergyResult(value=value, method=label,
                         truncation_error_estimate=None if method in GB_METHODS else tail,
                         metadata={"alpha": str(GB_ALPHAS[method])} if method == "gbeps" else {})
            for value, method, label in zip(values, methods, _labels(methods, lam))]


def reaction_potential(dist: ChargeDistribution, model: SphereModel, points,
                       method: str = METHOD_KIRKWOOD, lam: float = 0.0) -> np.ndarray:
    """Reaction potential psi (K,) of one charge set at K interior points, without k_e.

    psi = sum_{n, m>=0} Re(conj(B_nm) R_n^m) over the reaction coefficients
    B_nm = f_n M_nm: the set's ``source_moments`` scaled by the method's
    factor per mode, ``method`` and ``lam`` as in ``sphere_energies``.  It is
    real by construction: the m < 0 terms are the conjugates of the m > 0
    terms, and the seminormalization's 2 - delta_m0 counts them.  Per m,
    h_m = sum_n conj(B_nm) Pi_n^m is one matrix product against the table
    of ``harmonics._solid_table`` over all points, and psi = sum_m Re(u^m h_m).
    (k_e/2) q . psi at the charges is the method's energy.  All of it is in units of b.
    """
    if method in GB_METHODS:
        raise DomainError(f"GB method {method!r} has no reaction coefficients")
    (pos,) = _check_interior(dist.positions[None], model)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(points)):
        raise DomainError("non-finite potential evaluation point")
    n_max = model.n_max
    with np.errstate(over="ignore", invalid="ignore"):
        # conj(B_nm) g_nm = conj(M_nm) f_n g_nm in units of b, laid out (m, n).
        coef = (np.conj(source_moments(ChargeDistribution(pos, dist.magnitudes), n_max).T)
                * _mode_factors(model, [method], [lam]) * _solid_coefficients(n_max)[1][:, 0, :, 0])
        points = points / model.radius
        table = _solid_table(points[None], n_max)[:, :, 0]
        # (m, [Re, Im], n) (m, n, K) products: [Re, Im] of h_m at every point.
        h = np.matmul(np.stack([coef.real, coef.imag], axis=1), table.transpose(1, 0, 2))
        u = np.empty((n_max + 1, len(points)), dtype=complex)
        u[0] = 1.0
        u[1:] = points[:, 0] + 1j * points[:, 1]
        np.cumprod(u, axis=0, out=u)
        psi = np.sum(u.real * h[:, 0] - u.imag * h[:, 1], axis=0)
    if not np.all(np.isfinite(psi)):
        raise DomainError(f"non-finite reaction potential at n_max {n_max}")
    return psi


def kirkwood_energy(dist: ChargeDistribution, model: SphereModel) -> EnergyResult:
    """Exact series solvation energy: ``sphere_energies`` for Kirkwood alone.

    Kept because ``perfbench/selftest.py`` imports ``solvbie.sphere.kirkwood_energy``.
    """
    return sphere_energies(dist, model, (METHOD_KIRKWOOD,))[0]


def pairwise_kirkwood_energy(dist: ChargeDistribution, model: SphereModel) -> float:
    """Exact series energy summed over all ordered charge pairs, kcal/mol.

    E = -(k_e/2) (1 - beta)/(A eps1) sum_ij q_i q_j
        * sum_l t_ij^l P_l(cos gamma_ij) / (1 + l beta/(l+1)),

    with t_ij = |r_i||r_j|/A^2 and beta = eps1/eps2, self terms i = j
    included.  A reference independent of the mode spectra and factors: one
    Legendre recurrence in cos gamma over the Q x Q pairs, in units of A
    (positions r/A), so it holds at every finite radius.  Kept because
    ``perfbench/selftest.py`` imports it.
    """
    e1, e2 = model.dielectrics.eps_in, model.dielectrics.eps_out
    a, pos = model.radius, dist.positions / model.radius
    r = np.linalg.norm(pos, axis=1)
    t = np.outer(r, r)
    if np.any(t >= 1.0):
        raise DomainError(f"pair separation parameter t = {float(np.max(t))} >= 1")
    # The angle of a pair with a charge at the origin is irrelevant: only l = 0 survives.
    cos_gamma = np.divide(pos @ pos.T, t, out=np.ones_like(t), where=t > 0)
    np.clip(cos_gamma, -1.0, 1.0, out=cos_gamma)
    beta = e1 / e2
    series = np.ones_like(t)  # the l = 0 term
    p_prev, p = series, cos_gamma  # P_{l-1}, P_l by upward recurrence
    for l in range(1, model.n_max + 1):
        series = series + t ** l * p / (1.0 + l / (l + 1.0) * beta)
        p_prev, p = p, ((2 * l + 1) * cos_gamma * p - l * p_prev) / (l + 1)
    q = dist.magnitudes
    return -0.5 * COULOMB_KCAL * (1.0 - beta) / (a * e1) * float(q @ series @ q)


def _inverse_still(pos: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """1/f_ij, f_ij = sqrt(d_ij^2 + R_i R_j exp(-d_ij^2 / (4 R_i R_j))) of Still, per charge set.

    Positions (C, Q, 3), effective radii R (C, Q).  d^2 = r_i^2 + r_j^2 - 2 G_ij
    from one batched Gram GEMM G = P P^T, clamped at 0 with a zero diagonal
    (f_ij >= sqrt(R_i R_j) > 0, so its cancellation is harmless); the rest
    is in-place ufuncs on two (C, Q, Q) buffers, d^2 and the result.
    """
    c, n = pos.shape[:2]
    if radii.shape != (c, n):
        raise DomainError(f"{radii.shape[-1]} effective radii for {n} charges")
    try:
        d2, inv_f = np.empty((c, n, n)), np.empty((c, n, n))
    except MemoryError:
        raise DomainError(
            f"Still matrices of {c} sets of {n} charges need {16 * c * n * n} bytes") from None
    r2 = np.sum(pos * pos, axis=-1)
    np.matmul(pos, -2.0 * pos.transpose(0, 2, 1), out=d2)
    d2 += r2[:, :, None]
    d2 += r2[:, None, :]
    np.maximum(d2, 0.0, out=d2)
    d2[:, np.arange(n), np.arange(n)] = 0.0
    # R_i R_j applied as row and column scalings: no outer-product buffer.
    np.multiply(d2, -0.25 / radii[:, :, None], out=inv_f)
    inv_f /= radii[:, None, :]
    np.exp(inv_f, out=inv_f)
    inv_f *= radii[:, :, None]
    inv_f *= radii[:, None, :]
    inv_f += d2
    np.sqrt(inv_f, out=inv_f)
    return np.reciprocal(inv_f, out=inv_f)


def _gb_energies(pos, q, radii, alphas, eps: DielectricPair) -> np.ndarray:
    """GBeps energies (C, alphas) of each charge set of a chunk, times b, one column per alpha.

    pref(alpha) (s + (alpha eps1/eps2) / A (sum q)^2) at A = 1, from the pair
    sums s = q^T (1/F) q of one ``_inverse_still`` of the effective radii (C, Q),
    all lengths in units of b; alpha = 0 is GB.
    """
    # Batched matrix products, so a set's sum does not depend on C.
    pair = (q[:, None, :] @ _inverse_still(pos, radii) @ q[:, :, None])[:, 0, 0]
    net2 = np.sum(q, axis=-1) ** 2
    beta = eps.eps_in / eps.eps_out
    alphas = np.asarray(alphas, dtype=float)
    pref = -0.5 * COULOMB_KCAL * (1.0 / eps.eps_in - 1.0 / eps.eps_out) / (1.0 + alphas * beta)
    return pref * (pair[:, None] + alphas * beta * net2[:, None])
