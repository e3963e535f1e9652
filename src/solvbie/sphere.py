"""Analytic solvation-energy models for charges in a spherical cavity.

Implements the exact Kirkwood series, the boundary-integral-based diagonal
approximations (CFA, P, generic-lambda, and the hybrid M variant), and the
Generalized Born / GB-epsilon estimators with sphere-analytic parameters.

Geometry and material separate.  The charges enter every series method
only through their mode spectrum S_n, the dielectrics only through one
factor f_n per mode:

    E   = (k_e/2) sum_n f_n S_n,
    f_n = P_n / (1 + eps_hat lambda_n),
    P_n = 2 (eps1-eps2)(n+1) / (eps1 (eps1+eps2)(2n+1) b^(2n+1)),

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
q)^2) with beta = eps1/eps2.

Over C charge sets the series energies are one product, E = (k_e/2) S F^T,
of the (C x modes) spectra S and the (methods x modes) factor matrix F.
``ensemble_energies``, the engine for every method in ``SPHERE_METHODS``,
takes a chunk of charge sets as (C, Q, 3) positions and (C, Q) magnitudes
and builds S and F for it, and for the GB methods one stack of Still
matrices 1/F from one batched Gram GEMM.  S has two forms, equal up to
rounding and chosen by the size of the sets: sets of Q <= ``PAIR_CROSSOVER``
(n_max+1) charges take it from their charge pairs by Kirkwood's addition
theorem (``harmonics.pair_spectrum``, one Legendre recurrence over the Gram
matrix, cost Q^2 n_max per set), larger sets from their real solid-harmonic
moments, S_n = sum_{m>=0} |M_nm|^2 (``harmonics.solid_spectrum``, one
recurrence table in z and r^2, cost Q n_max^2).  A chunk's solid-harmonic
table or pair buffers, or one of its two Still buffers, hold at most
``_CHUNK_BYTES`` at ``chunk_length`` sets.  The engine returns arrays, and
its one-set case ``sphere_energies`` labels them as ``EnergyResult``s.  The
reaction coefficients B_nm = f_n M_nm of one charge set's seminormalized
moments remain for evaluating the reaction potential at points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .harmonics import (
    KIND_REACTION,
    KIND_SOURCE,
    MultipoleCoefficients,
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
#: The Generalized Born methods, scored from one Still kernel per chunk.
GB_METHODS = ("gb", "gbeps")
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


@dataclass(frozen=True, eq=False)
class GBParameters:
    """Generalized-Born parameters: electrostatic radius, read-only effective radii, alpha."""

    electrostatic_radius: float
    effective_radii: np.ndarray
    alpha: float = 0.57

    def __post_init__(self):
        a = self.electrostatic_radius
        if not a > 0:
            raise DomainError(f"electrostatic radius must be positive, got {a}")
        radii = np.array(self.effective_radii, dtype=float).ravel()
        bad = np.nonzero(~((radii > 0) & (radii <= a * (1 + 1e-12))))[0]
        if bad.size:
            raise DomainError(f"effective radius {radii[bad[0]]} outside (0, {a}]")
        radii.setflags(write=False)
        object.__setattr__(self, "effective_radii", radii)
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")


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
    """Factor matrix F, f_n = P_n / (1 + eps_hat lambda_n), one row per series method."""
    n = np.arange(model.n_max + 1, dtype=float)
    rows = [-0.5 / (2 * n + 1) if m == METHOD_KIRKWOOD
            else BibeeVariant(m, lam).lambdas(model.n_max) for m, lam in zip(methods, lams)]
    # P_n is homogeneous of degree -1 in eps, P_n(eps) = P_n(eps / s) / s, and
    # dividing the numerator by s first keeps both parts in range.
    e1, e2, s = model.dielectrics.scaled()
    p = (2.0 * (e1 - e2) / s * (n + 1)
         / (e1 * (e1 + e2) * (2 * n + 1) * model.radius ** (2 * n + 1)))
    return _diagonal_solve(p, model.dielectrics, np.reshape(rows, (-1, n.size)))


def reaction_coefficients(
    e: MultipoleCoefficients, model: SphereModel, method: str = METHOD_KIRKWOOD, lam: float = 0.0
) -> MultipoleCoefficients:
    """Reaction-field coefficients B_nm = f_n M_nm of a series method, for potentials at points.

    ``method`` and ``lam`` name the eigenvalues as in ``sphere_energies``.
    """
    if method in GB_METHODS:
        raise DomainError(f"GB method {method!r} has no reaction coefficients")
    if e.kind != KIND_SOURCE:
        raise DomainError("expected source moments")
    if e.n_max != model.n_max:
        raise DomainError(f"moment cutoff {e.n_max} != model cutoff {model.n_max}")
    coeffs = e.coeffs * _mode_factors(model, [method], [lam])[0][:, None]
    return MultipoleCoefficients(n_max=e.n_max, coeffs=coeffs, kind=KIND_REACTION)


def _check_interior(pos: np.ndarray, model: SphereModel):
    """DomainError for the first set of positions (C, Q, 3) with a charge past the margin."""
    rmax = np.max(np.linalg.norm(pos, axis=-1), axis=-1)
    bad = np.nonzero(rmax > BOUNDARY_MARGIN * model.radius)[0]
    if bad.size:
        raise DomainError(
            f"charge at |r| = {float(rmax[bad[0]]):g} too close to the boundary "
            f"(limit {BOUNDARY_MARGIN} * b = {BOUNDARY_MARGIN * model.radius:g})"
        )


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
    _check_interior(pos, model)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), (len(methods),))
    series = [i for i, method in enumerate(methods) if method not in GB_METHODS]
    gb = [i for i, method in enumerate(methods) if method in GB_METHODS]
    energies = np.empty((len(q), len(methods)))
    # Past the cutoff whose powers and factors fit a float, S and F hold inf
    # or nan; the energy check reports that, without numpy warnings first.
    with np.errstate(over="ignore", invalid="ignore"):
        tails = truncation_tail_estimate(pos, q, model.radius, model.n_max)
        if q.shape[1] <= PAIR_CROSSOVER * (model.n_max + 1):
            spectra = pair_spectrum(pos, q, model.n_max)
        else:
            spectra = solid_spectrum(pos, q, model.n_max)
        factors = _mode_factors(model, [methods[i] for i in series], lams[series])
        # S F^T summed along each row, so a charge set's energies do not depend
        # on the chunk it is scored in, as a GEMM's blocking would.
        energies[:, series] = 0.5 * COULOMB_KCAL * np.sum(spectra[:, None, :] * factors, axis=-1)
        if gb:
            # R_i = b - r_i^2/b, formed as in ``sphere_gb_parameters``.
            b, r = model.radius, np.linalg.norm(pos, axis=-1)
            energies[:, gb] = _gb_energies(pos, q, b - r * r / b, b, GBParameters.alpha,
                                           model.dielectrics, [methods[i] for i in gb])
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
                         metadata={"alpha": str(GBParameters.alpha)} if method == "gbeps" else {})
            for value, method, label in zip(values, methods, _labels(methods, lam))]


def kirkwood_energy(dist: ChargeDistribution, model: SphereModel) -> EnergyResult:
    """Exact series solvation energy: ``sphere_energies`` for Kirkwood alone.

    Kept because ``perfbench/selftest.py`` imports ``solvbie.sphere.kirkwood_energy``.
    """
    return sphere_energies(dist, model, (METHOD_KIRKWOOD,))[0]


def pair_interaction_kirkwood(i_pos, i_q, j_pos, j_q, model: SphereModel) -> float:
    """Reaction-field interaction energy of an ordered charge pair, kcal/mol.

    dG_ij = -k_e q_i q_j (1 - eps1/eps2) / (A eps1)
            * sum_l t^l P_l(cos gamma) / (1 + (l/(l+1)) eps1/eps2)

    with t = |r_i||r_j|/A^2.  Summing (1/2) dG_ij over all ordered pairs
    (including i = j self terms) reproduces the full Kirkwood energy.
    """
    e1, e2 = model.dielectrics.eps_in, model.dielectrics.eps_out
    a = model.radius
    ri = np.asarray(i_pos, dtype=float)
    rj = np.asarray(j_pos, dtype=float)
    rin, rjn = float(np.linalg.norm(ri)), float(np.linalg.norm(rj))
    t = rin * rjn / (a * a)
    if t >= 1.0:
        raise DomainError(f"pair separation parameter t = {t} >= 1")
    if t == 0.0:
        cos_gamma = 1.0  # angle irrelevant: only l = 0 survives
    else:
        cos_gamma = float(np.dot(ri, rj) / (rin * rjn)) if rin > 0 and rjn > 0 else 1.0
        cos_gamma = min(1.0, max(-1.0, cos_gamma))
    beta = e1 / e2
    ls = np.arange(model.n_max + 1, dtype=float)
    # Legendre polynomials P_l(cos_gamma) by upward recurrence.
    pl = np.empty(model.n_max + 1)
    pl[0] = 1.0
    if model.n_max >= 1:
        pl[1] = cos_gamma
        for l in range(2, model.n_max + 1):
            pl[l] = ((2 * l - 1) * cos_gamma * pl[l - 1] - (l - 1) * pl[l - 2]) / l
    series = float(np.sum(t ** ls * pl / (1.0 + ls / (ls + 1.0) * beta)))
    return -COULOMB_KCAL * i_q * j_q * (1.0 - beta) / (a * e1) * series


def pairwise_kirkwood_energy(dist: ChargeDistribution, model: SphereModel) -> float:
    """Total energy assembled from the pairwise series, kcal/mol."""
    pos = dist.positions
    q = dist.magnitudes
    total = 0.0
    for i in range(len(q)):
        for j in range(len(q)):
            total += 0.5 * pair_interaction_kirkwood(pos[i], q[i], pos[j], q[j], model)
    return total


def sphere_gb_parameters(dist: ChargeDistribution, model: SphereModel) -> GBParameters:
    """Sphere-analytic GB parameters: A = b, R_i = b - r_i^2/b, alpha = 0.57."""
    _check_interior(dist.positions[None], model)
    b = model.radius
    r = np.linalg.norm(dist.positions, axis=1)
    return GBParameters(electrostatic_radius=b, effective_radii=b - r * r / b)


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


def _gb_energies(pos, q, radii, a: float, alpha: float, eps: DielectricPair, methods) -> np.ndarray:
    """GB (alpha = 0) or GBeps energies (C, methods) of each charge set of a chunk.

    pref(alpha) (s + (alpha eps1/eps2) / A (sum q)^2), A = ``a``, from the pair
    sums s = q^T (1/F) q of one ``_inverse_still`` of the effective radii (C, Q).
    """
    # Batched matrix products, so a set's sum does not depend on C.
    pair = (q[:, None, :] @ _inverse_still(pos, radii) @ q[:, :, None])[:, 0, 0]
    net2 = np.sum(q, axis=-1) ** 2
    beta = eps.eps_in / eps.eps_out
    alphas = np.array([0.0 if method == "gb" else alpha for method in methods])
    pref = -0.5 * COULOMB_KCAL * (1.0 / eps.eps_in - 1.0 / eps.eps_out) / (1.0 + alphas * beta)
    return pref * (pair[:, None] + alphas * beta / a * net2[:, None])
