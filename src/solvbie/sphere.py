"""Analytic solvation-energy models for charges in a spherical cavity.

Implements the exact Kirkwood series, the boundary-integral-based diagonal
approximations (CFA, P, generic-lambda, and the hybrid M variant), and the
Generalized Born / GB-epsilon estimators with sphere-analytic parameters.

Geometry and material separate.  The charges enter every series method
only through their mode spectrum S_n (``harmonics.mode_spectrum``), the
dielectrics only through one factor f_n per mode:

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
is the inverse Still matrix 1/F of the charge set, and GB (alpha = 0) and
GBeps are both pref(alpha) q @ (1/F + alpha beta/A) @ q with beta =
eps1/eps2.

``sphere_energies`` is the one entry point for every method named in
``SPHERE_METHODS``: it builds the spectrum and, for the GB methods, 1/F
once per charge set.  The reaction coefficients B_nm = f_n E_nm remain for
evaluating the reaction potential at points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .harmonics import (
    KIND_REACTION,
    KIND_SOURCE,
    MultipoleCoefficients,
    mode_spectrum,
    source_moments,
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
#: Every sphere method name accepted by ``sphere_energies``.
SPHERE_METHODS = (METHOD_KIRKWOOD, *VARIANT_TAGS, "gb", "gbeps")

#: Fraction of the sphere radius beyond which charges are rejected.
BOUNDARY_MARGIN = 0.999


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


def _mode_factors(model: SphereModel, method: str, lam: float = 0.0) -> tuple[str, np.ndarray]:
    """Label and factors f_n = P_n / (1 + eps_hat lambda_n) of a series method."""
    n = np.arange(model.n_max + 1, dtype=float)
    if method == METHOD_KIRKWOOD:
        label, lams = "Kirkwood", -0.5 / (2 * n + 1)
    else:
        variant = BibeeVariant(method, lam)
        label, lams = variant.method_name(), variant.lambdas(model.n_max)
    # P_n is homogeneous of degree -1 in eps, P_n(eps) = P_n(eps / s) / s, and
    # dividing the numerator by s first keeps both parts in range.
    e1, e2, s = model.dielectrics.scaled()
    p = (2.0 * (e1 - e2) / s * (n + 1)
         / (e1 * (e1 + e2) * (2 * n + 1) * model.radius ** (2 * n + 1)))
    return label, _diagonal_solve(p, model.dielectrics, lams)


def _reaction_coefficients(
    e: MultipoleCoefficients, model: SphereModel, method: str, lam: float = 0.0
) -> MultipoleCoefficients:
    """B_nm = f_n E_nm for a series method."""
    if e.kind != KIND_SOURCE:
        raise DomainError("expected source moments")
    if e.n_max != model.n_max:
        raise DomainError(f"moment cutoff {e.n_max} != model cutoff {model.n_max}")
    coeffs = e.coeffs * _mode_factors(model, method, lam)[1][:, None]
    return MultipoleCoefficients(n_max=e.n_max, coeffs=coeffs, kind=KIND_REACTION)


def kirkwood_reaction_coefficients(
    e: MultipoleCoefficients, model: SphereModel
) -> MultipoleCoefficients:
    """Exact reaction-field coefficients: the sphere's eigenvalues -1/(2(2n+1))."""
    return _reaction_coefficients(e, model, METHOD_KIRKWOOD)


def bibee_reaction_coefficients(
    e: MultipoleCoefficients, model: SphereModel, variant: BibeeVariant
) -> MultipoleCoefficients:
    """Approximate reaction coefficients for a diagonal operator approximation."""
    return _reaction_coefficients(e, model, variant.tag, variant.lam)


def _check_interior(dist: ChargeDistribution, model: SphereModel):
    r = np.linalg.norm(dist.positions, axis=1)
    if np.any(r > BOUNDARY_MARGIN * model.radius):
        raise DomainError(
            f"charge at |r| = {float(np.max(r)):g} too close to the boundary "
            f"(limit {BOUNDARY_MARGIN} * b = {BOUNDARY_MARGIN * model.radius:g})"
        )


def sphere_energies(
    dist: ChargeDistribution, model: SphereModel, methods, lam=0.0
) -> list[EnergyResult]:
    """Solvation energy of each named method for one charge set, kcal/mol.

    The charges are checked, and their mode spectrum, truncation estimate
    and (for the GB methods) inverse Still matrix built, once; each series
    method is then (k_e/2) f @ S.  ``lam`` is the eigenvalue of the lambda
    and m variants: one value for every method, or one per method, which
    the other methods ignore (None stands for no eigenvalue).
    """
    _check_interior(dist, model)
    spectrum = mode_spectrum(source_moments(dist, model.n_max))
    tail = truncation_tail_estimate(dist, model.radius, model.n_max)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), (len(methods),))
    if {"gb", "gbeps"} & set(methods):
        gb = sphere_gb_parameters(dist, model)
        inv_f = _inverse_still(dist, gb)
    results = []
    for method, lam_i in zip(methods, lams):
        if method in ("gb", "gbeps"):
            results.append(_gb_energy(dist.magnitudes, inv_f, gb, model.dielectrics, method))
        else:
            label, factors = _mode_factors(model, method, lam_i)
            value = 0.5 * COULOMB_KCAL * float(factors @ spectrum)
            results.append(EnergyResult(value=value, method=label, truncation_error_estimate=tail))
    return results


def kirkwood_energy(dist: ChargeDistribution, model: SphereModel) -> EnergyResult:
    """Exact series solvation energy for the sphere."""
    return sphere_energies(dist, model, (METHOD_KIRKWOOD,))[0]


def bibee_energy(
    dist: ChargeDistribution, model: SphereModel, variant: BibeeVariant
) -> EnergyResult:
    """Approximate solvation energy for a diagonal-approximation variant."""
    return sphere_energies(dist, model, (variant.tag,), variant.lam)[0]


def mode_ratio(variant: BibeeVariant, n: int) -> float:
    """Approximate/exact coefficient ratio for mode n in the eps1/eps2 -> 0 limit.

    (n+1) / ((n+1/2)(1 - 2 lambda_n)), the eps_hat -> -2 limit of the factor
    ratio: (n+1)/(2n+1) for CFA, (n+1)/(n+1/2) for P, 1 for M at n = 0.
    """
    if n < 0:
        raise DomainError(f"mode index must be >= 0, got {n}")
    return (n + 1) / ((n + 0.5) * (1.0 - 2.0 * variant.lambdas(n)[n]))


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
    _check_interior(dist, model)
    b = model.radius
    r = np.linalg.norm(dist.positions, axis=1)
    return GBParameters(electrostatic_radius=b, effective_radii=b - r * r / b)


def _still_f_matrix(dist: ChargeDistribution, radii: np.ndarray) -> np.ndarray:
    """Still equation f_ij = sqrt(r_ij^2 + Ri Rj exp(-r_ij^2 / (4 Ri Rj)))."""
    pos = dist.positions
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    rr = radii[:, None] * radii[None, :]
    return np.sqrt(d * d + rr * np.exp(-d * d / (4.0 * rr)))


def _inverse_still(dist: ChargeDistribution, params: GBParameters) -> np.ndarray:
    """1/f_ij of the Still equation, the geometry term of both GB methods."""
    radii = params.effective_radii
    if radii.size != len(dist):
        raise DomainError(f"{radii.size} effective radii for {len(dist)} charges")
    return 1.0 / _still_f_matrix(dist, radii)


def _gb_energy(q, inv_f, params: GBParameters, eps: DielectricPair, method: str) -> EnergyResult:
    """GBeps, or Still's GB for method "gb" (alpha = 0), from the inverse Still matrix.

    Pair term: -(k_e/2)(1/eps1 - 1/eps2) q_i q_j / (1 + alpha eps1/eps2)
               * [1/f_ij + (alpha eps1/eps2) / A].
    """
    alpha = 0.0 if method == "gb" else params.alpha
    beta = eps.eps_in / eps.eps_out
    kernel = inv_f + alpha * beta / params.electrostatic_radius
    pref = -0.5 * COULOMB_KCAL * (1.0 / eps.eps_in - 1.0 / eps.eps_out) / (1.0 + alpha * beta)
    value = pref * float(q @ kernel @ q)
    if method == "gb":
        return EnergyResult(value=value, method="GB")
    return EnergyResult(value=value, method="GBeps", metadata={"alpha": str(alpha)})


def gb_still_energy(
    dist: ChargeDistribution, params: GBParameters, eps: DielectricPair
) -> EnergyResult:
    """Generalized-Born energy via the Still equation, kcal/mol: GBeps at alpha = 0.

    dG = -(k_e/2) (1/eps1 - 1/eps2) sum_ij q_i q_j / f_ij, double sum over
    all ordered pairs including the diagonal (f_ii = R_i).
    """
    return _gb_energy(dist.magnitudes, _inverse_still(dist, params), params, eps, "gb")


def gb_epsilon_energy(
    dist: ChargeDistribution, params: GBParameters, eps: DielectricPair
) -> EnergyResult:
    """GB energy with the dielectric-dependent alpha correction, kcal/mol.

    Collapses to the Still form when alpha = 0 or eps1/eps2 -> 0.
    """
    return _gb_energy(dist.magnitudes, _inverse_still(dist, params), params, eps, "gbeps")
