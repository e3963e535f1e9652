"""Reference energies for the output checks, computed without the program's code.

Every sphere solver the program offers (Kirkwood, CFA, P, lambda, M) has
reaction energy

    E = (k_e / 2) * sum_n f_n S_n,
    S_n = sum_jk q_j q_k (r_j r_k)^n P_n(cos gamma_jk)      (addition theorem),
    f_n = f^P_n / (1 + eps_hat * lambda_n),
    f^P_n = 2 (eps1 - eps2)(n + 1) / (eps1 (eps1 + eps2)(2n + 1) b^(2n+1)),

where lambda_n is the operator eigenvalue the method assumes for mode n:
-1/(2(2n+1)) for the exact series, -1/2 for CFA, 0 for P, lambda for the
generic variant, and [-1/2, lambda, lambda, ...] for M.  The pairwise
spectrum S_n is built from charge pairs, so it shares no code with the
program's multipole moments and Legendre tables.
"""

from __future__ import annotations

import numpy as np

#: Coulomb constant in kcal mol^-1 Angstrom e^-2, as documented by the program.
COULOMB_KCAL = 332.0636

#: Alpha of the GB-epsilon correction, as documented by the program.
GB_ALPHA = 0.57


def ball_charges(seed: int, index: int, count: int, radius: float, margin: float,
                 max_q: float) -> tuple[np.ndarray, np.ndarray]:
    """Charges uniform in the ball of radius margin*radius.

    Same draw order as the program documents for its seeded ensembles
    (stream ``default_rng([seed, index])``: Gaussian directions, cube-root
    radii, uniform magnitudes), so the checks can regenerate any
    configuration the program drew.
    """
    rng = np.random.default_rng([seed, index])
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = margin * radius * rng.random(count) ** (1.0 / 3.0)
    q = rng.uniform(-max_q, max_q, count)
    return dirs * r[:, None], q


def mode_spectrum(pos: np.ndarray, q: np.ndarray, n_max: int) -> np.ndarray:
    """S_n for n = 0..n_max from the pairwise addition-theorem sum."""
    r = np.linalg.norm(pos, axis=1)
    rr = np.outer(r, r)
    safe = np.where(rr > 0, rr, 1.0)
    cos_g = np.clip(np.where(rr > 0, (pos @ pos.T) / safe, 1.0), -1.0, 1.0)
    spectrum = np.empty(n_max + 1)
    p_prev, p_cur = np.ones_like(cos_g), cos_g
    power = np.ones_like(rr)
    for n in range(n_max + 1):
        if n == 0:
            p_n = p_prev
        elif n == 1:
            p_n = p_cur
        else:
            p_prev, p_cur = p_cur, ((2 * n - 1) * cos_g * p_cur - (n - 1) * p_prev) / n
            p_n = p_cur
        spectrum[n] = q @ (power * p_n) @ q
        power = power * rr
    return spectrum


def mode_lambdas(method: str, n_max: int, lam: float = 0.0) -> np.ndarray:
    """Per-mode operator eigenvalue assumed by a sphere method."""
    n = np.arange(n_max + 1, dtype=float)
    if method == "kirkwood":
        return -1.0 / (2.0 * (2.0 * n + 1.0))
    if method == "cfa":
        return np.full(n_max + 1, -0.5)
    if method == "p":
        return np.zeros(n_max + 1)
    if method == "lambda":
        return np.full(n_max + 1, lam)
    if method == "m":
        out = np.full(n_max + 1, lam)
        out[0] = -0.5
        return out
    raise ValueError(f"no mode spectrum for method {method!r}")


def series_energy(spectrum: np.ndarray, method: str, radius: float, eps_in: float,
                  eps_out: float, lam: float = 0.0) -> float:
    """Reaction energy (kcal/mol) of a sphere method from the mode spectrum."""
    n_max = spectrum.size - 1
    n = np.arange(n_max + 1, dtype=float)
    eps_hat = (eps_in - eps_out) / (0.5 * (eps_in + eps_out))
    f_p = (2.0 * (eps_in - eps_out) * (n + 1)
           / (eps_in * (eps_in + eps_out) * (2 * n + 1) * radius ** (2 * n + 1)))
    f = f_p / (1.0 + eps_hat * mode_lambdas(method, n_max, lam))
    return 0.5 * COULOMB_KCAL * float(np.dot(f, spectrum))


def gb_energy(pos: np.ndarray, q: np.ndarray, radius: float, eps_in: float,
              eps_out: float, corrected: bool) -> float:
    """Still GB (or GB-epsilon when ``corrected``) with sphere-analytic radii."""
    r2 = np.sum(pos * pos, axis=1)
    eff = radius - r2 / radius
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    rr = np.outer(eff, eff)
    kernel = 1.0 / np.sqrt(d2 + rr * np.exp(-d2 / (4.0 * rr)))
    pref = -0.5 * COULOMB_KCAL * (1.0 / eps_in - 1.0 / eps_out)
    if corrected:
        ab = GB_ALPHA * eps_in / eps_out
        kernel = kernel + ab / radius
        pref /= 1.0 + ab
    return pref * float(q @ kernel @ q)


def method_energy(method: str, pos: np.ndarray, q: np.ndarray, spectrum: np.ndarray,
                  radius: float, eps_in: float, eps_out: float, lam: float) -> float:
    """Reference energy for any method name the program's CLI accepts."""
    if method in ("gb", "gbeps"):
        return gb_energy(pos, q, radius, eps_in, eps_out, corrected=method == "gbeps")
    return series_energy(spectrum, method, radius, eps_in, eps_out, lam)
