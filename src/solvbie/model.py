"""Core records: charge sets, dielectric pairs, sphere models, energies.

A charge set (``ChargeDistribution``) is one record of two read-only float
arrays, (Q, 3) positions and (Q,) magnitudes, checked once when it is built.

Unit conventions used throughout the package:

* lengths in Angstrom, charges in elementary charge units e,
* dielectric constants dimensionless,
* energies in kcal/mol, obtained by applying the Coulomb constant
  ``COULOMB_KCAL`` exactly once at energy assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyInputError, ParseError, read_text

#: Coulomb constant, kcal mol^-1 Angstrom e^-2 (CHARMM convention).
COULOMB_KCAL = 332.0636


@dataclass(frozen=True, eq=False)
class ChargeDistribution:
    """A non-empty set of Q point charges: (Q, 3) positions in Angstrom, (Q,) magnitudes in e.

    Both arrays are copied to float, checked finite and made read-only at
    construction.  Equality and hashing go by identity.
    """

    positions: np.ndarray
    magnitudes: np.ndarray
    label: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float).reshape(-1, 3)
        q = np.array(self.magnitudes, dtype=float).ravel()
        if pos.shape[0] != q.shape[0]:
            raise DomainError(f"{pos.shape[0]} positions but {q.shape[0]} magnitudes")
        if q.size == 0:
            raise EmptyInputError("charge distribution must contain at least one charge")
        bad = np.nonzero(~(np.all(np.isfinite(pos), axis=1) & np.isfinite(q)))[0]
        if bad.size:
            k = bad[0]
            raise DomainError(
                f"non-finite charge {k}: position {pos[k].tolist()}, magnitude {q[k]}")
        for name, arr in (("positions", pos), ("magnitudes", q)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.magnitudes.size


#: The class itself, under the name of the former builder function.
make_distribution = ChargeDistribution


@dataclass(frozen=True)
class DielectricPair:
    """Interior/exterior dielectric constants of the two-region model."""

    eps_in: float
    eps_out: float

    def __post_init__(self):
        # A subnormal or infinite constant overflows eps_hat and the mode factors.
        tiny = np.finfo(float).tiny
        for name in ("eps_in", "eps_out"):
            eps = getattr(self, name)
            if not (math.isfinite(eps) and eps >= tiny):
                raise DomainError(
                    f"dielectric constant {name} must be finite and at least {tiny:g}, got {eps}")
        # Past a finite ratio the smaller constant vanishes against the larger.
        if not (math.isfinite(self.eps_in / self.eps_out)
                and math.isfinite(self.eps_out / self.eps_in)):
            raise DomainError(f"dielectric ratio eps_in/eps_out = {self.eps_in:g}/"
                              f"{self.eps_out:g} overflows")

    def scaled(self) -> tuple[float, float, float]:
        """(eps_in / s, eps_out / s, s), s the largest power of two <= max(eps_in, eps_out).

        Dividing by a power of two is exact, so any ratio of the scaled pair
        equals that of the pair bit for bit; but the scaled pair lies in
        (0, 2), so its sums and products cannot overflow at extreme eps, and
        the finite ratio keeps the smaller one above 5e-309.
        """
        s = math.ldexp(1.0, math.frexp(max(self.eps_in, self.eps_out))[1] - 1)
        return self.eps_in / s, self.eps_out / s, s

    @property
    def eps_hat(self) -> float:
        """Dielectric contrast (eps_in - eps_out) / ((eps_in + eps_out)/2).

        Always in (-2, 2) for positive dielectrics.
        """
        e1, e2, _ = self.scaled()
        return (e1 - e2) / (0.5 * (e1 + e2))


@dataclass(frozen=True)
class SphereModel:
    """Spherical cavity of radius b with a dielectric pair and series cutoff."""

    radius: float
    dielectrics: DielectricPair
    n_max: int = 25

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise DomainError(f"sphere radius must be positive and finite, got {self.radius}")
        if self.n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {self.n_max}")


@dataclass(frozen=True)
class EnergyResult:
    """A solvation free energy in kcal/mol, tagged with the producing method."""

    value: float
    method: str
    truncation_error_estimate: float | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"non-finite energy {self.value} for method {self.method}")
        if self.truncation_error_estimate is not None and self.truncation_error_estimate < 0:
            raise DomainError("truncation error estimate must be nonnegative")


def load_pqr(path, read=read_text) -> ChargeDistribution:
    """Read point charges from a PQR file.

    Both whitespace-aligned and free-form PQR dialects are tolerated; the
    chain field may be present or absent.  For each ATOM/HETATM record the
    last two numeric fields are taken as charge and radius, and the three
    fields before them as x, y, z.  Radii are not used for any surface
    construction; per-atom radii are kept in the distribution metadata.
    ``read(path)`` gives the file's text, as for ``mesh.load_off``.
    """
    rows = []
    for lineno, line in enumerate(read(path).split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0] not in ("ATOM", "HETATM"):
            continue
        if len(fields) < 7:
            raise ParseError(f"{path}:{lineno}: too few fields in PQR record")
        try:
            rows.append([float(v) for v in fields[-5:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field ({exc})") from None
    if not rows:
        raise EmptyInputError(f"{path}: no ATOM/HETATM records found")
    data = np.array(rows)
    return ChargeDistribution(data[:, :3], data[:, 3], str(path),
                              {"pqr_radii": data[:, 4].tolist()})
