"""Property tests of the sphere engine over generated charge sets.

They add to the seeded ensembles of ``test_acceptance`` (``test_03``'s 1000
configurations) and shrink any counterexample to a small charge set.  The
examples are derandomized, so a run is reproducible.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import solvbie as sv
from conftest import chunk_of
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import PAIR_CROSSOVER, ensemble_energies

settings.register_profile("solvbie", max_examples=100, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("solvbie")

RADIUS = 5.0
EPS_BIO = sv.DielectricPair(4.0, 80.0)
METHODS = ("kirkwood", "cfa", "p", "lambda", "m", "gb", "gbeps")
#: Set sizes on both sides of the crossover at n_max 25.
MAX_CHARGES = (PAIR_CROSSOVER + 1) * 26



def charge_rows(bound):
    """Charges (x, y, z, q) with each coordinate within ``bound`` and |q| <= 1."""
    coordinate = st.floats(-bound, bound, allow_subnormal=False)
    return st.tuples(coordinate, coordinate, coordinate,
                     st.floats(-1.0, 1.0, allow_subnormal=False))


# Each coordinate within 2.8 puts every charge within 4.85 < 0.999 b of the center.
charge = charge_rows(2.8)
#: Charges anywhere in the spectra's unit ball (within 0.57 * sqrt(3) < 0.99 of
#: the center), on the z axis (u = x + iy = 0) or at the origin.
unit_charge = charge_rows(0.57)
special_charge = st.one_of(
    unit_charge,
    unit_charge.map(lambda c: (0.0, 0.0, c[2], c[3])),
    unit_charge.map(lambda c: (0.0, 0.0, 0.0, c[3])),
)


def charge_sets(max_size, rows=charge, min_size=1):
    return st.lists(rows, min_size=min_size, max_size=max_size).map(
        lambda rows: sv.make_distribution([r[:3] for r in rows], [r[3] for r in rows]))


def spectrum_scale(dists, n_max):
    """sum_ij |q_i q_j| (r_i r_j)^n per set and mode: S_n bounds and rounding are relative to it."""
    pos, q = chunk_of(dists)
    powers = np.linalg.norm(pos, axis=-1)[:, None, :] ** np.arange(n_max + 1)[:, None]
    return np.sum(np.abs(q)[:, None, :] * powers, axis=-1) ** 2


def energy_scale(dist) -> float:
    """Bound on |E| of every sphere method here: k_e (sum|q|)^2 / (b (1 - (r_max/b)^2))."""
    t = (np.max(np.linalg.norm(dist.positions, axis=1)) / RADIUS) ** 2
    return COULOMB_KCAL * np.sum(np.abs(dist.magnitudes)) ** 2 / (RADIUS * (1.0 - t))


def energies(dist, n_max=25):
    model = sv.SphereModel(RADIUS, EPS_BIO, n_max)
    return ensemble_energies(*chunk_of([dist]), model, METHODS, -0.15)[0][0]


AXIS_AND_ORIGIN = [sv.make_distribution([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.2, -0.4, 0.1]],
                                        [0.5, -1.0, 0.75])]
#: Two tiny charges at the origin: S_0 = (2q)^2 = 5.36e-315 is subnormal.
SUBNORMAL_S0 = [sv.make_distribution(np.zeros((2, 3)), [3.66121155e-158] * 2)]


@given(st.integers(0, 20).flatmap(lambda n_max: st.tuples(st.just(n_max), st.lists(
    charge_sets(2 * (n_max + 1), special_charge), min_size=1, max_size=3))))
@example((0, AXIS_AND_ORIGIN))
@example((1, AXIS_AND_ORIGIN))
@example((0, SUBNORMAL_S0))
def test_solid_spectrum_equals_pair_spectrum(case):
    # Each set of a different size is its own chunk.
    n_max, dists = case
    for dist in dists:
        solid = sv.solid_spectrum(*chunk_of([dist]), n_max)
        pairs = sv.pair_spectrum(*chunk_of([dist]), n_max)
        assert solid.shape == pairs.shape == (1, n_max + 1)
        assert np.all(np.abs(solid - pairs) <= 1e-12 * spectrum_scale([dist], n_max))


@given(st.integers(0, 20), st.integers(1, 40).flatmap(lambda size: st.lists(
    charge_sets(size, special_charge, min_size=size), min_size=7, max_size=7)))
@settings(max_examples=25)
def test_solid_spectrum_of_a_set_does_not_depend_on_its_chunk(n_max, dists):
    chunk = sv.solid_spectrum(*chunk_of(dists), n_max)
    for dist, row in zip(dists, chunk):
        assert np.array_equal(sv.solid_spectrum(*chunk_of([dist]), n_max)[0], row)


@given(charge_sets(MAX_CHARGES), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_energies_invariant_under_rotation(dist, quaternion):
    w, x, y, z = quaternion
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    if norm < 1e-3:
        w, x, y, z, norm = 1.0, 0.0, 0.0, 0.0, 1.0
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    # The rotated charges stay inside the cavity: their norms do not grow past 4.85.
    turned = sv.make_distribution(dist.positions @ rotation.T, dist.magnitudes)
    assert np.all(np.abs(energies(turned) - energies(dist)) <= 1e-11 * energy_scale(dist))


@given(charge_sets(MAX_CHARGES), st.floats(-4.0, 4.0, allow_subnormal=False))
def test_energies_homogeneous_of_degree_two_in_charge(dist, factor):
    scaled = sv.make_distribution(dist.positions, factor * dist.magnitudes)
    assert np.all(np.abs(energies(scaled) - factor ** 2 * energies(dist))
                  <= 1e-11 * factor ** 2 * energy_scale(dist))


@given(charge_sets(MAX_CHARGES), st.integers(0, 30))
def test_cfa_bounds_kirkwood_bounds_p(dist, n_max):
    kirkwood, cfa, p = energies(dist, n_max)[:3]
    slack = 1e-12 * energy_scale(dist)
    assert cfa >= kirkwood - slack
    assert kirkwood >= p - slack
