import numpy as np
import pytest

import solvbie as sv
from solvbie.mesh import build_surface


@pytest.fixture(scope="session")
def sphere_meshes():
    """Icosphere refinement ladder at radius 5 Angstrom (320/1280/5120 panels)."""
    return {20 * 4 ** s: sv.icosphere(5.0, s) for s in (2, 3, 4)}


@pytest.fixture(scope="session")
def mesh_320(sphere_meshes):
    return sphere_meshes[320]


@pytest.fixture(scope="session")
def mesh_1280(sphere_meshes):
    return sphere_meshes[1280]


def random_ball_distribution(seed, index, count=25, radius=5.0, margin=0.95,
                             max_q=0.5):
    """Seeded random charges in a ball, independent of the experiments module."""
    rng = np.random.default_rng([seed, index])
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = margin * radius * rng.random(count) ** (1.0 / 3.0)
    q = rng.uniform(-max_q, max_q, count)
    return sv.make_distribution(dirs * r[:, None], q)


def rotate_about_z(dist, angle):
    """Rotate all charge positions about the z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return sv.make_distribution(dist.positions() @ rot.T, dist.magnitudes(), dist.label)


def scaled_surface(surf, factor):
    """Uniformly scaled copy of a surface."""
    return build_surface(surf.vertices * factor, surf.triangles.copy())
