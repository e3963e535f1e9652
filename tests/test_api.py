"""The public names the benchmark in ``perfbench/`` imports, names that are gone, and the README.

An API trim that breaks the benchmark, or the README's quick start, fails here first.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import solvbie
import solvbie.bem
import solvbie.cli
import solvbie.experiments
import solvbie.harmonics
import solvbie.model
import solvbie.sphere

BENCHMARK_NAMES = [
    "solvbie.make_distribution",
    "solvbie.pairwise_kirkwood_energy",
    "solvbie.SphereModel",
    "solvbie.DielectricPair",
    "solvbie.sphere.kirkwood_energy",
    "solvbie.cli.main",
]

REMOVED = ["bibee_energy", "kirkwood_reaction_coefficients", "bibee_reaction_coefficients",
           "assoc_legendre", "legendre_table", "mode_spectrum", "ConsistencyError", "IMAG_TOL",
           "_factorial_ratio", "GBParameters", "sphere_gb_parameters", "pair_interaction_kirkwood",
           "METHOD_CFA", "METHOD_P", "METHOD_M", "MultipoleCoefficients", "KIND_SOURCE",
           "KIND_REACTION", "reaction_coefficients", "eval_interior_potential_many",
           "SurfaceField", "coulomb_field_rhs", "reaction_energy", "_rhs", "_energy",
           "random_sphere_config", "net_charge", "total_area"]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_name_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), attr))


def test_bem_solver_is_not_named_gmres():
    # The benchmark's tracer wraps any bem.gmres as SciPy's gmres(A, b, ...).
    assert not hasattr(solvbie.bem, "gmres")


def test_sphere_reexports_source_moments():
    # The benchmark's tracer wraps harmonics.source_moments and checks sphere's name is it.
    assert solvbie.sphere.source_moments is solvbie.harmonics.source_moments


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    for owner in (solvbie, solvbie.sphere, solvbie.harmonics, solvbie.experiments,
                  solvbie.bem, solvbie.model, solvbie.PanelSurface):
        assert not hasattr(owner, name)


def test_bem_stages_take_surface_from_their_input():
    # The stages take the (T,) right-hand side as a plain array beside its surface.
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(solvbie.exact_surface_charge) == ["rhs", "surf", "eps", "tol"]
    assert params(solvbie.bibee_surface_charge) == ["rhs", "surf", "eps", "variant"]
    fields = [f.name for f in dataclasses.fields(solvbie.SurfaceCharge)]
    assert fields == ["density", "method", "metadata"]


def test_readme_quick_start_runs_and_its_potential_gives_the_energy():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    charges, psi = names["charges"], names["psi"]
    energy = 0.5 * solvbie.COULOMB_KCAL * charges.magnitudes @ psi
    assert energy == pytest.approx(names["kirkwood"].value, rel=1e-12)
