"""The public names the benchmark in ``perfbench/`` imports, and names that are gone.

An API trim that breaks the benchmark fails here first.
"""

import importlib
import inspect

import pytest

import solvbie
import solvbie.bem
import solvbie.cli
import solvbie.harmonics
import solvbie.sphere

BENCHMARK_NAMES = [
    "solvbie.make_distribution",
    "solvbie.pairwise_kirkwood_energy",
    "solvbie.SphereModel",
    "solvbie.DielectricPair",
    "solvbie.sphere.kirkwood_energy",
    "solvbie.cli.main",
    "solvbie.bem.gmres",
]

REMOVED = ["bibee_energy", "kirkwood_reaction_coefficients", "bibee_reaction_coefficients",
           "assoc_legendre", "legendre_table", "mode_spectrum"]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_name_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), attr))


def test_sphere_reexports_source_moments():
    # The benchmark's tracer wraps harmonics.source_moments and checks sphere's name is it.
    assert solvbie.sphere.source_moments is solvbie.harmonics.source_moments


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    for module in (solvbie, solvbie.sphere, solvbie.harmonics):
        assert not hasattr(module, name)


def test_bem_stages_take_surface_from_their_input():
    assert list(inspect.signature(solvbie.exact_surface_charge).parameters) == ["rhs", "eps", "tol"]
    assert list(inspect.signature(solvbie.reaction_energy).parameters) == ["sigma", "dist"]
