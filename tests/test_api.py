"""The library's design rule, and the objects that carry their problem.

A front problem is stated once, in the object that holds it: a vector
``Profile`` carries its grid, speed and model, a ``ScalarProfile`` its
grid, speed and nonlinearity, a ``BoundPair`` its two bounds.  No public
function takes a model, a grid or a speed beside such an object, so the two
cannot disagree.
"""

import importlib
import inspect
import pkgutil
import re

import pytest

import pggwave
from pggwave import (SimConfig, derive_params, make_bounds, make_grid,
                     normalize_phase, perturb, run_simulation, solve_wave)

CARRIERS = re.compile(r"\b(Profile|ScalarProfile|BoundPair)\b")
CARRIED = re.compile(r"\b(ModelParams|Grid)\b")


def _public_functions():
    """(qualified name, function) for every function a module defines and
    exports in its ``__all__``."""
    for info in pkgutil.iter_modules(pggwave.__path__):
        mod = importlib.import_module(f"pggwave.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{info.name}.{name}", obj


def _takes_a_carried_value_beside_its_carrier(fn) -> bool:
    # annotations are strings under ``from __future__ import annotations``
    params = inspect.signature(fn).parameters.values()
    annotations = [str(p.annotation) for p in params]
    if not any(CARRIERS.search(a) for a in annotations):
        return False
    return any(CARRIED.search(a) or p.name == "c"
               for p, a in zip(params, annotations))


def test_the_walk_sees_the_library():
    names = {name for name, _ in _public_functions()}
    assert {"grid.residual", "wave.solve_wave", "dynamics.run_simulation",
            "spectrum.translation_mode_check"} <= names


def test_no_public_function_takes_what_its_profile_carries():
    offenders = sorted(name for name, fn in _public_functions()
                       if _takes_a_carried_value_beside_its_carrier(fn))
    assert offenders == []


@pytest.fixture(scope="module")
def other_front():
    """A front of a model other than the base one, on a coarse grid."""
    p = derive_params(0.3, 0.6)
    bp = make_bounds(p, 1.3, make_grid(20.0, 199))
    return p, bp, solve_wave(bp, tol=1e-10)[0]


def test_derived_profiles_carry_their_parents_problem(other_front):
    p, bp, prof = other_front
    assert bp.params is p
    assert prof.params is p
    run = run_simulation(prof, SimConfig(dt=0.01, t_end=0.02))
    derived = {
        "shifted_upper": bp.shifted_upper,
        "normalize_phase": normalize_phase(prof),
        "final_state": run.final_state,
        "perturb": perturb(prof, "gaussian", 1e-3),
    }
    for what, d in derived.items():
        assert d.params is p, what
        assert d.c == prof.c and d.grid is prof.grid, what
