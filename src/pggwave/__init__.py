"""Traveling fronts of a public-goods-game reaction-diffusion system.

Library surface, one module per concern:

- ``model``     constants, reaction, Jacobian, coordinate maps, speed verdict
- ``grid``      uniform grid, profiles as knot arrays (Dirichlet data in
                the end rows), the one stencil (explicit and banded), the
                linearization's bands, the sweep-Newton loop of both front
                solves, phase translation, profile I/O
- ``kpp``       scalar front solves seeding the bounds
- ``bounds``    vector upper/lower solutions, inequality margins, ordering
- ``wave``      monotone iteration with Newton steps, phase normalization,
                decay fits
- ``spectrum``  essential-spectrum geometry, weighted operator, eigensolves
- ``dynamics``  IMEX time stepping and the stability/instability/spreading runs
- ``cli``       reproducible command-line experiments
"""

from .bounds import (BoundPair, build_bound, default_l, make_bounds,
                     order_shift, verify_bound)
from .dynamics import (SimConfig, Trace, fit_decay_constant,
                       instability_experiment, perturb, run_simulation,
                       spreading_experiment, spreading_speed,
                       stability_experiment, weighted_norm)
from .grid import (Grid, Profile, apply_advection_diffusion, load_profile,
                   make_grid, residual, save_profile)
from .kpp import (KppNonlinearity, ScalarProfile, lower_nonlinearity,
                  solve_kpp, upper_nonlinearity)
from .model import (ModelParams, SpeedVerdict, StateVec, derive_params,
                    jacobian, reaction, subcritical_verdict, to_original)
from .spectrum import (OperatorMatrix, SpectrumReport, WeightPair,
                       WeightWindow, assemble_weighted_operator,
                       essential_spectrum_max, spectrum_curves,
                       translation_mode_check, weight_window)
from .wave import (DecayFit, IterationReport, check_monotone,
                   derivative_profile, fit_decay, normalize_phase, solve_wave)

__version__ = "0.1.0"
