"""Objective-function-free trust-region optimization toolkit."""

import contextlib
import ctypes

# Pin glibc's M_MMAP_THRESHOLD (-3): once it rises, n x n matrices share the heap
# and a run's peak memory depends on the order of small allocations (no-op elsewhere).
with contextlib.suppress(AttributeError, OSError, TypeError):
    ctypes.CDLL(None).mallopt(-3, 1 << 20)

from .problems import (
    CapabilityError,
    CatalogError,
    DimensionError,
    NoisyOracle,
    NonFiniteError,
    ProblemInstance,
    apply_noise,
    catalog,
    default_suite,
    evaluate,
    make_problem,
)
from .scaling import ScalingRule, ScalingState, as4_floor, new_state, rule_from_name, update, weights
from .hessian import make_model
from .solver import Astr1Config, IterationTrace, astr1_run, cauchy_step, sdba_run, solve_subproblem, trust_radius
from .theory import (
    TheoryParams,
    bracket_threshold,
    check_bracket,
    check_decrease,
    check_envelope,
    envelope_constant,
    lambert_w_m1,
    params_for_run,
    series_bound,
)
from .sharpness import SharpSequence, build_sequence, hermite_build, replay, zeta
from .bench import METHODS, ProfileReport, RunRecord, emit, perf_profile, run_matrix, run_one

__version__ = "0.1.0"

__all__ = [
    "Astr1Config",
    "CapabilityError",
    "CatalogError",
    "DimensionError",
    "IterationTrace",
    "METHODS",
    "NoisyOracle",
    "NonFiniteError",
    "ProblemInstance",
    "ProfileReport",
    "RunRecord",
    "ScalingRule",
    "ScalingState",
    "SharpSequence",
    "TheoryParams",
    "apply_noise",
    "as4_floor",
    "astr1_run",
    "bracket_threshold",
    "build_sequence",
    "catalog",
    "cauchy_step",
    "check_bracket",
    "check_decrease",
    "check_envelope",
    "default_suite",
    "emit",
    "envelope_constant",
    "evaluate",
    "hermite_build",
    "lambert_w_m1",
    "make_model",
    "make_problem",
    "new_state",
    "params_for_run",
    "perf_profile",
    "replay",
    "rule_from_name",
    "run_matrix",
    "run_one",
    "sdba_run",
    "series_bound",
    "solve_subproblem",
    "trust_radius",
    "update",
    "weights",
    "zeta",
]
