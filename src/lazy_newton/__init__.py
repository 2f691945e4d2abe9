"""Delayed Newtonian gravity with an exponential memory kernel.

The potential of a moving point source is the kernel-weighted average of
instantaneous Newton potentials over the source's past positions, evaluated
in the source's co-moving free-fall frame. tau_g = 0 recovers ordinary
Newtonian gravity exactly.
"""

from .constants import G
from .errors import (
    AdaptiveBudgetExceeded, ConfigError, LazyNewtonError, RegimeError, SingularApproach
)
from .evaluator import (
    GaussLegendre,
    KernelParams,
    Source,
    delayed_field,
    delayed_potential,
    delayed_potential_naive,
    kernel_weights,
    prepare_scene,
    prepare_scenes,
    scene_potential_field,
    scene_potential_fields,
    superposed_potential,
)
from .frames import (
    AmbientField,
    FreeFallFrame,
    PointMassField,
    UniformField,
    ZeroField,
    build_frame,
    build_frames,
    nongrav_accel,
    relative_source_path,
)
from .kinematics import (
    CircularOrbit,
    PiecewiseStatic,
    Sampled,
    Static,
    Trajectory,
    UniformAcceleration,
    UniformVelocity,
)
from .scenarios import (
    ScenarioReport,
    ShiftFit,
    boost_demo,
    estimate_tau_g,
    fit_apparent_shift,
    jump_scenario,
    orbit_scenario,
    probe_shell,
    static_shift_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "G",
    "LazyNewtonError",
    "SingularApproach",
    "RegimeError",
    "ConfigError",
    "AdaptiveBudgetExceeded",
    "Trajectory",
    "Static",
    "UniformVelocity",
    "UniformAcceleration",
    "CircularOrbit",
    "PiecewiseStatic",
    "Sampled",
    "AmbientField",
    "ZeroField",
    "UniformField",
    "PointMassField",
    "FreeFallFrame",
    "nongrav_accel",
    "build_frame",
    "build_frames",
    "relative_source_path",
    "GaussLegendre",
    "KernelParams",
    "Source",
    "kernel_weights",
    "delayed_potential_naive",
    "delayed_potential",
    "delayed_field",
    "superposed_potential",
    "prepare_scene",
    "prepare_scenes",
    "scene_potential_field",
    "scene_potential_fields",
    "ScenarioReport",
    "ShiftFit",
    "probe_shell",
    "fit_apparent_shift",
    "estimate_tau_g",
    "static_shift_scenario",
    "orbit_scenario",
    "jump_scenario",
    "boost_demo",
    "__version__",
]
