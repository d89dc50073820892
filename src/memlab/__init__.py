"""Simulation and analysis toolkit for memristive one-ports."""

from .core import (
    ConfigError,
    Drive,
    MemlabError,
    OnePort,
    SignalKind,
    Sinusoid,
    SquareWave,
    Trajectory,
    memristive,
)
from .integrate import (
    BlowUpError,
    EventLocalizationError,
    SimControls,
    SimulationError,
    simulate,
)
from .analyze import frequency_sweep, linearity_fit, loop_area, phi_q_classify, pinch_test
from .expdsl import (
    ParseError,
    build_model,
    builtin_presets,
    parse_experiment,
    serialize_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConfigError",
    "Drive",
    "EventLocalizationError",
    "MemlabError",
    "OnePort",
    "ParseError",
    "SignalKind",
    "SimControls",
    "SimulationError",
    "Sinusoid",
    "SquareWave",
    "Trajectory",
    "build_model",
    "builtin_presets",
    "frequency_sweep",
    "linearity_fit",
    "loop_area",
    "memristive",
    "parse_experiment",
    "phi_q_classify",
    "pinch_test",
    "serialize_experiment",
    "simulate",
]
