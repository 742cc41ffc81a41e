"""System configuration, construction, and the trace-driven simulator."""

from repro.sim.config import (
    CacheConfig,
    SimulationConfig,
    SystemConfig,
    TimingConfig,
    make_system_config,
)
from repro.sim.simulator import SimulationResult, Simulator, quick_run
from repro.sim.system import System, build_system

__all__ = [
    "CacheConfig",
    "SimulationConfig",
    "SystemConfig",
    "TimingConfig",
    "make_system_config",
    "SimulationResult",
    "Simulator",
    "quick_run",
    "System",
    "build_system",
]
