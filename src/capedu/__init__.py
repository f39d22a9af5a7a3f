"""capedu: simulation and stability analysis of a capital-education growth model."""

from .analysis import (
    EquilibriumReport,
    Stability,
    classify,
    controlled_equilibrium,
    eigen_basic,
    equilibrium,
    equilibrium_report,
    invariant_manifold,
    jacobian_basic,
)
from .chaos import running_average, simulate_modulated, simulate_ne9
from .control import TippingResult, find_tipping, simulate_controlled
from .errors import (
    CapEduError,
    DomainError,
    NonFiniteState,
    NoSignChange,
    StepLimitExceeded,
    StructurallyUnstable,
    ValidationError,
)
from .integrator import IntegratorSettings, IntegratorStats, RawTrajectory, integrate
from .model import EconState, ModelParams, output
from .scenario_io import (
    ChaosSpec,
    ControlSpec,
    PhasePortrait,
    Scenario,
    SweepRow,
    SweepSpec,
    dump_scenario,
    load_scenario,
    phase_portrait,
    render_svg,
    run_scenario,
    run_sweep,
    write_phase_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .trajectory import Trajectory

__version__ = "0.1.0"
