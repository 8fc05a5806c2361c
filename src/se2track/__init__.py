"""Spatial group-error tracking control for the kinematic unicycle on SE(2).

The package splits along the math:

    se2            group/algebra arithmetic (poses, exp/log, adjoint)
    errors         body-fixed vs spatial tracking errors, Lyapunov value
    controller     the spatial tracking law and a body-frame baseline
    trajectories   flatness-consistent reference generation
    excitation     persistent-excitation certification
    linearization  linearized error dynamics + exponential-decay probe
    engine         fixed-step closed-loop simulation and batch experiments
    cli            command-line front end
"""

__version__ = "0.1.0"

from .controller import (
    Gains,
    KanayamaGains,
    correction_component_form,
    correction_matrix_form,
    kanayama_control,
    lyapunov_gradient,
    lyapunov_rate,
    regressor,
    total_control,
)
from .engine import (
    CSV_COLUMNS,
    BasinSummary,
    ComparisonRow,
    SimConfig,
    SimLog,
    SimulationDiverged,
    StepTooLarge,
    compare_controllers,
    monte_carlo_basin,
    simulate,
)
from .errors import (
    ErrorKind,
    GroupError,
    left_error,
    left_error_rate,
    lyapunov,
    right_error,
    right_error_rate,
    tracking_distance,
)
from .excitation import (
    PEReport,
    controller_regressor,
    ellipse_pe_closed_form,
    pe_epsilon,
    uniform_heading_ellipse_regressor,
    window_gram,
)
from .linearization import (
    DecayReport,
    LinCheckReport,
    actuation_gram,
    closed_loop_ltv,
    fd_closed_loop_jacobian,
    lin_check,
    stability_probe,
)
from .se2 import (
    ControlPair,
    Pose,
    adjoint_matrix,
    compose,
    exp_se2,
    frobenius_weighted,
    inverse,
    log_se2,
    rot,
    se2_project,
    vee,
    wedge,
    wrap_angle,
)
from .trajectories import (
    DesiredTrajectory,
    ellipse_trajectory,
    flow_consistency_residual,
    line_trajectory,
    trajectory_from_descriptor,
)

__all__ = [
    "__version__",
    # se2
    "Pose", "ControlPair", "wrap_angle", "rot", "wedge", "vee",
    "compose", "inverse", "adjoint_matrix", "exp_se2", "log_se2", "se2_project",
    "frobenius_weighted",
    # errors
    "ErrorKind", "GroupError", "left_error", "right_error", "left_error_rate",
    "right_error_rate", "lyapunov", "tracking_distance",
    # controller
    "Gains", "KanayamaGains", "correction_matrix_form", "correction_component_form",
    "total_control", "regressor", "lyapunov_gradient", "lyapunov_rate", "kanayama_control",
    # trajectories
    "DesiredTrajectory", "ellipse_trajectory", "line_trajectory",
    "trajectory_from_descriptor", "flow_consistency_residual",
    # excitation
    "PEReport", "window_gram", "pe_epsilon", "ellipse_pe_closed_form",
    "uniform_heading_ellipse_regressor", "controller_regressor",
    # linearization
    "DecayReport", "LinCheckReport", "actuation_gram", "fd_closed_loop_jacobian",
    "stability_probe", "closed_loop_ltv", "lin_check",
    # engine
    "SimConfig", "SimLog", "SimulationDiverged", "StepTooLarge", "simulate",
    "monte_carlo_basin",
    "CSV_COLUMNS",
    "BasinSummary", "compare_controllers", "ComparisonRow",
]
