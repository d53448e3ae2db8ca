"""Bayesian sliding-window CFAR detectors for radar intensity data.

Closed-form order-statistic detection in exponential clutter, generic
predictive-density machinery for one- and two-parameter clutter models, and
a reproducible Monte Carlo harness that certifies the constant false alarm
rate property empirically.
"""

from .clutter_models import (
    CrpWindow,
    ExponentialClutter,
    ParetoClutter,
    kth_order_statistic,
    os_density,
    sample,
    window_sum,
)
from .detectors import (
    ConfigurationError,
    Decision,
    DecisionPath,
    DegenerateWindowError,
    DetectorSpec,
    Family,
    ScanResult,
    Verdict,
    WindowLayout,
    bayes_os_decide,
    bayes_os_threshold,
    ca_cfar_decide,
    custom_g_decide,
    min_cfar_decide,
    scan_profile,
    threshold_multiplier,
)
from .numerics import (
    EvaluationError,
    NumericsError,
    QuadratureError,
    QuadratureResult,
    QuadratureSettings,
    RootFindingError,
    TargetUnreachableError,
    integrate_semi_infinite,
    solve_monotone_decreasing,
)
from .predictive import (
    OsPredictive,
    PredictiveModel,
    generic_pfa,
    generic_predictive_density,
    os_pfa,
    os_pfa_quadrature,
    os_predictive_density,
    posterior_lambda_os,
)
from .simulate import (
    Scenario,
    SimReport,
    TargetModel,
    cfar_sweep,
    estimate_pd,
    estimate_pfa,
    max_pairwise_deviation_se,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "CrpWindow",
    "ConfigurationError",
    "Decision",
    "DecisionPath",
    "DegenerateWindowError",
    "DetectorSpec",
    "EvaluationError",
    "ExponentialClutter",
    "Family",
    "NumericsError",
    "OsPredictive",
    "ParetoClutter",
    "PredictiveModel",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureSettings",
    "RootFindingError",
    "ScanResult",
    "Scenario",
    "SimReport",
    "TargetModel",
    "TargetUnreachableError",
    "Verdict",
    "WindowLayout",
    "bayes_os_decide",
    "bayes_os_threshold",
    "ca_cfar_decide",
    "cfar_sweep",
    "custom_g_decide",
    "estimate_pd",
    "estimate_pfa",
    "generic_pfa",
    "generic_predictive_density",
    "integrate_semi_infinite",
    "kth_order_statistic",
    "max_pairwise_deviation_se",
    "min_cfar_decide",
    "os_density",
    "os_pfa",
    "os_pfa_quadrature",
    "os_predictive_density",
    "posterior_lambda_os",
    "sample",
    "scan_profile",
    "solve_monotone_decreasing",
    "threshold_multiplier",
    "wilson_interval",
    "window_sum",
]
