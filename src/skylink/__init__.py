"""Link-engineering toolkit for intermodal free-space/fiber quantum communication.

Turbulence statistics, Zernike mode variances, single-mode-fiber coupling,
end-to-end link budgets, QKD rate accounting and Fried-parameter estimation
from wavefront-sensor logs, plus a synthetic data generator and a CLI.
"""

from .atmosphere import (
    OpticalPath,
    ScintillationReport,
    TurbulenceState,
    cn2_from_r0,
    greenwood_frequency,
    r0_from_cn2,
    rytov_variance,
    scale_r0_to_wavelength,
    scintillation_report,
)
from .coupling import (
    ReceiverChain,
    SmfCouplingBreakdown,
    compose_smf,
    coupling_from_power,
    eta0,
    eta_phi_on,
    eta_phi_residual,
    eta_tau,
    mode_match_beta,
    obscuration_ratio,
    optimize_beta,
)
from .estimation import FriedFit, fit_fried, load_wfs_log, predict_eta_smf, write_wfs_log
from .linkbudget import (
    BudgetReport,
    LinkGeometry,
    absorption_efficiency,
    beam_divergence,
    collection_efficiency,
    full_budget,
    model_smf_breakdown,
    received_waist,
    sweep_budget,
    sweep_columns,
)
from .qkd import (
    SNSPD,
    SPAD,
    DetectorModel,
    QkdSessionModel,
    RateObservation,
    analyze_session_log,
    calibrate_r_ref,
    channel_efficiency_from_rate,
    expected_qber,
    expected_signal_rate,
    load_session_log,
    secret_key_rate,
    windowed_noise_rate,
    write_session_log,
)
from .synth import SynthConfig, generate_series
from .units import format_db, from_db, to_db
from .zernike import (
    ModeVarianceSet,
    ZernikeSeries,
    empirical_variances,
    noll_weight,
    radial_order,
    residual_variance,
    turbulence_variance,
)

__version__ = "0.1.0"
