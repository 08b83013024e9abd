"""Near-field beam tracking: channel model, trackers, and experiment harness.

A uniform linear array serves a moving reflector in its near field. The
package models the distance- and Doppler-exact channel, synthesizes echo
snapshots, and closes the loop between two trackers (per-CPI gradient ascent
on the echo likelihood, and an extended Kalman filter) and the predictive
transmit beamformer, with genie/far-field/periodic-feedback baselines.
"""

from .agdao import (
    DivergenceError,
    OptimizerTrace,
    VARIANTS,
    VelocityProblem,
    adam_ao_estimate,
    agdao_track_step,
    estimate_velocity,
    gd_estimate,
)
from .beamforming import (
    fd_predicted_state,
    feedback_latch_index,
    ff_beamformers,
    opt_beamformers,
    predictive_beamformers,
)
from .config import (
    METHODS,
    AdamHyper,
    ConfigError,
    ExperimentConfig,
    SystemConfig,
    build_config,
    dbm_to_watts,
    save_config,
)
from .ekf import (
    FilterHealthError,
    TrackerBelief,
    UpdateDiagnostics,
    ekf_forecast,
    ekf_track_step,
    kalman_update,
    observation_jacobian,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    DegeneratePositionError,
    NearField,
    PathlossModel,
    ProjectionKinkError,
    antenna_positions,
    array_response,
    doppler_vector,
    downlink_channel,
    element_distances,
    element_offsets,
    pathloss,
    projection_coeffs,
    roundtrip_channel,
    steering_vector,
    unit_phasor,
)
from .harness import (
    BeliefRow,
    MetricRow,
    RunResult,
    SweepRow,
    TRACE_COLUMNS,
    convergence_study,
    power_sweep,
    read_metrics_csv,
    run_experiment,
    stream,
    write_belief_csv,
    write_metrics_csv,
    write_summary_csv,
    write_trace_csv,
)
from .motion import (
    MotionNoise,
    generate_trajectory,
    kinematic_forecast,
    transition_matrix,
)
from .signals import (
    BeamNormError,
    check_unit_norm,
    complex_gaussian,
    cpi_throughput,
    echo_amplitude,
    observation_mean,
    received_snr,
    synthesize_observation,
)

__version__ = "0.1.0"
