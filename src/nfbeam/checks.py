"""Built-in oracle suites behind the `check` subcommand.

Quick independent cross-checks of the analytic pieces: geometry identities,
the beam and channel phasor rows against their direct phases, the
closed-form matched-filter SNR, finite differences against the velocity
gradient, the observation Jacobian and the velocity Fisher matrix (the
closed-loop MAP step's Gram), and a square-root-information Kalman
update on the dense stacked-real Jacobian against the production low-rank
form on the factored Jacobian.
"""
from __future__ import annotations

import numpy as np

from . import geometry as geo
from .agdao import VelocityProblem
from .beamforming import ff_beamformers, predictive_beamformers
from .config import SystemConfig
from .ekf import TrackerBelief, kalman_update, observation_jacobian, velocity_jacobian
from .signals import cpi_throughput, observation_mean, synthesize_observation


def _conventions(m: int, **link) -> tuple[SystemConfig, SystemConfig]:
    """The default link with m antennas, under the magnitude and the signed projection."""
    return tuple(
        SystemConfig(num_antennas=m, signed_projection=signed, **link) for signed in (False, True)
    )


def _random_state(rng) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity, shape (2,) each, of a random [x, y, vx, vy]."""
    # x kept beyond the aperture so magnitude-projection kinks stay far away
    eta = np.array([
        rng.uniform(1.5, 8.0), rng.uniform(5.0, 30.0),
        rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0),
    ])
    return eta[:2], eta[2:]


def check_geometry(seed: int):
    """Unit modulus, projection identity, and echo-channel rank-1 symmetry."""
    rng = np.random.default_rng(seed)
    systems = _conventions(64)
    n = systems[0].symbols_per_cpi
    worst_mod = 0.0
    worst_proj = 0.0
    worst_rank = 0.0
    worst_sym = 0.0
    smalls = _conventions(16)
    for t in range(200):
        p, v = _random_state(rng)
        nf = geo.NearField(systems[t % 2], p)
        a = geo.array_response(n, v, nf)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(a) - 1.0))))
        worst_proj = max(worst_proj, float(np.max(np.abs(nf.g * nf.g + nf.q * nf.q - 1.0))))
        if t < 20:
            h = geo.roundtrip_channel(n, v, geo.NearField(smalls[t % 2], p))
            worst_sym = max(worst_sym, float(np.max(np.abs(h - h.T))))
            s = np.linalg.svd(h, compute_uv=False)
            worst_rank = max(worst_rank, float(s[1] / np.linalg.norm(h)))
    ok = worst_mod < 1e-12 and worst_proj < 1e-12 and worst_sym < 1e-12 and worst_rank < 1e-10
    return ok, (
        f"modulus {worst_mod:.2e}, g^2+q^2 {worst_proj:.2e}, "
        f"symmetry {worst_sym:.2e}, rank-1 residual {worst_rank:.2e}"
    )


def check_beam_phasors(seed: int):
    """Doppler rows built by recurrence and far-field beams built as outer
    products, each against the phasor of its direct phase."""
    rng, trials = np.random.default_rng(seed), 40
    num_symbols = 64  # the recurrence's error grows with the row index
    systems = _conventions(128, symbols_per_cpi=num_symbols)
    ts = systems[0].symbol_duration_s
    n = np.arange(1, num_symbols + 1)
    x_m = geo.element_offsets(systems[0])
    worst_dop = 0.0
    worst_ff = 0.0
    for t in range(trials):
        p, v = _random_state(rng)
        system = systems[t % 2]
        nf = geo.NearField(system, p)
        d = geo.symbol_dopplers(v, nf)
        for row, sym in zip(d, n.tolist()):
            direct = geo.doppler_vector(sym, v, nf)
            worst_dop = max(worst_dop, float(np.max(np.abs(row - direct))))
        u = p / np.linalg.norm(p)
        v_r = float(v @ u)
        phase = system.wavenumber * (n[:, None] * ts * v_r + x_m * u[0])
        want = np.exp(-1j * phase) / np.sqrt(system.num_antennas)
        got = ff_beamformers(system, p, v)
        worst_ff = max(worst_ff, float(np.max(np.abs(got - want))))
    ok = worst_dop < 1e-12 and worst_ff < 1e-12
    return ok, f"Doppler rows {worst_dop:.2e}, far-field beams {worst_ff:.2e} over {trials} states"


def check_mrt_snr(seed: int):
    """Matched filter at the true state hits P*M*alpha1^2/sigma_c^2 exactly."""
    rng, trials = np.random.default_rng(seed), 100
    system = SystemConfig(num_antennas=64)
    power_w, sigma_c2 = system.tx_power_w, system.comm_noise_power
    worst = 0.0
    for _ in range(trials):
        p, v = _random_state(rng)
        nf = geo.NearField(system, p)
        rate = cpi_throughput(nf, v, predictive_beamformers(nf, v))
        alpha1 = system.ref_gain / (p[0] * p[0] + p[1] * p[1])
        snr = power_w * system.num_antennas * alpha1 ** 2 / sigma_c2
        expected = float(np.log2(1.0 + snr))
        worst = max(worst, abs(rate - expected) / expected)
    return worst < 1e-9, f"max rel error {worst:.2e} over {trials} states"


def _spot_instance(rng, system):
    p, v = _random_state(rng)
    nf_hat = geo.NearField(system, p + rng.normal(0.0, 0.05, 2))
    v_trial = rng.uniform(-15.0, 15.0, 2)
    bf = predictive_beamformers(nf_hat, v_trial)
    y = synthesize_observation(geo.NearField(system, p), v, bf, rng)
    return nf_hat, v_trial, bf[-1], y


def check_gradient(seed: int):
    """Analytic velocity gradient vs central differences of the objective."""
    rng, trials = np.random.default_rng(seed), 20
    systems = _conventions(64)
    step = 1e-4
    worst = 0.0
    for t in range(trials):
        nf_hat, v, f, y = _spot_instance(rng, systems[t % 2])
        evaluate = VelocityProblem(y, nf_hat, f).evaluate
        for axis, e in ((0, np.array([1.0, 0.0])), (1, np.array([0.0, 1.0]))):
            hi = evaluate(*(v + step * e))[0]
            lo = evaluate(*(v - step * e))[0]
            fd = (hi - lo) / (2.0 * step)
            an = evaluate(*v)[1 + axis]
            worst = max(worst, abs(an - fd) / max(abs(fd), 1e-12))
    return worst < 1e-5, f"max rel error {worst:.2e} over {trials} instances"


def _fd4(fun, x0, step):
    """4th-order central difference of a vector-valued function."""
    return (
        8.0 * (fun(x0 + step) - fun(x0 - step)) - (fun(x0 + 2 * step) - fun(x0 - 2 * step))
    ) / (12.0 * step)


def check_jacobian(seed: int):
    """Analytic observation Jacobian vs finite differences, all four columns."""
    rng, trials = np.random.default_rng(seed), 10
    systems = _conventions(64)
    pos_step, vel_step = 1e-4, 1e-4
    worst = 0.0
    for t in range(trials):
        system = systems[t % 2]
        p, v = _random_state(rng)
        nf = geo.NearField(system, p)
        f = predictive_beamformers(nf, v)[-1]
        jac = np.asarray(observation_jacobian(nf, v, f))

        def mean_at(eta):
            return observation_mean(geo.NearField(system, eta[:2]), eta[2:], f)

        base = np.concatenate([p, v])
        for col in range(4):
            e = np.zeros(4)
            e[col] = 1.0
            step = pos_step if col < 2 else vel_step
            if col < 2:
                fd = _fd4(lambda s: mean_at(base + s * e), 0.0, step)
            else:
                fd = (mean_at(base + step * e) - mean_at(base - step * e)) / (2.0 * step)
            err = np.linalg.norm(jac[:, col] - fd) / np.linalg.norm(fd)
            worst = max(worst, float(err))
    return worst < 1e-4, f"max column rel error {worst:.2e} over {trials} states"


def check_velocity_fisher(seed: int):
    """G_vv = Re(J_v^H J_v) from velocity_jacobian's Gram vs central
    differences of the echo mean, with the beam up to 0.5 m/s off the velocity."""
    rng, trials = np.random.default_rng(seed), 20
    systems = _conventions(64)
    step = 1e-5
    worst = 0.0
    for t in range(trials):
        system = systems[t % 2]
        p, v = _random_state(rng)
        nf = geo.NearField(system, p)
        f = predictive_beamformers(nf, v + rng.uniform(-0.5, 0.5, 2))[-1]
        gram, _ = velocity_jacobian(nf, v, f).gram_and_score(np.zeros(system.num_antennas))
        cols = [
            (observation_mean(nf, v + step * e, f) - observation_mean(nf, v - step * e, f))
            / (2.0 * step)
            for e in np.eye(2)
        ]
        jac = np.column_stack(cols)
        ref = (jac.conj().T @ jac).real
        worst = max(worst, float(np.linalg.norm(gram - ref) / np.linalg.norm(ref)))
    return worst < 1e-8, f"max rel error {worst:.2e} over {trials} states"


def _dense_reference_update(prior, y, jac, predicted_mean, echo_noise_power):
    """Square-root-information Kalman update on the stacked-real J; an oracle only.

    With P = L L^T and r the per-part noise variance, the QR of
    A = [J_r / sqrt(r); L^-1] gives the posterior information A^T A = R^T R,
    so delta = R^-1 Q^T b with b = [nu_r / sqrt(r); 0] and P_post = R^-1 R^-T.
    It forms no 2M x 2M innovation covariance and shares no algebra with
    kalman_update.
    """
    nu = np.asarray(y) - np.asarray(predicted_mean)
    j_r = np.vstack([np.real(jac), np.imag(jac)])
    nu_r = np.concatenate([np.real(nu), np.imag(nu)])
    sqrt_r = np.sqrt(echo_noise_power / 2.0)
    l_inv = np.linalg.inv(np.linalg.cholesky(np.asarray(prior.covariance, dtype=float)))
    q, r = np.linalg.qr(np.vstack([j_r / sqrt_r, l_inv]))
    r_inv = np.linalg.inv(r)
    delta = r_inv @ (q[: len(nu_r)].T @ (nu_r / sqrt_r))
    cov = r_inv @ r_inv.T
    return prior.mean + delta, 0.5 * (cov + cov.T)


def check_kalman(seed: int):
    """Low-rank update on the factored Jacobian vs the square-root-information
    reference on its dense expansion.

    Two noise regimes: a well-conditioned one, and the operating echo noise,
    where the production update's 4 x 4 system has cond ~1e9 and the two
    routes agree to ~1e-10.
    """
    rng = np.random.default_rng(seed)
    systems = _conventions(8)
    worst_sharp = 0.0
    worst_op = 0.0
    for t in range(10):
        p, v = _random_state(rng)
        nf = geo.NearField(systems[t % 2], p)
        m = nf.system.num_antennas
        f = predictive_beamformers(nf, v)[-1]
        h_bar = observation_mean(nf, v, f)
        jac = observation_jacobian(nf, v, f)
        y = h_bar + (rng.normal(0, 1e-4, m) + 1j * rng.normal(0, 1e-4, m))
        prior = TrackerBelief(mean=np.concatenate([p, v]), covariance=0.1 * np.eye(4))
        for sigma_e2 in (1e-2, 1e-8):
            post, _ = kalman_update(prior, y, jac, h_bar, sigma_e2)
            ref_mean, ref_cov = _dense_reference_update(prior, y, np.asarray(jac), h_bar, sigma_e2)
            dev = max(
                float(np.max(np.abs(post.mean - ref_mean))),
                float(np.max(np.abs(post.covariance - ref_cov))),
            )
            if sigma_e2 == 1e-2:
                worst_sharp = max(worst_sharp, dev)
            else:
                worst_op = max(worst_op, dev)
    bound_sharp, bound_op = 1e-11, 1e-8
    ok = worst_sharp < bound_sharp and worst_op < bound_op
    return ok, (
        f"deviation {worst_sharp:.2e} (well-conditioned, bound {bound_sharp:g}), "
        f"{worst_op:.2e} (operating noise, bound {bound_op:g})"
    )


def run_all(seed: int):
    """All suites; returns [(name, ok, detail)]."""
    return [
        ("geometry-identities", *check_geometry(seed)),
        ("beam-phasors", *check_beam_phasors(seed)),
        ("matched-filter-snr", *check_mrt_snr(seed)),
        ("velocity-gradient-fd", *check_gradient(seed)),
        ("observation-jacobian-fd", *check_jacobian(seed)),
        ("velocity-fisher", *check_velocity_fisher(seed)),
        ("kalman-low-rank-vs-dense", *check_kalman(seed)),
    ]
