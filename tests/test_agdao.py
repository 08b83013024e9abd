"""Velocity estimator: likelihood algebra, Adam mechanics, closed-loop tracking."""
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from nfbeam import agdao, ekf, harness
from nfbeam.agdao import (
    VARIANTS,
    DivergenceError,
    VelocityProblem,
    adam_ao_estimate,
    agdao_track_step,
    estimate_velocity,
    gd_estimate,
)
from nfbeam.beamforming import predictive_beamformers
from nfbeam.config import AdamHyper, ExperimentConfig, SystemConfig
from nfbeam.ekf import TrackerBelief, kalman_update, observation_jacobian
from nfbeam.geometry import NearField, array_response, element_offsets
from nfbeam.harness import run_experiment, stream
from nfbeam.motion import generate_trajectory
from nfbeam.signals import observation_mean, synthesize_observation

from helpers import N_SYM, fd_central, sample_state, system_for

V_TRUE = np.array([8.0, 7.0])


def make_instance(m, position, v_echo, v_beam, signed=False, noise_power=0.0, seed=0):
    """Snapshot at the position, echo and last-symbol beam for a
    known-position estimation problem."""
    system = system_for(m, signed, echo_noise_power=noise_power)
    nf = NearField(system, np.asarray(position, dtype=float))
    bf = predictive_beamformers(nf, v_beam)
    if noise_power > 0.0:
        y = synthesize_observation(nf, v_echo, bf, np.random.default_rng(seed))
    else:
        y = observation_mean(nf, v_echo, bf[-1])
    return nf, y, bf[-1]


def direct_likelihood(y, nf, v, f):
    """Objective and both gradients from M-length fields, without |a_m| = 1."""
    b = observation_mean(nf, v, f)
    a = array_response(N_SYM, v, nf)
    scale = nf.alpha2
    rot = nf.system.wavenumber * N_SYM * nf.system.symbol_duration_s
    resid = y - b
    out = [float(2.0 * np.vdot(y, b).real - np.vdot(b, b).real)]
    for u in (nf.g, nf.q):
        da = -1j * rot * u * a
        db = scale * (da * (a @ f) + a * (da @ f))
        out.append(float(2.0 * np.vdot(resid, db).real))
    return tuple(out)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [1, 16, 128])
def test_evaluate_matches_direct_fields(m, signed):
    rng = np.random.default_rng(300 + m + int(signed))
    system = system_for(m, signed)
    for _ in range(4):
        eta = sample_state(rng, system)
        nf = NearField(system, eta[:2])
        bf = predictive_beamformers(nf, (0.0, 0.0))
        y = synthesize_observation(nf, eta[2:], bf, rng)
        prob = VelocityProblem(y, nf, bf[-1])
        v = rng.uniform(-12.0, 12.0, 2)
        got = prob.evaluate(float(v[0]), float(v[1]))
        ref = direct_likelihood(y, nf, v, bf[-1])
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-10 * abs(r)


def test_objective_two_forms_agree():
    rng = np.random.default_rng(11)
    system = system_for(32)
    for _ in range(6):
        eta = sample_state(rng, system)
        nf = NearField(system, eta[:2])
        bf = predictive_beamformers(nf, (0.0, 0.0))
        y = synthesize_observation(nf, eta[2:], bf, rng)
        v = rng.uniform(-12.0, 12.0, 2)
        got = VelocityProblem(y, nf, bf[-1]).evaluate(*v)[0]
        # model echo at the trial velocity, assembled through the public channel path
        b = observation_mean(nf, v, bf[-1])
        yy = float(np.vdot(y, y).real)
        residual_form = yy - float(np.vdot(y - b, y - b).real)
        direct_form = float(2.0 * np.real(np.vdot(y, b).conjugate()) - np.vdot(b, b).real)
        scale = max(1.0, abs(got), yy)
        assert abs(got - residual_form) <= 1e-9 * scale
        assert abs(got - direct_form) <= 1e-9 * scale


def test_noiseless_objective_peaks_at_truth():
    nf, y, f = make_instance(48, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    yy = float(np.vdot(y, y).real)
    evaluate = VelocityProblem(y, nf, f).evaluate
    peak = evaluate(*V_TRUE)[0]
    assert abs(peak - yy) <= 1e-12 * yy
    rng = np.random.default_rng(5)
    for _ in range(8):
        v = V_TRUE + rng.uniform(-6.0, 6.0, 2)
        assert evaluate(*v)[0] <= peak


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [16, 48])
def test_gradient_matches_finite_difference(m, signed):
    rng = np.random.default_rng(200 + m + int(signed))
    system = system_for(m, signed)
    for _ in range(3):
        eta = sample_state(rng, system)
        nf = NearField(system, eta[:2])
        bf = predictive_beamformers(nf, (0.0, 0.0))
        y = synthesize_observation(nf, eta[2:], bf, rng)
        v = rng.uniform(-12.0, 12.0, 2)
        evaluate = VelocityProblem(y, nf, bf[-1]).evaluate
        for axis in (0, 1):
            got = evaluate(*v)[1 + axis]

            def along(t, axis=axis, v=v):
                vv = v.copy()
                vv[axis] = t
                return evaluate(*vv)[0]

            ref = fd_central(along, v[axis], 1e-4)
            assert abs(got - ref) <= 1e-5 * max(abs(ref), 1e-12)


def test_gradient_zero_at_noiseless_truth():
    nf, y, f = make_instance(48, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    evaluate = VelocityProblem(y, nf, f).evaluate
    for axis in (0, 1):
        g = evaluate(*V_TRUE)[1 + axis]
        assert abs(g) < 1e-9


def test_broadside_x_gradient_vanishes_signed():
    # head-on geometry: the signed x-projection is odd across the array while the
    # echo and beam are even, so the x-slope cancels pairwise for any vy
    nf, y, f = make_instance(32, (0.0, 12.0), (0.0, 5.0), (0.0, 0.0), signed=True)
    evaluate = VelocityProblem(y, nf, f).evaluate
    for v in ((0.0, 0.0), (0.0, 2.5)):
        gx = evaluate(*v)[1]
        gy = evaluate(*v)[2]
        assert gy != 0.0
        assert abs(gx) <= 1e-10 * abs(gy)


def test_broadside_objective_even_in_vx_default():
    # with the default |.| projection the head-on objective cannot tell +vx
    # from -vx when the echo itself carries no transverse motion
    nf, y, f = make_instance(32, (0.0, 12.0), (0.0, 0.0), (0.0, 0.0))
    evaluate = VelocityProblem(y, nf, f).evaluate
    for vx in (0.5, 1.7, 6.0):
        left = evaluate(-vx, 0.0)[0]
        right = evaluate(vx, 0.0)[0]
        assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def _adam_step(state, v, grad, step, beta1, beta2, epsilon):
    # state = [m, n, t]; the textbook bias-corrected Adam ascent step
    state[2] += 1
    state[0] = beta1 * state[0] + (1.0 - beta1) * grad
    state[1] = beta2 * state[1] + (1.0 - beta2) * grad * grad
    m_hat = state[0] / (1.0 - beta1 ** state[2])
    n_hat = state[1] / (1.0 - beta2 ** state[2])
    return v + step * m_hat / math.sqrt(n_hat + epsilon)


@pytest.mark.parametrize("variant", ["adam-joint", "adam-ao"])
def test_first_iteration_step_from_zero_moments(variant):
    nf, y, f = make_instance(32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=3)
    # the estimators step along the line of sight's transverse axis t, then
    # its radial axis r; rows carry (vx, vy) = t_1 t + r_1 r from v_init 0
    frame = (tx, ty), (rx, ry) = agdao.line_of_sight_frame(nf.position)
    evaluate = VelocityProblem(y, nf, f, frame).evaluate
    for eps in (AdamHyper().epsilon, 1e-30):
        hyper = AdamHyper(max_iters=1, rel_tol=0.0, epsilon=eps)
        _, trace = estimate_velocity(variant, y, nf, (0.0, 0.0), f, hyper=hyper)
        # mirror of the in-loop update arithmetic at k=1 (zero moments)
        adam = (hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
        _, gt, gr = evaluate(0.0, 0.0)
        t1 = _adam_step([0.0, 0.0, 0], 0.0, gt, *adam)
        if variant == "adam-ao":
            gr = evaluate(t1, 0.0)[2]
        r1 = _adam_step([0.0, 0.0, 0], 0.0, gr, *adam)
        _, vx1, vy1, _, gx, gy = trace[1]
        assert (vx1, vy1) == (tx * t1 + rx * r1, ty * t1 + ry * r1)
        assert (gx, gy) == (tx * gt + rx * gr, ty * gt + ry * gr)
        assert abs(t1) <= hyper.step * (1.0 + 1e-12)
        assert abs(r1) <= hyper.step * (1.0 + 1e-12)
    # with a negligible stabilizer the first step is a full alpha toward the slope
    assert abs(abs(t1) - hyper.step) <= 1e-9 * hyper.step
    assert abs(abs(r1) - hyper.step) <= 1e-9 * hyper.step


def test_stationary_init_stops_after_one_iteration():
    # echo synthesized at the initial velocity: nothing to correct
    nf, y, f = make_instance(64, (5.0, 10.0), V_TRUE, V_TRUE)
    v_hat, trace = adam_ao_estimate(y, nf, V_TRUE, f)
    assert len(trace) == 2
    np.testing.assert_allclose(v_hat, V_TRUE, atol=1e-9)


def test_converges_on_head_on_reference_instance():
    # the well-conditioned convergence geometry: head-on target, signed projection
    nf, y, f = make_instance(512, (0.0, 10.0), V_TRUE, (0.0, 0.0), signed=True)
    v_hat, trace = adam_ao_estimate(y, nf, (0.0, 0.0), f)
    assert len(trace) <= 501
    err = np.abs(v_hat - V_TRUE)
    assert err[0] < 0.05
    assert err[1] < 0.05


def test_sloppy_geometry_recovers_observable_speeds():
    # off to the side both projections ride nearly the same direction, so the
    # estimator pins the per-element radial speeds long before the velocity
    # components separate; the leftover error lies along the insensitive line
    nf, y, f = make_instance(512, (5.0, 10.0), V_TRUE, (0.0, 0.0))
    v_hat, trace = adam_ao_estimate(y, nf, (0.0, 0.0), f)
    yy = float(np.vdot(y, y).real)
    gap = yy - VelocityProblem(y, nf, f).evaluate(*v_hat)[0]
    assert gap <= 1e-4 * yy
    g, q = nf.g, nf.q
    dv = v_hat - V_TRUE
    assert np.abs(g * dv[0] + q * dv[1]).max() < 0.15
    valley = np.array([q.mean(), -g.mean()])
    valley /= np.linalg.norm(valley)
    assert abs(dv @ valley) / np.linalg.norm(dv) > 0.995


def test_plain_gd_with_vanishing_step_stays_put():
    nf, y, f = make_instance(32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=7)
    hyper = AdamHyper(step=1e-300)
    v_hat, trace = gd_estimate(y, nf, (3.0, -2.0), f, hyper=hyper, variant="plain-gd")
    assert len(trace) == 2
    assert v_hat[0] == 3.0 and v_hat[1] == -2.0


def test_joint_equals_alternating_when_x_axis_dormant():
    # structurally zero x-gradient (head-on, signed, even echo): the alternating
    # refresh of vx changes nothing, so both variants walk the same vy path
    nf, y, f = make_instance(32, (0.0, 12.0), (0.0, 5.0), (0.0, 0.0), signed=True)
    hyper = AdamHyper(max_iters=40, rel_tol=0.0)
    v_ao, tr_ao = adam_ao_estimate(y, nf, (0.0, 0.0), f, hyper=hyper)
    v_jt, tr_jt = gd_estimate(y, nf, (0.0, 0.0), f, hyper=hyper, variant="adam-joint")
    ao = tr_ao[:, 1:3]
    jt = tr_jt[:, 1:3]
    assert np.abs(ao[:, 0]).max() < 1e-12
    assert np.abs(jt[:, 0]).max() < 1e-12
    assert np.abs(ao[:, 1] - jt[:, 1]).max() < 1e-15


def test_stop_rule_extremes():
    nf, y, f = make_instance(32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=9)
    loose = AdamHyper(rel_tol=1e6)
    _, trace = adam_ao_estimate(y, nf, (0.0, 0.0), f, hyper=loose)
    assert len(trace) == 2
    strict = AdamHyper(max_iters=25, rel_tol=0.0)
    _, trace = adam_ao_estimate(y, nf, (0.0, 0.0), f, hyper=strict)
    assert len(trace) == 26
    assert trace[-1, 0] == 25


def reference_ascent(fields, v_init, hyper, variant):
    """Iterates of one variant with fresh field builds for every gradient and objective."""
    vx, vy = v_init
    rows = [(vx, vy, fields(vx, vy)[0])]
    sx, sy = [0.0, 0.0, 0], [0.0, 0.0, 0]
    for _ in range(hyper.max_iters):
        gx = fields(vx, vy)[1]
        if variant == "adam-ao":
            vx_new = _adam_step(sx, vx, gx, hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
            gy = fields(vx_new, vy)[2]
            vy_new = _adam_step(sy, vy, gy, hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
        elif variant == "adam-joint":
            gy = fields(vx, vy)[2]
            vx_new = _adam_step(sx, vx, gx, hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
            vy_new = _adam_step(sy, vy, gy, hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
        else:
            gy = fields(vx, vy)[2]
            vx_new, vy_new = vx + hyper.step * gx, vy + hyper.step * gy
        vx, vy = vx_new, vy_new
        rows.append((vx, vy, fields(vx, vy)[0]))
    return np.array(rows)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ascent_matches_reference_on_convergence_instance(variant):
    # the convergence-study instance: head-on, signed, M=512, noisy echo, v_init 0
    nf, y, f = make_instance(
        512, (0.0, 10.0), V_TRUE, (0.0, 0.0), signed=True, noise_power=1e-8, seed=4
    )
    hyper = AdamHyper(rel_tol=0.0)
    _, trace = estimate_velocity(variant, y, nf, (0.0, 0.0), f, hyper=hyper)
    got = trace[:, 1:4]
    ref = reference_ascent(
        lambda vx, vy: direct_likelihood(y, nf, (vx, vy), f),
        (0.0, 0.0), hyper, variant,
    )
    assert got.shape == (hyper.max_iters + 1, 3)
    np.testing.assert_allclose(got[:, :2], ref[:, :2], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(got[:, 2], ref[:, 2], rtol=1e-12, atol=0.0)


def _reference_evaluate(prob, vx, vy):
    """prob.evaluate written with a fresh d(v) and a fresh W @ d per call."""
    d = np.exp(np.dot((vx, vy), prob.exponent))
    af, afg, afq, yc, ycg, ycq = (prob.W @ d).tolist()
    s, sm, k = prob.scale, prob.scale_m, prob.grad_scale
    objective = 2.0 * s * (af * yc).real - s * sm * (af.real**2 + af.imag**2)
    resid = yc - sm * af.conjugate()
    return objective, k * (af * ycg + afg * resid).imag, k * (af * ycq + afq * resid).imag


@pytest.mark.parametrize("framed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 64, 512])
def test_evaluation_is_bit_identical_to_a_fresh_complex_exp(m, framed):
    # off broadside, at speeds up to 1e4 m/s: Doppler phases up to ~1e3 rad
    nf, y, f = make_instance(m, (5.0, 10.0), V_TRUE, (7.5, 7.5), noise_power=1e-8, seed=3)
    prob = VelocityProblem(y, nf, f, agdao.line_of_sight_frame(nf.position) if framed else None)
    speeds = np.random.default_rng(m).uniform(-1e4, 1e4, size=(40, 2)).tolist()
    for vx, vy in [(0.0, 0.0), (-0.0, 0.0), (8.0, 7.0), (1e4, -1e4), (5e-324, -3.0), *speeds]:
        d = np.exp(np.dot((vx, vy), prob.exponent))
        assert prob._doppler(vx, vy).tobytes() == d.tobytes(), (vx, vy)
        want = np.array(_reference_evaluate(prob, vx, vy))
        assert np.array(prob.evaluate(vx, vy)).tobytes() == want.tobytes(), (vx, vy)
        assert np.float64(prob.second_gradient(vx, vy)).tobytes() == want[2].tobytes(), (vx, vy)


def _stop_rule_fires(rel_tol, v_old, v_new):
    """|v_new - v_old| < rel_tol * max(|v_new|, floor), Euclidean; never at rel_tol 0."""
    change = math.hypot(v_new[0] - v_old[0], v_new[1] - v_old[1])
    size = max(math.hypot(v_new[0], v_new[1]), agdao.REL_CHANGE_FLOOR)
    return rel_tol > 0 and change < rel_tol * size


def _reference_ascend(prob, v_init, hyper, variant):
    """_ascend written with per-axis Adam state objects; returns (v_hat, rows)."""
    vx, vy = float(v_init[0]), float(v_init[1])
    objective, gx, gy = _reference_evaluate(prob, vx, vy)
    rows = [(0, vx, vy, objective, 0.0, 0.0)]
    sx, sy = [0.0, 0.0, 0], [0.0, 0.0, 0]
    for k in range(1, hyper.max_iters + 1):
        if variant == "plain-gd":
            vx_new = vx + hyper.step * gx
            vy_new = vy + hyper.step * gy
        else:
            vx_new = _adam_step(sx, vx, gx, hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
            if variant == "adam-ao":
                gy = _reference_evaluate(prob, vx_new, vy)[2]
            vy_new = _adam_step(sy, vy, gy, hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon)
        objective, gx_new, gy_new = _reference_evaluate(prob, vx_new, vy_new)
        if not (math.isfinite(vx_new) and math.isfinite(vy_new) and math.isfinite(objective)):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}: v=({vx_new}, {vy_new}), objective={objective}"
            )
        rows.append((k, vx_new, vy_new, objective, gx, gy))
        stopped = _stop_rule_fires(hyper.rel_tol, (vx, vy), (vx_new, vy_new))
        vx, vy, gx, gy = vx_new, vy_new, gx_new, gy_new
        if stopped:
            break
    return np.array([vx, vy]), rows


def _problem(m, position, v_beam, noise_power, seed, signed=False, echo_scale=1.0):
    nf, y, f = make_instance(
        m, position, V_TRUE, v_beam, signed=signed, noise_power=noise_power, seed=seed
    )
    return VelocityProblem(echo_scale * y, nf, f)


@pytest.mark.parametrize("m", [1, 2, 128, 512])
@pytest.mark.parametrize("variant", VARIANTS)
def test_ascent_is_bit_identical_to_the_reference_loop(variant, m):
    # the convergence-study instance (M=512), stop rule off, every row recorded
    prob = _problem(m, (0.0, 10.0), (0.0, 0.0), 1e-8, 4, signed=True)
    hyper = AdamHyper(rel_tol=0.0)
    v_hat, trace = agdao._ascend(prob, (0.0, 0.0), hyper, variant)
    v_ref, rows = _reference_ascend(prob, (0.0, 0.0), hyper, variant)
    assert len(trace) == len(rows) == hyper.max_iters + 1
    np.testing.assert_array_equal(trace, np.array(rows))
    np.testing.assert_array_equal(v_hat, v_ref)


@pytest.mark.parametrize("variant, step", [("adam-ao", 0.05), ("adam-joint", 0.05), ("plain-gd", 200.0)])
def test_tracking_ascent_is_bit_identical_to_the_reference_loop(variant, step):
    # a tracking-like CPI: beam and start at the previous estimate, stop rule on
    prob = _problem(64, (5.0, 10.0), (7.5, 7.5), 1e-8, 2)
    hyper = AdamHyper(step=step)
    v_hat, trace = agdao._ascend(prob, (7.5, 7.5), hyper, variant)
    v_ref, rows = _reference_ascend(prob, (7.5, 7.5), hyper, variant)
    assert 2 < len(trace) == len(rows) < hyper.max_iters + 1
    np.testing.assert_array_equal(trace, np.array(rows))
    np.testing.assert_array_equal(v_hat, v_ref)


@pytest.mark.parametrize("variant, echo_scale", [("adam-ao", 1.0), ("adam-joint", 1.0), ("plain-gd", 100.0)])
def test_divergence_is_bit_identical_to_the_reference_loop(variant, echo_scale):
    # a step near the largest float overflows an iterate within a few iterations
    prob = _problem(512, (0.0, 10.0), (0.0, 0.0), 1e-8, 4, signed=True, echo_scale=echo_scale)
    hyper = AdamHyper(step=1e308, rel_tol=0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as want:
            _reference_ascend(prob, (0.0, 0.0), hyper, variant)
        with pytest.raises(DivergenceError) as got:
            agdao._ascend(prob, (0.0, 0.0), hyper, variant)
    assert str(got.value) == str(want.value)


def test_ascent_allocates_no_m_length_array_per_evaluation():
    m = 4096
    prob = _problem(m, (5.0, 10.0), (0.0, 0.0), 1e-8, 1)
    hyper = AdamHyper(max_iters=50, rel_tol=0.0)
    agdao._ascend(prob, (0.0, 0.0), hyper, "adam-ao")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        agdao._ascend(prob, (0.0, 0.0), hyper, "adam-ao")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 101 evaluations: one fresh complex M-vector each would show as >= 16 M
    # bytes; with the 51 recorded rows the peak reads about 6 KB
    assert peak - base < 16 * m


@pytest.mark.parametrize(
    "variant, step, evals_per_iter",
    [("adam-ao", 0.05, 2), ("adam-joint", 0.05, 1), ("plain-gd", 200.0, 1)],
)
def test_trace_length_counts_iterations_when_stop_rule_fires(
    variant, step, evals_per_iter, monkeypatch
):
    nf, y, f = make_instance(64, (5.0, 10.0), V_TRUE, (0.0, 0.0))
    calls = []
    # adam-ao's mid-iteration evaluation computes the second-axis gradient alone
    for name in ("evaluate", "second_gradient"):
        method = getattr(VelocityProblem, name)

        def counted(self, vx, vy, method=method):
            calls.append((vx, vy))
            return method(self, vx, vy)

        monkeypatch.setattr(VelocityProblem, name, counted)
    # from rest the Adam variants stop after 568 iterations here, past the
    # default cap of 500: the radial speed travels ~10 m/s at one step per
    # iteration, at any bearing (test_cold_start_count_does_not_depend_on_bearing)
    hyper = AdamHyper(step=step, max_iters=1000)
    _, trace = estimate_velocity(variant, y, nf, (0.0, 0.0), f, hyper=hyper)
    iters = int(trace[-1, 0])
    assert 1 < iters < hyper.max_iters
    assert len(trace) - 1 == iters
    assert trace[:, 0].tolist() == list(range(iters + 1))
    # one evaluation at the init, then evals_per_iter per iteration
    assert len(calls) == 1 + evals_per_iter * iters
    # the rule fires on the last step and on no step before it
    v = trace[:, 1:3].tolist()
    fires = [_stop_rule_fires(hyper.rel_tol, a, b) for a, b in zip(v, v[1:])]
    assert fires == [False] * (iters - 1) + [True]


def _tracking_hyper(variant):
    return AdamHyper(step=200.0 if variant == "plain-gd" else 0.05)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_broadside_estimate_equals_the_identity_frame_ascent(variant, signed):
    # at (0, y) the line of sight is the y axis: t = -x and r = y, an exact
    # sign flip, so the frame changes no bit of the rows or of the estimate
    nf, y, f = make_instance(
        64, (0.0, 10.0), V_TRUE, (7.5, 7.5), signed=signed, noise_power=1e-8, seed=5
    )
    assert agdao.line_of_sight_frame(nf.position) == ((-1.0, 0.0), (0.0, 1.0))
    hyper = _tracking_hyper(variant)
    identity = VelocityProblem(y, nf, f)
    for v_init in ((0.0, 0.0), (7.5, 7.5)):
        v_hat, trace = estimate_velocity(variant, y, nf, v_init, f, hyper=hyper)
        v_ref, ref = agdao._ascend(identity, v_init, hyper, variant)
        assert 2 < len(trace) == len(ref) < hyper.max_iters + 1
        assert trace.tobytes() == ref.tobytes()
        assert v_hat.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_stop_rule_count_is_the_same_for_the_geometry_mirrored_in_x(variant):
    # under the signed projection, the echo y and beam f at (x, y) with
    # (vx, vy) are y and f reversed at (-x, y) with (-vx, vy): one problem with
    # the antennas renumbered. The frames differ by the sign of t, to which
    # a Euclidean stop rule is blind.
    nf, y, f = make_instance(
        64, (5.0, 10.0), V_TRUE, (7.5, 7.5), signed=True, noise_power=1e-8, seed=2
    )
    hyper = _tracking_hyper(variant)
    mirror = np.array([-1.0, 1.0])
    v_right, right = estimate_velocity(variant, y, nf, (7.5, 7.5), f, hyper=hyper)
    v_left, left = estimate_velocity(
        variant, y[::-1], NearField(nf.system, mirror * nf.position), mirror * (7.5, 7.5),
        f[::-1], hyper=hyper,
    )
    assert 2 < len(right) == len(left) < hyper.max_iters + 1
    np.testing.assert_allclose(mirror * v_left, v_right, rtol=1e-9)


@pytest.mark.parametrize("variant", VARIANTS)
def test_cold_start_count_does_not_depend_on_bearing(variant):
    # the frame turns with the line of sight: from rest, the noiseless M=64
    # problem at (5, 10) and the same problem turned onto broadside, at
    # (0, |p|) with (vt, vr) kept, stop within a few iterations of each other
    hyper = AdamHyper(step=_tracking_hyper(variant).step, max_iters=1000)
    (tx, ty), (rx, ry) = agdao.line_of_sight_frame((5.0, 10.0))
    vt, vr = tx * V_TRUE[0] + ty * V_TRUE[1], rx * V_TRUE[0] + ry * V_TRUE[1]
    counts = []
    for position, v_echo in (((5.0, 10.0), V_TRUE), ((0.0, math.hypot(5.0, 10.0)), (-vt, vr))):
        nf, y, f = make_instance(64, position, np.array(v_echo), (0.0, 0.0))
        _, trace = estimate_velocity(variant, y, nf, (0.0, 0.0), f, hyper=hyper)
        counts.append(len(trace))
    assert max(counts) < hyper.max_iters
    assert abs(counts[0] - counts[1]) <= 0.01 * counts[1]


def _map_back(frame, v_init, t, r):
    """v_init + R^T ((t, r) - R v_init), written out."""
    (tx, ty), (rx, ry) = frame
    x0, y0 = v_init
    dt, dr = t - (tx * x0 + ty * y0), r - (rx * x0 + ry * y0)
    return x0 + (tx * dt + rx * dr), y0 + (ty * dt + ry * dr)


def test_an_off_axis_frame_checks_and_reports_vx_vy(monkeypatch):
    # off the array's axis the frame mixes x and y; what the rows record and
    # what a DivergenceError names are (vx, vy), not frame coordinates
    nf, y, f = make_instance(64, (5.0, 10.0), V_TRUE, (7.5, 7.5), noise_power=1e-8, seed=2)
    frame = agdao.line_of_sight_frame(nf.position)
    v_init = (7.5, 7.5)
    checked = []
    check = agdao._check_finite

    def spy(*args):
        checked.append(args[:4])
        return check(*args)

    monkeypatch.setattr(agdao, "_check_finite", spy)
    v_hat, trace = adam_ao_estimate(y, nf, v_init, f)
    assert [k for k, *_ in checked] == list(range(1, len(trace)))
    assert [(k, *_map_back(frame, v_init, t, r), obj) for k, t, r, obj in checked] == [
        tuple(row) for row in trace[1:, :4].tolist()
    ]
    assert tuple(v_hat) == tuple(trace[-1, 1:3])

    checked.clear()
    hyper = AdamHyper(step=1e308, rel_tol=0.0)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DivergenceError) as err:
        adam_ao_estimate(y, nf, v_init, f, hyper=hyper)
    k, t, r, objective = checked[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        vx, vy = _map_back(frame, v_init, t, r)
    assert str(err.value) == (
        f"non-finite iterate at iteration {k}: v=({vx}, {vy}), objective={objective}"
    )


def test_closed_loop_at_high_snr_tracks_the_velocity():
    # 40 dBm at M=128: per-axis Adam in (vx, vy) zig-zagged along the
    # likelihood's diagonal ridge to max_iters here and erred by ~7 m/s
    cfg = ExperimentConfig(
        method="agdao", num_cpis=200,
        system=SystemConfig(num_antennas=128, tx_power_dbm=40.0),
    )
    summary = run_experiment(cfg).summary()
    assert summary["mean_verr_x"] < 0.5
    assert summary["mean_verr_y"] < 0.5


def test_unknown_variant_rejected_before_any_evaluation():
    class NoEvaluate:
        def evaluate(self, vx, vy):
            raise AssertionError("evaluated before the variant was checked")

    with pytest.raises(ValueError, match="unknown variant"):
        agdao._ascend(NoEvaluate(), (0.0, 0.0), AdamHyper(), "newton")


def test_non_finite_observation_raises():
    nf, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    bad = np.full(16, np.nan + 1j * np.nan)
    with pytest.raises(DivergenceError):
        adam_ao_estimate(bad, nf, (0.0, 0.0), f)


def test_bounded_steps_and_mostly_rising_objective():
    nf, y, f = make_instance(512, (0.0, 10.0), V_TRUE, (0.0, 0.0), signed=True)
    hyper = AdamHyper(rel_tol=0.0)
    _, trace = adam_ao_estimate(y, nf, (0.0, 0.0), f, hyper=hyper)
    rows = trace[:, 1:4]
    steps = np.abs(np.diff(rows[:, :2], axis=0))
    assert steps.max() <= hyper.step * 1.05
    objs = rows[:, 2]
    slack = 1e-12 * np.maximum(1.0, np.abs(objs[:-1]))
    assert np.mean(objs[1:] >= objs[:-1] - slack) >= 0.95


def test_estimator_never_mutates_observation():
    nf, y, f = make_instance(32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=13)
    snapshot = y.copy()
    first = adam_ao_estimate(y, nf, (0.0, 0.0), f)
    second = adam_ao_estimate(y, nf, (0.0, 0.0), f)
    np.testing.assert_array_equal(y, snapshot)
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1].tobytes() == second[1].tobytes()


def test_variant_dispatch_and_hyper_validation():
    nf, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    with pytest.raises(ValueError):
        gd_estimate(y, nf, (0.0, 0.0), f, variant="newton")
    with pytest.raises(ValueError):
        estimate_velocity("newton", y, nf, (0.0, 0.0), f)
    assert set(VARIANTS) == {"adam-ao", "adam-joint", "plain-gd"}
    via_dispatch = estimate_velocity("adam-joint", y, nf, (0.0, 0.0), f)
    direct = gd_estimate(y, nf, (0.0, 0.0), f, variant="adam-joint")
    np.testing.assert_array_equal(via_dispatch[0], direct[0])
    for bad in (
        dict(step=0.0),
        dict(beta1=1.0),
        dict(beta2=-0.1),
        dict(epsilon=0.0),
        dict(max_iters=0),
        dict(rel_tol=-1e-9),
    ):
        with pytest.raises(ValueError):
            AdamHyper(**bad)


def _track(system, traj, observe_rng, motion_var, cpis):
    """Run agdao_track_step from the true first state over traj's CPIs, carrying
    the velocity covariance from ExperimentConfig's ekf_init_cov I; yields each
    CPI's (true state, bf, p_hat, v_hat, path, cov)."""
    state, cov = traj[0], ExperimentConfig().ekf_init_cov * np.eye(2)
    for l in range(1, cpis):
        eta = traj[l]

        def observe(bf, eta=eta):
            return synthesize_observation(NearField(system, eta[:2]), eta[2:], bf, observe_rng)

        bf, p_hat, v_hat, path, cov = agdao_track_step(state, cov, observe, system, motion_var)
        state = np.concatenate([p_hat, v_hat])
        yield eta, bf, p_hat, v_hat, path, cov


def test_track_step_noiseless_closed_loop():
    # no echo noise (r = 0): every CPI takes plain Gauss-Newton steps, as the
    # tracker's motion_var keeps its prior open, and must hold the true state
    system = system_for(64, echo_noise_power=0.0)
    rng = np.random.default_rng(0)
    traj = generate_trajectory((5.0, 10.0, 8.0, 7.0), (0.0, 0.0), system.cpi_duration_s, 2000, rng)
    worst_p = 0.0
    worst_v = 0.0
    steps = []
    for l, (eta, bf, p_hat, v_hat, path, cov) in enumerate(
        _track(system, traj, rng, (0.01, 0.01), 2000), start=1
    ):
        if l == 1:
            # dead reckoning from the exact previous state lands on the truth
            assert p_hat[0] == eta[0] and p_hat[1] == eta[1]
            ref = predictive_beamformers(NearField(system, p_hat), (8.0, 7.0))
            np.testing.assert_array_equal(bf, ref)
        # r = 0: the posterior is exact
        assert not cov.any()
        steps.append(len(path) - 1)
        worst_p = max(worst_p, math.hypot(p_hat[0] - eta[0], p_hat[1] - eta[1]))
        worst_v = max(worst_v, math.hypot(v_hat[0] - eta[2], v_hat[1] - eta[3]))
    assert min(steps) >= 1
    assert worst_p < 1e-3
    assert worst_v < 1e-6


def test_track_error_grows_with_range():
    # receding target: echo weakens as range climbs, velocity estimates wander more
    system = system_for(64)
    cpis = 1200
    traj_rng = stream(0, "trajectory")
    noise_rng = stream(0, "echo-noise")
    traj = generate_trajectory(
        (5.0, 10.0, 8.0, 7.0), (0.01, 0.01), system.cpi_duration_s, cpis, traj_rng
    )
    verr = [
        math.hypot(v_hat[0] - eta[2], v_hat[1] - eta[3])
        for eta, _, _, v_hat, _, _ in _track(system, traj, noise_rng, (0.01, 0.01), cpis)
    ]
    early = float(np.mean(verr[:400]))
    late = float(np.mean(verr[-400:]))
    assert late > 1.3 * early


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [32, 512])
def test_first_map_step_is_the_ekf_velocity_update(m, signed):
    # with P = blockdiag(0, P-), kalman_update moves only the velocity, and by
    # the MAP step's first step from v_prev; its posterior's velocity block is
    # that step's P+. Worst here: 4.1e-13 of the step, 2.6e-13 of P+ (8.3e-13 and
    # 8.0e-13 over 80 other random instances).
    rng = np.random.default_rng(40 + m + int(signed))
    system = system_for(m, signed)
    one_step = AdamHyper(max_iters=1)
    for _ in range(8):
        eta = sample_state(rng, system)
        nf = NearField(system, eta[:2])
        v_prev = eta[2:] + rng.normal(0.0, 0.3, 2)
        bf = predictive_beamformers(nf, v_prev)
        y = synthesize_observation(nf, eta[2:], bf, rng)
        root = rng.normal(size=(2, 2))
        prior_v = 0.01 * (root @ root.T) + 0.01 * np.eye(2)
        prior = np.zeros((4, 4))
        prior[2:, 2:] = prior_v
        post, _ = kalman_update(
            TrackerBelief(np.concatenate([eta[:2], v_prev]), prior), y,
            observation_jacobian(nf, v_prev, bf[-1]), observation_mean(nf, v_prev, bf[-1]),
            system.echo_noise_power,
        )
        v_map, path, cov_map = agdao.map_velocity(
            y, nf, v_prev, bf[-1], prior_v, system.echo_noise_power, one_step
        )
        assert len(path) - 1 == 1
        assert post.mean[:2].tobytes() == eta[:2].tobytes()
        step = post.mean[2:] - v_prev
        np.testing.assert_allclose(v_map - v_prev, step, rtol=0, atol=1e-12 * np.abs(step).max())
        cov = post.covariance[2:, 2:]
        np.testing.assert_allclose(cov_map, cov, rtol=0, atol=1e-12 * np.abs(cov).max())


def test_map_step_without_noise_or_prior_spread_keeps_the_prior():
    # r = 0 and P- = 0: nothing to assimilate, as in kalman_update
    nf, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (7.5, 7.5))
    prior = np.zeros((2, 2))
    v_hat, path, cov = agdao.map_velocity(y, nf, (7.5, 7.5), f, prior, 0.0)
    assert v_hat.tolist() == [7.5, 7.5]
    assert len(path) - 1 == 0 and len(path) == 1
    assert not cov.any()
    # a copy, as kalman_update returns: the carried covariance never aliases the caller's
    assert not np.shares_memory(cov, prior)


@pytest.mark.parametrize("method", ["ekf", "agdao"])
def test_one_load_update_serves_both_trackers(method, monkeypatch):
    # the load form lives once, in ekf: kalman_update calls it once per tracked
    # CPI on the 4-state belief, map_velocity once per Gauss-Newton step on the velocity
    sizes, per_cpi = [], []
    update, track_step = ekf.load_update, harness.agdao_track_step

    def spy_update(p, gram, u, r):
        sizes.append(len(u))
        return update(p, gram, u, r)

    def spy_step(*args, **kwargs):
        before = len(sizes)
        out = track_step(*args, **kwargs)
        per_cpi.append((len(sizes) - before, len(out[3]) - 1))
        return out

    monkeypatch.setattr(ekf, "load_update", spy_update)
    monkeypatch.setattr(agdao, "load_update", spy_update)
    monkeypatch.setattr(harness, "agdao_track_step", spy_step)
    run_experiment(ExperimentConfig(method=method, num_cpis=12, system=system_for(16)))
    if method == "ekf":
        assert sizes == [4] * 11 and per_cpi == []
    else:
        assert len(per_cpi) == 11 and all(calls == steps >= 1 for calls, steps in per_cpi)
        assert sizes == [2] * sum(steps for _, steps in per_cpi)
    # and agdao keeps no solve of its own
    assert not hasattr(agdao, "ridged_solve") and not hasattr(ekf, "ridged_solve")
    assert "np.linalg" not in inspect.getsource(agdao)


def test_map_step_with_a_singular_noiseless_system_is_ridged():
    # r = 0 and a prior spread on vx alone: P- G is singular, and the step is
    # ridged as kalman_update ridges; vy, with no spread, keeps its prior bits
    nf, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (7.5, 7.0))
    v_hat, path, cov = agdao.map_velocity(y, nf, (7.5, 7.0), f, np.diag([0.01, 0.0]), 0.0)
    assert len(path) - 1 >= 1
    assert v_hat[1] == 7.0
    assert abs(v_hat[0] - V_TRUE[0]) < 1e-6
    assert np.isfinite(cov).all()


def test_map_step_on_a_non_finite_echo_raises():
    nf, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    bad = np.full(16, np.nan + 1j * np.nan)
    with pytest.raises(DivergenceError, match="non-finite iterate at Gauss-Newton step 1"):
        agdao.map_velocity(bad, nf, (0.0, 0.0), f, 0.1 * np.eye(2), 1e-8)


def test_track_step_at_a_projection_kink_steps():
    # the magnitude projection kinks where x sits on an antenna; the velocity
    # rows never differentiate it, so the closed loop steps through
    system = system_for(8)
    state = np.array([float(element_offsets(system)[2]), 9.0, 0.0, 1.0])
    nf = NearField(system, state[:2])  # zero vx: the forecast stays on the antenna

    def observe(bf):
        return synthesize_observation(nf, (0.0, 1.0), bf, np.random.default_rng(1))

    _, p_hat, v_hat, path, _ = agdao_track_step(
        state, 0.1 * np.eye(2), observe, system, (0.01, 0.01)
    )
    assert p_hat[0] == state[0]
    assert len(path) - 1 >= 1 and np.isfinite(v_hat).all()


@pytest.mark.parametrize("signed", [False, True])
def test_track_step_keeps_the_count_not_the_rows(signed, monkeypatch):
    # the step returns its Gauss-Newton path, steps + 1 iterates from v_prev
    # (the benchmark counts steps as len - 1), one velocity Jacobian per step,
    # and the estimate and covariance of map_velocity alone on the same echo
    system = system_for(32, signed)
    p_prev, v_prev = np.array([4.0, 11.0]), np.array([7.5, 7.5])
    nf, v = NearField(system, p_prev + system.cpi_duration_s * v_prev), V_TRUE
    cov, motion_var = np.array([[0.1, 0.02], [0.02, 0.05]]), (0.01, 0.03)
    echoes = []

    def observe(bf):
        echoes.append(synthesize_observation(nf, v, bf, np.random.default_rng(2)))
        return echoes[-1]

    jacobians = []
    jacobian = agdao.velocity_jacobian

    def spy_jacobian(*args):
        jacobians.append(args[1])
        return jacobian(*args)

    monkeypatch.setattr(agdao, "velocity_jacobian", spy_jacobian)
    bf, p_hat, v_hat, path, cov_hat = agdao_track_step(
        np.concatenate([p_prev, v_prev]), cov, observe, system, motion_var
    )
    assert len(jacobians) == len(path) - 1
    np.testing.assert_array_equal(jacobians[0], v_prev)
    assert 2 < len(path) <= AdamHyper().max_iters + 1

    prior = cov + np.diag(motion_var)
    v_ref, path_ref, cov_ref = agdao.map_velocity(
        echoes[0], NearField(system, p_hat), v_prev, bf[-1], prior, system.echo_noise_power
    )
    assert len(path_ref) == len(path)
    np.testing.assert_array_equal(v_hat, v_ref)
    np.testing.assert_array_equal(cov_hat, cov_ref)
    np.testing.assert_array_equal(cov_hat, cov_hat.T)


@pytest.mark.parametrize("signed", [False, True])
def test_track_step_from_a_state_row_keeps_the_bits_of_p_plus_dt_v(signed):
    # the step forecasts with motion.kinematic_forecast; the reference is the
    # dead reckoning p + dt * v that it replaced, with the same beam and MAP step
    system = system_for(32, signed, echo_noise_power=1e-8)
    hyper = AdamHyper(max_iters=60)
    cov, motion_var = 0.1 * np.eye(2), (0.01, 0.01)
    states = np.array([[4.0, 11.0, 7.5, 7.5], [-3.25, 9.5, -6.0, 8.125], [0.5, 14.0, 0.0, -9.0]])
    before = states.copy()
    for k, state in enumerate(states):
        def observe(bf, k=k):
            return synthesize_observation(
                NearField(system, state[:2]), V_TRUE, bf, np.random.default_rng(k)
            )

        p, v = state[:2], state[2:]
        p_ref = p + system.cpi_duration_s * v
        nf = NearField(system, p_ref)
        bf_ref = predictive_beamformers(nf, v)
        v_ref, _, cov_ref = agdao.map_velocity(
            observe(bf_ref), nf, v, bf_ref[-1], cov + np.diag(motion_var),
            system.echo_noise_power, hyper,
        )
        bf, p_hat, v_hat, _, cov_hat = agdao_track_step(
            state, cov, observe, system, motion_var, hyper=hyper
        )
        assert bf.tobytes() == bf_ref.tobytes()
        assert p_hat.tobytes() == p_ref.tobytes()
        assert v_hat.tobytes() == v_ref.tobytes()
        assert cov_hat.tobytes() == cov_ref.tobytes()
    assert states.tobytes() == before.tobytes()  # no row is written
