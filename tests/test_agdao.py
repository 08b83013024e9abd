"""Velocity estimator: likelihood algebra, Adam mechanics, closed-loop tracking."""
import math

import numpy as np
import pytest

from nfbeam import (
    AdamHyper,
    ArrayGeometry,
    DivergenceError,
    MotionNoise,
    MotionState,
    NoiseConfig,
    adam_ao_estimate,
    agdao_track_step,
    array_response,
    estimate_velocity,
    gd_estimate,
    generate_trajectory,
    grad_velocity,
    ml_objective,
    observation_mean,
    pathloss,
    predictive_beamformers,
    projection_coeffs,
    stream,
    synthesize_observation,
)
from nfbeam import agdao
from nfbeam.agdao import VARIANTS
from nfbeam.geometry import ROUNDTRIP

from helpers import CARRIER, N_SYM, TS, default_model, fd_central, geom_for, sample_state

V_TRUE = np.array([8.0, 7.0])


def make_instance(m, position, v_echo, v_beam, signed=False, noise_power=0.0, seed=0):
    """Echo snapshot and last-symbol beam for a known-position estimation problem."""
    geom = geom_for(m)
    model = default_model()
    p = np.asarray(position, dtype=float)
    eta = MotionState(p[0], p[1], v_echo[0], v_echo[1])
    bf = predictive_beamformers(geom, p, v_beam, N_SYM, TS, signed=signed)
    if noise_power > 0.0:
        noise = NoiseConfig(comm_noise_power=1e-8, echo_noise_power=noise_power)
        rng = np.random.default_rng(seed)
        y = synthesize_observation(
            geom, model, eta, bf, noise, 1.0, TS, rng, signed=signed
        ).y
    else:
        y = observation_mean(geom, model, eta, bf[-1], 1.0, N_SYM, TS, signed=signed)
    return geom, model, p, y, bf[-1]


def direct_likelihood(y, geom, model, p, v, f, signed=False):
    """Objective and both gradients from M-length fields, without |a_m| = 1."""
    eta = MotionState(p[0], p[1], v[0], v[1])
    b = observation_mean(geom, model, eta, f, 1.0, N_SYM, TS, signed=signed)
    a = array_response(geom, N_SYM, TS, v, p, signed=signed)
    scale = pathloss(model, p, ROUNDTRIP)
    rot = geom.wavenumber * N_SYM * TS
    resid = y - b
    out = [float(2.0 * np.vdot(y, b).real - np.vdot(b, b).real)]
    for u in projection_coeffs(geom, p, signed=signed):
        da = -1j * rot * u * a
        db = scale * (da * (a @ f) + a * (da @ f))
        out.append(float(2.0 * np.vdot(resid, db).real))
    return tuple(out)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [1, 16, 128])
def test_evaluate_matches_direct_fields(m, signed):
    rng = np.random.default_rng(300 + m + int(signed))
    geom = geom_for(m)
    model = default_model()
    noise = NoiseConfig(comm_noise_power=1e-8, echo_noise_power=1e-8)
    for _ in range(4):
        eta = sample_state(rng, geom)
        p = eta.position
        bf = predictive_beamformers(geom, p, (0.0, 0.0), N_SYM, TS, signed=signed)
        y = synthesize_observation(geom, model, eta, bf, noise, 1.0, TS, rng, signed=signed).y
        prob = agdao._VelocityProblem(y, geom, model, p, bf[-1], 1.0, N_SYM, TS, signed)
        v = rng.uniform(-12.0, 12.0, 2)
        got = prob.evaluate(float(v[0]), float(v[1]))
        ref = direct_likelihood(y, geom, model, p, v, bf[-1], signed=signed)
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-10 * abs(r)


def test_objective_two_forms_agree():
    rng = np.random.default_rng(11)
    geom = geom_for(32)
    model = default_model()
    for _ in range(6):
        eta = sample_state(rng, geom)
        p = eta.position
        bf = predictive_beamformers(geom, p, (0.0, 0.0), N_SYM, TS)
        noise = NoiseConfig(comm_noise_power=1e-8, echo_noise_power=1e-8)
        y = synthesize_observation(geom, model, eta, bf, noise, 1.0, TS, rng).y
        v = rng.uniform(-12.0, 12.0, 2)
        got = ml_objective(y, geom, model, p, v, bf[-1], 1.0, N_SYM, TS)
        # model echo at the trial velocity, assembled through the public channel path
        b = observation_mean(
            geom, model, MotionState(p[0], p[1], v[0], v[1]), bf[-1], 1.0, N_SYM, TS
        )
        yy = float(np.vdot(y, y).real)
        residual_form = yy - float(np.vdot(y - b, y - b).real)
        direct_form = float(2.0 * np.real(np.vdot(y, b).conjugate()) - np.vdot(b, b).real)
        scale = max(1.0, abs(got), yy)
        assert abs(got - residual_form) <= 1e-9 * scale
        assert abs(got - direct_form) <= 1e-9 * scale


def test_noiseless_objective_peaks_at_truth():
    geom, model, p, y, f = make_instance(48, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    yy = float(np.vdot(y, y).real)
    peak = ml_objective(y, geom, model, p, V_TRUE, f, 1.0, N_SYM, TS)
    assert abs(peak - yy) <= 1e-12 * yy
    rng = np.random.default_rng(5)
    for _ in range(8):
        v = V_TRUE + rng.uniform(-6.0, 6.0, 2)
        assert ml_objective(y, geom, model, p, v, f, 1.0, N_SYM, TS) <= peak


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [16, 48])
def test_gradient_matches_finite_difference(m, signed):
    rng = np.random.default_rng(200 + m + int(signed))
    geom = geom_for(m)
    model = default_model()
    for _ in range(3):
        eta = sample_state(rng, geom)
        p = eta.position
        bf = predictive_beamformers(geom, p, (0.0, 0.0), N_SYM, TS, signed=signed)
        noise = NoiseConfig(comm_noise_power=1e-8, echo_noise_power=1e-8)
        y = synthesize_observation(geom, model, eta, bf, noise, 1.0, TS, rng, signed=signed).y
        v = rng.uniform(-12.0, 12.0, 2)
        for axis, name in ((0, "x"), (1, "y")):
            got = grad_velocity(
                y, geom, model, p, v, bf[-1], 1.0, N_SYM, TS, axis=name, signed=signed
            )

            def along(t, axis=axis, v=v):
                vv = v.copy()
                vv[axis] = t
                return ml_objective(y, geom, model, p, vv, bf[-1], 1.0, N_SYM, TS, signed=signed)

            ref = fd_central(along, v[axis], 1e-4)
            assert abs(got - ref) <= 1e-5 * max(abs(ref), 1e-12)


def test_gradient_zero_at_noiseless_truth():
    geom, model, p, y, f = make_instance(48, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    for axis in ("x", "y"):
        g = grad_velocity(y, geom, model, p, V_TRUE, f, 1.0, N_SYM, TS, axis=axis)
        assert abs(g) < 1e-9


def test_broadside_x_gradient_vanishes_signed():
    # head-on geometry: the signed x-projection is odd across the array while the
    # echo and beam are even, so the x-slope cancels pairwise for any vy
    geom, model, p, y, f = make_instance(32, (0.0, 12.0), (0.0, 5.0), (0.0, 0.0), signed=True)
    for v in ((0.0, 0.0), (0.0, 2.5)):
        gx = grad_velocity(y, geom, model, p, v, f, 1.0, N_SYM, TS, axis="x", signed=True)
        gy = grad_velocity(y, geom, model, p, v, f, 1.0, N_SYM, TS, axis="y", signed=True)
        assert gy != 0.0
        assert abs(gx) <= 1e-10 * abs(gy)


def test_broadside_objective_even_in_vx_default():
    # with the default |.| projection the head-on objective cannot tell +vx
    # from -vx when the echo itself carries no transverse motion
    geom, model, p, y, f = make_instance(32, (0.0, 12.0), (0.0, 0.0), (0.0, 0.0))
    for vx in (0.5, 1.7, 6.0):
        left = ml_objective(y, geom, model, p, (-vx, 0.0), f, 1.0, N_SYM, TS)
        right = ml_objective(y, geom, model, p, (vx, 0.0), f, 1.0, N_SYM, TS)
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
    geom, model, p, y, f = make_instance(
        32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=3
    )
    hyper = AdamHyper(max_iters=1, rel_tol_x=0.0, rel_tol_y=0.0)
    v_hat, trace = estimate_velocity(
        variant, y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=hyper
    )
    _, vx1, vy1, _, gx, gy = trace.rows[1]
    # mirror of the in-loop update arithmetic at k=1 (zero moments)
    assert vx1 == _adam_step([0.0, 0.0, 0], 0.0, gx, hyper.step_x, hyper.beta1_x, hyper.beta2_x, hyper.epsilon)
    assert vy1 == _adam_step([0.0, 0.0, 0], 0.0, gy, hyper.step_y, hyper.beta1_y, hyper.beta2_y, hyper.epsilon)
    assert abs(vx1) <= hyper.step_x * (1.0 + 1e-12)
    assert abs(vy1) <= hyper.step_y * (1.0 + 1e-12)
    # with a negligible stabilizer the first step is a full alpha toward the slope
    tiny = AdamHyper(max_iters=1, rel_tol_x=0.0, rel_tol_y=0.0, epsilon=1e-30)
    v2, tr2 = estimate_velocity(
        variant, y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=tiny
    )
    assert abs(abs(tr2.rows[1][1]) - tiny.step_x) <= 1e-9 * tiny.step_x
    assert abs(abs(tr2.rows[1][2]) - tiny.step_y) <= 1e-9 * tiny.step_y


def test_stationary_init_stops_after_one_iteration():
    # echo synthesized at the initial velocity: nothing to correct
    geom, model, p, y, f = make_instance(64, (5.0, 10.0), V_TRUE, V_TRUE)
    v_hat, trace = adam_ao_estimate(y, geom, model, p, V_TRUE, f, 1.0, N_SYM, TS)
    assert len(trace) == 2
    np.testing.assert_allclose(v_hat, V_TRUE, atol=1e-9)


def test_converges_on_head_on_reference_instance():
    # the well-conditioned convergence geometry: head-on target, signed projection
    geom, model, p, y, f = make_instance(512, (0.0, 10.0), V_TRUE, (0.0, 0.0), signed=True)
    v_hat, trace = adam_ao_estimate(
        y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, signed=True
    )
    assert len(trace) <= 501
    err = np.abs(v_hat - V_TRUE)
    assert err[0] < 0.05
    assert err[1] < 0.05


def test_sloppy_geometry_recovers_observable_speeds():
    # off to the side both projections ride nearly the same direction, so the
    # estimator pins the per-element radial speeds long before the velocity
    # components separate; the leftover error lies along the insensitive line
    geom, model, p, y, f = make_instance(512, (5.0, 10.0), V_TRUE, (0.0, 0.0))
    v_hat, trace = adam_ao_estimate(y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS)
    yy = float(np.vdot(y, y).real)
    gap = yy - ml_objective(y, geom, model, p, v_hat, f, 1.0, N_SYM, TS)
    assert gap <= 1e-4 * yy
    g, q = projection_coeffs(geom, p)
    dv = v_hat - V_TRUE
    assert np.abs(g * dv[0] + q * dv[1]).max() < 0.15
    valley = np.array([q.mean(), -g.mean()])
    valley /= np.linalg.norm(valley)
    assert abs(dv @ valley) / np.linalg.norm(dv) > 0.995


def test_plain_gd_with_vanishing_step_stays_put():
    geom, model, p, y, f = make_instance(
        32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=7
    )
    hyper = AdamHyper(step_x=1e-300, step_y=1e-300)
    v_hat, trace = gd_estimate(
        y, geom, model, p, (3.0, -2.0), f, 1.0, N_SYM, TS, hyper=hyper, variant="plain-gd"
    )
    assert len(trace) == 2
    assert v_hat[0] == 3.0 and v_hat[1] == -2.0


def test_joint_equals_alternating_when_x_axis_dormant():
    # structurally zero x-gradient (head-on, signed, even echo): the alternating
    # refresh of vx changes nothing, so both variants walk the same vy path
    geom, model, p, y, f = make_instance(32, (0.0, 12.0), (0.0, 5.0), (0.0, 0.0), signed=True)
    hyper = AdamHyper(max_iters=40, rel_tol_x=0.0, rel_tol_y=0.0)
    v_ao, tr_ao = adam_ao_estimate(
        y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=hyper, signed=True
    )
    v_jt, tr_jt = gd_estimate(
        y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS,
        hyper=hyper, variant="adam-joint", signed=True,
    )
    ao = np.array([(r[1], r[2]) for r in tr_ao.rows])
    jt = np.array([(r[1], r[2]) for r in tr_jt.rows])
    assert np.abs(ao[:, 0]).max() < 1e-12
    assert np.abs(jt[:, 0]).max() < 1e-12
    assert np.abs(ao[:, 1] - jt[:, 1]).max() < 1e-15


def test_stop_rule_extremes():
    geom, model, p, y, f = make_instance(
        32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=9
    )
    loose = AdamHyper(rel_tol_x=1e6, rel_tol_y=1e6)
    _, trace = adam_ao_estimate(y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=loose)
    assert len(trace) == 2
    strict = AdamHyper(max_iters=25, rel_tol_x=0.0, rel_tol_y=0.0)
    _, trace = adam_ao_estimate(y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=strict)
    assert len(trace) == 26
    assert trace.rows[-1][0] == 25


def reference_ascent(fields, v_init, hyper, variant):
    """Iterates of one variant with fresh field builds for every gradient and objective."""
    vx, vy = v_init
    rows = [(vx, vy, fields(vx, vy)[0])]
    sx, sy = [0.0, 0.0, 0], [0.0, 0.0, 0]
    for _ in range(hyper.max_iters):
        gx = fields(vx, vy)[1]
        if variant == "adam-ao":
            vx_new = _adam_step(sx, vx, gx, hyper.step_x, hyper.beta1_x, hyper.beta2_x, hyper.epsilon)
            gy = fields(vx_new, vy)[2]
            vy_new = _adam_step(sy, vy, gy, hyper.step_y, hyper.beta1_y, hyper.beta2_y, hyper.epsilon)
        elif variant == "adam-joint":
            gy = fields(vx, vy)[2]
            vx_new = _adam_step(sx, vx, gx, hyper.step_x, hyper.beta1_x, hyper.beta2_x, hyper.epsilon)
            vy_new = _adam_step(sy, vy, gy, hyper.step_y, hyper.beta1_y, hyper.beta2_y, hyper.epsilon)
        else:
            gy = fields(vx, vy)[2]
            vx_new, vy_new = vx + hyper.step_x * gx, vy + hyper.step_y * gy
        vx, vy = vx_new, vy_new
        rows.append((vx, vy, fields(vx, vy)[0]))
    return np.array(rows)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ascent_matches_reference_on_convergence_instance(variant):
    # the convergence-study instance: head-on, signed, M=512, noisy echo, v_init 0
    geom, model, p, y, f = make_instance(
        512, (0.0, 10.0), V_TRUE, (0.0, 0.0), signed=True, noise_power=1e-8, seed=4
    )
    hyper = AdamHyper(rel_tol_x=0.0, rel_tol_y=0.0)
    _, trace = estimate_velocity(
        variant, y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=hyper, signed=True
    )
    got = np.array([(r[1], r[2], r[3]) for r in trace.rows])
    ref = reference_ascent(
        lambda vx, vy: direct_likelihood(y, geom, model, p, (vx, vy), f, signed=True),
        (0.0, 0.0), hyper, variant,
    )
    assert got.shape == (hyper.max_iters + 1, 3)
    np.testing.assert_allclose(got[:, :2], ref[:, :2], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(got[:, 2], ref[:, 2], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "variant, step, evals_per_iter",
    [("adam-ao", 0.05, 2), ("adam-joint", 0.05, 1), ("plain-gd", 200.0, 1)],
)
def test_trace_length_counts_iterations_when_stop_rule_fires(
    variant, step, evals_per_iter, monkeypatch
):
    geom, model, p, y, f = make_instance(64, (5.0, 10.0), V_TRUE, (0.0, 0.0))
    calls = []
    evaluate = agdao._VelocityProblem.evaluate

    def counted(self, vx, vy):
        calls.append((vx, vy))
        return evaluate(self, vx, vy)

    monkeypatch.setattr(agdao._VelocityProblem, "evaluate", counted)
    hyper = AdamHyper(step_x=step, step_y=step)
    _, trace = estimate_velocity(
        variant, y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=hyper
    )
    iters = trace.rows[-1][0]
    assert 1 < iters < hyper.max_iters
    assert len(trace) - 1 == iters
    assert [r[0] for r in trace.rows] == list(range(iters + 1))
    # one evaluation at the init, then evals_per_iter per iteration
    assert len(calls) == 1 + evals_per_iter * iters
    (_, vx0, vy0, *_), (_, vx1, vy1, *_) = trace.rows[-2:]
    assert agdao._rel_change(vx1, vx0) < hyper.rel_tol_x
    assert agdao._rel_change(vy1, vy0) < hyper.rel_tol_y


def test_unknown_variant_rejected_before_any_evaluation():
    class NoEvaluate:
        def evaluate(self, vx, vy):
            raise AssertionError("evaluated before the variant was checked")

    with pytest.raises(ValueError, match="unknown variant"):
        agdao._ascend(NoEvaluate(), (0.0, 0.0), AdamHyper(), "newton")


def test_non_finite_observation_raises():
    geom, model, p, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    bad = np.full(16, np.nan + 1j * np.nan)
    with pytest.raises(DivergenceError):
        adam_ao_estimate(bad, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS)


def test_bounded_steps_and_mostly_rising_objective():
    geom, model, p, y, f = make_instance(512, (0.0, 10.0), V_TRUE, (0.0, 0.0), signed=True)
    hyper = AdamHyper(rel_tol_x=0.0, rel_tol_y=0.0)
    _, trace = adam_ao_estimate(
        y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, hyper=hyper, signed=True
    )
    rows = np.array([(r[1], r[2], r[3]) for r in trace.rows])
    steps = np.abs(np.diff(rows[:, :2], axis=0))
    assert steps[:, 0].max() <= hyper.step_x * 1.05
    assert steps[:, 1].max() <= hyper.step_y * 1.05
    objs = rows[:, 2]
    slack = 1e-12 * np.maximum(1.0, np.abs(objs[:-1]))
    assert np.mean(objs[1:] >= objs[:-1] - slack) >= 0.95


def test_estimator_never_mutates_observation():
    geom, model, p, y, f = make_instance(
        32, (4.0, 11.0), V_TRUE, (0.0, 0.0), noise_power=1e-8, seed=13
    )
    snapshot = y.copy()
    first = adam_ao_estimate(y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS)
    second = adam_ao_estimate(y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS)
    np.testing.assert_array_equal(y, snapshot)
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1].rows == second[1].rows


def test_variant_dispatch_and_hyper_validation():
    geom, model, p, y, f = make_instance(16, (4.0, 11.0), V_TRUE, (0.0, 0.0))
    with pytest.raises(ValueError):
        gd_estimate(y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, variant="newton")
    with pytest.raises(ValueError):
        estimate_velocity("newton", y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS)
    assert set(VARIANTS) == {"adam-ao", "adam-joint", "plain-gd"}
    via_dispatch = estimate_velocity(
        "adam-joint", y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS
    )
    direct = gd_estimate(
        y, geom, model, p, (0.0, 0.0), f, 1.0, N_SYM, TS, variant="adam-joint"
    )
    np.testing.assert_array_equal(via_dispatch[0], direct[0])
    for bad in (
        dict(step_x=0.0),
        dict(beta1_y=1.0),
        dict(beta2_x=-0.1),
        dict(epsilon=0.0),
        dict(max_iters=0),
        dict(rel_tol_y=-1e-9),
    ):
        with pytest.raises(ValueError):
            AdamHyper(**bad)


def test_track_step_validates_observe_result():
    geom = geom_for(16)
    model = default_model()
    with pytest.raises(TypeError):
        agdao_track_step(
            (5.0, 10.0), (8.0, 7.0), lambda bf: np.zeros(16, complex),
            geom, model, 1.0, N_SYM, TS, N_SYM * TS,
        )


def test_track_step_noiseless_closed_loop():
    geom = geom_for(64)
    model = default_model()
    dt = N_SYM * TS
    noise = NoiseConfig(comm_noise_power=1e-8, echo_noise_power=0.0)
    rng = np.random.default_rng(0)
    traj = generate_trajectory(
        MotionState(5.0, 10.0, 8.0, 7.0), MotionNoise(0.0, 0.0), dt, 2000, rng
    )
    p_hat = np.array([5.0, 10.0])
    v_hat = np.array([8.0, 7.0])
    worst_p = 0.0
    worst_v = 0.0
    for l in range(1, 2000):
        eta = traj[l]

        def observe(bf, eta=eta, l=l):
            return synthesize_observation(
                geom, model, eta, bf, noise, 1.0, TS, rng, cpi_index=l
            )

        bf, p_hat, v_hat, trace = agdao_track_step(
            p_hat, v_hat, observe, geom, model, 1.0, N_SYM, TS, dt
        )
        if l == 1:
            # dead reckoning from the exact previous state lands on the truth
            assert p_hat[0] == eta.x and p_hat[1] == eta.y
            ref = predictive_beamformers(geom, p_hat, (8.0, 7.0), N_SYM, TS)
            np.testing.assert_array_equal(bf, ref)
        worst_p = max(worst_p, math.hypot(p_hat[0] - eta.x, p_hat[1] - eta.y))
        worst_v = max(worst_v, math.hypot(v_hat[0] - eta.vx, v_hat[1] - eta.vy))
    assert worst_p < 1e-3
    assert worst_v < 1e-6


def test_track_error_grows_with_range():
    # receding target: echo weakens as range climbs, velocity estimates wander more
    geom = geom_for(64)
    model = default_model()
    dt = N_SYM * TS
    cpis = 1200
    traj_rng = stream(0, "trajectory")
    noise_rng = stream(0, "echo-noise")
    traj = generate_trajectory(
        MotionState(5.0, 10.0, 8.0, 7.0), MotionNoise(0.01, 0.01), dt, cpis, traj_rng
    )
    noise = NoiseConfig(comm_noise_power=1e-8, echo_noise_power=1e-8)
    p_hat = np.array([5.0, 10.0])
    v_hat = np.array([8.0, 7.0])
    verr = []
    for l in range(1, cpis):
        eta = traj[l]

        def observe(bf, eta=eta, l=l):
            return synthesize_observation(
                geom, model, eta, bf, noise, 1.0, TS, noise_rng, cpi_index=l
            )

        bf, p_hat, v_hat, trace = agdao_track_step(
            p_hat, v_hat, observe, geom, model, 1.0, N_SYM, TS, dt
        )
        verr.append(math.hypot(v_hat[0] - eta.vx, v_hat[1] - eta.vy))
    early = float(np.mean(verr[:400]))
    late = float(np.mean(verr[-400:]))
    assert late > 1.3 * early
