"""Acceptance gate: ten end-to-end criteria, one test (and one -v line) each.

Closed forms and finite differences bound the math; ordering and determinism
properties bound the system behavior. Criterion 7 audits the covariances of
criterion 5's tracking run, so that run is computed once and cached.
"""
import dataclasses
import time

import numpy as np
import pytest

from nfbeam.agdao import VelocityProblem
from nfbeam.beamforming import opt_beamformers, predictive_beamformers
from nfbeam.cli import main
from nfbeam.config import ExperimentConfig
from nfbeam.ekf import kalman_update, observation_jacobian
from nfbeam.geometry import (
    NearField,
    doppler_vector,
    roundtrip_channel,
    steering_vector,
)
from nfbeam.harness import TRACE_COLUMNS, convergence_study, power_sweep, run_experiment
from nfbeam.signals import observation_mean, received_snr

from helpers import fd_central, fd_central4, sample_state, system_for

_CACHE: dict[str, object] = {}


def _desk_config(**kw):
    """Operating-point config at the 128-antenna desk scale."""
    base = ExperimentConfig()
    system = dataclasses.replace(base.system, num_antennas=128)
    return dataclasses.replace(base, system=system, **kw)


def _tracking_runs():
    """Criterion-5 closed-loop runs (ekf + agdao), shared with criterion 7.

    The EKF run's Kalman posteriors, one per tracked CPI, are kept for criterion 7.
    """
    if "ekf" not in _CACHE:
        cfg = _desk_config(num_cpis=2000)
        posteriors = _CACHE["posteriors"] = []

        def kept_update(*args, **kwargs):
            posterior, diag = kalman_update(*args, **kwargs)
            posteriors.append(posterior)
            return posterior, diag

        t0 = time.perf_counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("nfbeam.ekf.kalman_update", kept_update)
            _CACHE["ekf"] = run_experiment(dataclasses.replace(cfg, method="ekf"))
        _CACHE["agdao"] = run_experiment(dataclasses.replace(cfg, method="agdao"))
        _CACHE["elapsed"] = time.perf_counter() - t0
    return _CACHE


def test_criterion_01_matched_beam_snr_closed_form():
    t0 = time.perf_counter()
    sys_cfg = ExperimentConfig().system
    p_w = sys_cfg.tx_power_w
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        eta = sample_state(rng, sys_cfg)
        nf = NearField(sys_cfg, eta[:2])
        bf = opt_beamformers(nf, eta[2:])
        alpha1 = nf.alpha1
        want = p_w * sys_cfg.num_antennas * alpha1**2 / sys_cfg.comm_noise_power
        for n in range(1, sys_cfg.symbols_per_cpi + 1):
            got = received_snr(nf, eta[2:], bf[n - 1], n)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst relative SNR deviation {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_velocity_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (64, 512):
        for signed in (False, True):
            system = system_for(m, signed)
            rng = np.random.default_rng(1000 + m + int(signed))
            for _ in range(25):
                eta = sample_state(rng, system)
                nf = NearField(system, eta[:2])
                v_beam = eta[2:] + rng.uniform(-2.0, 2.0, 2)
                f = predictive_beamformers(nf, v_beam)[-1]
                mean = observation_mean(nf, eta[2:], f)
                scale = 0.01 * np.linalg.norm(mean) / np.sqrt(m)
                y = mean + scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
                v = eta[2:] + rng.uniform(-3.0, 3.0, 2)
                evaluate = VelocityProblem(y, nf, f).evaluate
                for axis in (0, 1):
                    got = evaluate(*v)[1 + axis]

                    def along(t, axis=axis, v=v):
                        vv = v.copy()
                        vv[axis] = t
                        return evaluate(*vv)[0]

                    ref = fd_central(along, v[axis], 1e-4)
                    worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst relative gradient error {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_03_observation_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for signed in (False, True):
        system = system_for(64, signed)
        rng = np.random.default_rng(21 + int(signed))
        for _ in range(25):
            eta = sample_state(rng, system)
            nf = NearField(system, eta[:2])
            f = predictive_beamformers(nf, (0.0, 0.0))[-1]
            jac = np.asarray(observation_jacobian(nf, eta[2:], f))

            for col in range(4):
                def along(t, col=col, system=system, f=f):
                    s = eta.copy()
                    s[col] = t
                    return observation_mean(NearField(system, s[:2]), s[2:], f)

                # position columns oscillate at carrier scale, so the second-order
                # difference is all truncation there; use the 5-point stencil
                if col < 2:
                    ref = fd_central4(along, eta[col], 1e-4)
                else:
                    ref = fd_central(along, eta[col], 1e-4)
                worst = max(
                    worst, np.linalg.norm(jac[:, col] - ref) / np.linalg.norm(ref)
                )
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: worst relative column error {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_04_estimator_converges_and_variants_order():
    # run at the broadside reference instance under the signed projection
    # convention, where both velocity axes are observable from one echo
    t0 = time.perf_counter()
    base = ExperimentConfig()
    cfg = dataclasses.replace(
        base, system=dataclasses.replace(base.system, signed_projection=True)
    )
    traces = convergence_study(cfg, num_seeds=10)
    elapsed = time.perf_counter() - t0
    err = {axis: TRACE_COLUMNS.index(axis) for axis in ("err_vx", "err_vy")}

    med = {}
    for axis, col in err.items():
        mins = [
            min(table[:, col].tolist())
            for (variant, _), table in traces.items()
            if variant == "adam-ao"
        ]
        med[axis] = float(np.median(mins))

    rse = {}
    for variant in ("adam-ao", "adam-joint", "plain-gd"):
        # row k of a trace is iterate k
        at100 = [
            table[100, err["err_vx"]].item() ** 2 + table[100, err["err_vy"]].item() ** 2
            for (v, _), table in traces.items()
            if v == variant
        ]
        rse[variant] = float(np.sqrt(np.mean(at100)))

    print(
        f"criterion 4: median best error ({med['err_vx']:.2e}, {med['err_vy']:.2e}), "
        f"RSE@100 ao {rse['adam-ao']:.4f} joint {rse['adam-joint']:.4f} "
        f"gd {rse['plain-gd']:.4f} ({elapsed:.1f}s)"
    )
    assert med["err_vx"] < 0.05
    assert med["err_vy"] < 0.05
    # the two Adam variants tie to ~1e-6 relative here; allow that slack
    assert rse["adam-ao"] <= rse["adam-joint"] * (1.0 + 1e-4)
    assert rse["adam-joint"] <= rse["plain-gd"] * (1.0 + 1e-4)
    assert elapsed < 120.0


def test_criterion_05_closed_loop_throughput_near_genie():
    runs = _tracking_runs()
    ekf = runs["ekf"].summary()
    ag = runs["agdao"].summary()
    r_ekf, r_ag = ekf["mean_rate"], ag["mean_rate"]
    r_opt, r_ff = ekf["mean_rate_opt"], ekf["mean_rate_ff"]
    print(
        f"criterion 5: ekf/opt {r_ekf / r_opt:.6f}, agdao/opt {r_ag / r_opt:.6f}, "
        f"ff {r_ff:.4f} vs ekf {r_ekf:.4f} ({runs['elapsed']:.1f}s)"
    )
    assert r_ekf >= 0.98 * r_opt
    assert r_ag >= 0.95 * r_opt
    assert r_ff < r_ekf
    assert r_ff < r_ag
    assert runs["elapsed"] < 60.0


def test_criterion_06_throughput_grows_with_power():
    cfg = _desk_config(num_cpis=600)
    rows = power_sweep(cfg)
    ekf = {r.tx_power_dbm: r.mean_rate for r in rows if r.method == "ekf"}
    ag = {r.tx_power_dbm: r.mean_rate for r in rows if r.method == "agdao"}
    levels = sorted(ekf)
    print(
        "criterion 6: ekf " + " ".join(f"{ekf[p]:.3f}" for p in levels)
        + f", agdao@10 {ag[10.0]:.3f}"
    )
    for lo, hi in zip(levels, levels[1:]):
        assert ekf[hi] >= ekf[lo]
    assert ag[10.0] <= ekf[10.0]


def test_criterion_07_filter_covariance_stays_healthy():
    runs = _tracking_runs()
    beliefs = runs["posteriors"]
    worst_asym = 0.0
    worst_eig = np.inf
    for b in beliefs:
        cov = b.covariance
        worst_asym = max(worst_asym, float(np.max(np.abs(cov - cov.T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(cov)[0] / np.trace(cov)))
    print(
        f"criterion 7: {len(beliefs)} covariances, worst asymmetry {worst_asym:.1e}, "
        f"worst eigenvalue/trace {worst_eig:.1e}"
    )
    # the initial 0.1 I belief of CPI 1 is not a filter output
    assert len(beliefs) == 2000 - 1
    assert worst_asym <= 1e-10
    assert worst_eig >= -1e-9


def test_criterion_08_geometry_identities_hold_in_bulk():
    systems = (system_for(64), system_for(64, signed=True))
    rng = np.random.default_rng(31)
    worst_a = worst_d = worst_gq = 0.0
    for i in range(1000):
        x = float(rng.uniform(-30.0, 30.0))
        y = float(rng.uniform(2.0, 50.0))
        v = rng.uniform(-20.0, 20.0, 2)
        system = systems[i % 2]
        atil = steering_vector(system, (x, y))
        worst_a = max(worst_a, float(np.max(np.abs(np.abs(atil) - 1.0))))
        nf = NearField(system, (x, y))
        d = doppler_vector(int(rng.integers(1, 11)), v, nf)
        worst_d = max(worst_d, float(np.max(np.abs(np.abs(d) - 1.0))))
        worst_gq = max(worst_gq, float(np.max(np.abs(nf.g**2 + nf.q**2 - 1.0))))

    system16 = system_for(16)
    worst_rank = 0.0
    symmetric = True
    for _ in range(1000):
        x = float(rng.uniform(-30.0, 30.0))
        y = float(rng.uniform(2.0, 50.0))
        v = rng.uniform(-20.0, 20.0, 2)
        h = roundtrip_channel(int(rng.integers(1, 11)), v, NearField(system16, (x, y)))
        symmetric = symmetric and bool(np.array_equal(h, h.T))
        s = np.linalg.svd(h, compute_uv=False)
        worst_rank = max(worst_rank, float(s[1] / s[0]))
    print(
        f"criterion 8: unit modulus {worst_a:.1e}/{worst_d:.1e}, "
        f"projection identity {worst_gq:.1e}, rank ratio {worst_rank:.1e}"
    )
    assert worst_a < 1e-12
    assert worst_d < 1e-12
    assert worst_gq < 1e-12
    assert symmetric
    assert worst_rank < 1e-12


def test_criterion_09_csv_outputs_are_byte_identical_across_reruns(tmp_path):
    small = ["--set", "system.num_antennas=16"]
    commands = {
        "track": ["track", "--method", "ekf", "--cpis", "30", "--seed", "3", *small],
        "sweep-power": ["sweep-power", "--cpis", "20", "--seed", "3",
                        "--powers", "10,30", *small],
        "converge": ["converge", "--seeds", "2", "--seed", "1",
                     "--set", "adam.max_iters=40", *small],
    }
    checked = []
    for name, argv in commands.items():
        d1 = tmp_path / f"{name}-a"
        d2 = tmp_path / f"{name}-b"
        assert main([*argv, "--out", str(d1)]) == 0
        assert main([*argv, "--out", str(d2)]) == 0
        produced = sorted(p.name for p in d1.glob("*.csv"))
        assert produced
        for fname in produced:
            assert (d1 / fname).read_bytes() == (d2 / fname).read_bytes()
            checked.append(f"{name}/{fname}")
    print(f"criterion 9: byte-identical reruns for {', '.join(checked)}")


def test_criterion_10_noiseless_trackers_hold_the_fixed_point():
    base = ExperimentConfig()
    system = dataclasses.replace(base.system, num_antennas=64, echo_noise_power=0.0)
    cfg = dataclasses.replace(
        base, system=system, num_cpis=100, motion_var=(0.0, 0.0)
    )
    worst = {}
    for method in ("ekf", "agdao"):
        result = run_experiment(dataclasses.replace(cfg, method=method))
        worst[method] = max(
            float(np.hypot(r.x - r.x_hat, r.y - r.y_hat)) for r in result.rows
        )
    print(
        f"criterion 10: worst position error ekf {worst['ekf']:.1e}, "
        f"agdao {worst['agdao']:.1e}"
    )
    assert worst["ekf"] < 1e-6
    assert worst["agdao"] < 1e-6
