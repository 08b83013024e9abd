"""The benchmark under perfbench/ wraps nfbeam's module attributes by name.

A renamed or removed attribute would crash the benchmark mid-run; these tests
make it fail here instead. They only read perfbench/.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nfbeam.agdao as agdao
import nfbeam.harness as harness
from nfbeam.beamforming import predictive_beamformers
from nfbeam.cli import main
from nfbeam.config import AdamHyper, ExperimentConfig, SystemConfig
from nfbeam.geometry import NearField
from nfbeam.signals import synthesize_observation

from helpers import system_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _probe_bindings():
    """(module, attribute) pairs that child.py's Probe.install assigns to."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    probe = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Probe")
    install = next(n for n in probe.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    modules = {arg.arg for arg in install.args.args[1:]}  # install(self, cli, harness)
    pairs = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) in modules:
                    pairs.add((f"nfbeam.{target.value.id}", target.attr))
    return sorted(pairs)


def _bindings():
    spans = _spans_module()
    table = [(module, attr) for module, attr, _ in spans.SPANS + spans.COUNTED]
    return sorted(set(table) | set(_probe_bindings()))


def test_probe_bindings_found():
    # guards the scan itself: an empty result would check nothing
    assert ("nfbeam.cli", "build_config") in _probe_bindings()


@pytest.mark.parametrize("module,attr", _bindings())
def test_benchmark_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_span_sees_calls(monkeypatch, tmp_path):
    # a binding that the program stops calling would not crash the traced run;
    # its layer would only read 0. Counters through monkeypatch, unlike
    # Tracer.install, are undone after the test.
    spans = _spans_module()
    calls = dict.fromkeys((name for _, _, name in spans.SPANS), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, name in spans.SPANS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counted(name, getattr(mod, attr)))
    small = ["--set", "system.num_antennas=16", "--out", str(tmp_path)]
    for argv in (
        ["track", "--cpis", "4"],
        ["track", "--cpis", "4", "--method", "agdao"],
        ["sweep-power", "--cpis", "2", "--powers", "10"],
        ["converge", "--seeds", "1"],
    ):
        assert main(argv + small) == 0, argv
    assert [name for name, n in calls.items() if n == 0] == []


def test_agdao_track_step_gets_hyper_by_keyword(monkeypatch):
    # spans.py reads kwargs["hyper"].max_iters to count max-iteration hits
    seen = []
    step = harness.agdao_track_step

    def spy(*args, **kwargs):
        seen.append(kwargs["hyper"])
        return step(*args, **kwargs)

    monkeypatch.setattr(harness, "agdao_track_step", spy)
    cfg = ExperimentConfig(system=SystemConfig(num_antennas=16), method="agdao", num_cpis=3)
    harness.run_experiment(cfg)
    assert seen == [cfg.adam, cfg.adam]


def test_span_counts_are_the_iterations_and_steps_taken(monkeypatch):
    # spans.py counts an ascent's iterations as len(result[1]) - 1 and a
    # tracking step's Gauss-Newton steps as len(result[3]) - 1
    tracer = _spans_module().Tracer()
    system = system_for(64, echo_noise_power=1e-8)
    nf = NearField(system, np.array([5.0, 10.0]))
    v_prev = np.array([7.5, 7.5])
    bf = predictive_beamformers(nf, v_prev)
    y = synthesize_observation(nf, (8.0, 7.0), bf, np.random.default_rng(2))

    kwargs = {"hyper": AdamHyper(step=0.05)}
    ascent = agdao.adam_ao_estimate(y, nf, v_prev, bf[-1], **kwargs)
    v_hat, trace = ascent
    tracer._observe("agdao.ascent", ascent, kwargs)
    # the stop rule fires before the cap
    assert 1 < trace[-1, 0] < kwargs["hyper"].max_iters
    assert tracer.counts["agdao.iters"] == trace[-1, 0]
    assert trace[-1, 1:3].tobytes() == v_hat.tobytes()

    calls = []
    load_update = agdao.load_update

    def spy(*args):
        calls.append(args)
        return load_update(*args)

    monkeypatch.setattr(agdao, "load_update", spy)
    state, cov = np.array([4.0, 11.0, 7.5, 7.5]), 0.1 * np.eye(2)
    kwargs = {"hyper": AdamHyper()}
    step = agdao.agdao_track_step(state, cov, lambda beams: y, system, (0.01, 0.01), **kwargs)
    _, _, v_hat, path, _ = step
    tracer._observe("agdao.track_step", step, kwargs)
    assert tracer.counts["agdao.track_step.iters"] == len(calls) >= 1
    assert tracer.counts["agdao.max_iter_hits"] == 0
    assert path[-1].tobytes() == v_hat.tobytes()
    assert path[0].tobytes() == state[2:].tobytes()


def test_baselines_are_batched_through_the_spanned_bindings(monkeypatch):
    # the traced split reads these five harness bindings; the baseline work
    # must still pass through them, a chunk of CPIs per call
    names = ("opt_beamformers", "ff_beamformers", "predictive_beamformers",
             "cpi_throughput", "fd_predicted_state")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    cpis = 50
    harness.run_experiment(ExperimentConfig(method="ekf", num_cpis=cpis))
    assert all(n >= 1 for n in calls.values()), calls
    # a few calls per chunk of CPIs, not one or more per CPI
    assert calls["cpi_throughput"] < 2 * cpis, calls


def test_traced_split_reads_one_snapshot_per_tracked_cpi(monkeypatch):
    # the traced split's per-CPI counts: throughput once per chunk, the EKF's
    # three model calls once per tracked CPI, all on one snapshot of the prior
    # mean, and few near-field builds a CPI
    import nfbeam.ekf as ekf
    import nfbeam.geometry as geometry

    calls = {"cpi_throughput": 0, "element_distances": 0}
    snapshots = {"predictive_beamformers": [], "observation_mean": [],
                 "observation_jacobian": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(name, fn):
        # the call's one NearField argument, picked by type, not by slot
        def wrapper(*args, **kwargs):
            near = [a for a in (*args, *kwargs.values()) if isinstance(a, geometry.NearField)]
            snapshots[name].append(near[0] if len(near) == 1 else None)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        harness, "cpi_throughput", counted("cpi_throughput", harness.cpi_throughput)
    )
    monkeypatch.setattr(
        geometry, "element_distances", counted("element_distances", geometry.element_distances)
    )
    for name in snapshots:
        monkeypatch.setattr(ekf, name, recorded(name, getattr(ekf, name)))

    cpis = 50
    cfg = ExperimentConfig(method="ekf", num_cpis=cpis)
    harness.run_experiment(cfg)
    system = cfg.system
    chunk = harness.BASELINE_CHUNK_ELEMENTS // (system.symbols_per_cpi * system.num_antennas)
    assert calls["cpi_throughput"] == -(-cpis // chunk), calls
    for name, seen in snapshots.items():
        assert len(seen) == cpis - 1, name
        assert all(isinstance(s, geometry.NearField) for s in seen), name
    for per_cpi in zip(*snapshots.values()):
        assert per_cpi[0] is per_cpi[1] is per_cpi[2]
    assert calls["element_distances"] <= 3 * cpis, calls


@pytest.mark.parametrize("num_antennas", [64, 512])
def test_phasor_elements_per_cpi_stay_a_few_rows(monkeypatch, num_antennas):
    # each N x M beam or channel matrix is built from M-length phasor rows
    # (symbol Dopplers by recurrence, far-field beams as an outer product),
    # and the genie's rate is a closed form, so a CPI feeds cos/sin about nine
    # rows of M, not four N x M blocks
    import nfbeam.geometry as geometry

    fed = []
    phasor = geometry.unit_phasor

    def spy(theta):
        out = phasor(theta)
        fed.append(out.size)
        return out

    monkeypatch.setattr(geometry, "unit_phasor", spy)
    cpis = 50
    harness.run_experiment(ExperimentConfig(
        system=SystemConfig(num_antennas=num_antennas), method="ekf", num_cpis=cpis
    ))
    assert sum(fed) <= 10 * num_antennas * cpis, sum(fed) / (num_antennas * cpis)
