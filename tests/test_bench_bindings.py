"""The benchmark under perfbench/ wraps nfbeam's module attributes by name.

A renamed or removed attribute would crash the benchmark mid-run; these tests
make it fail here instead. They only read perfbench/.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import nfbeam.harness as harness
from nfbeam import ExperimentConfig, SystemConfig

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
    # one call per CPI for the tracker's own beam, a few per chunk for opt/ff/fd
    assert calls["cpi_throughput"] < 2 * cpis, calls
