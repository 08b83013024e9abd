"""Experiment configuration: dataclasses, JSON input, and --set overrides.

The dataclass fields are the schema. JSON keys, their types and their defaults
are read from the fields, and each dataclass checks its own numbers (finite,
then in range) when it is constructed, so every config has passed them.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import SPEED_OF_LIGHT

METHODS = ("opt", "ff", "fd", "agdao", "ekf")

# The most bytes one numpy array can address
MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path and the message apart."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def _require(cfg, name: str, ok: bool, rule: str) -> None:
    if not ok:
        raise ConfigError(name, f"must be {rule}, got {getattr(cfg, name)!r}")


def _finite(compute) -> bool:
    """Whether compute() gives a finite float; an overflow to inf or past
    float range is not."""
    try:
        return math.isfinite(compute())
    except OverflowError:
        return False


def _require_finite(cfg) -> None:
    """Every float field, alone or in a tuple, is finite; JSON reads NaN and Infinity."""
    for name, value in vars(cfg).items():  # the fields, in their order
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(name, f"must be finite, got {x!r}")


@functools.cache
def _tuple_lengths(cls) -> dict[str, int]:
    """The tuple-typed fields of dataclass cls and the lengths they are annotated with."""
    return {
        name: len(typing.get_args(tp))
        for name, tp in typing.get_type_hints(cls).items()
        if typing.get_origin(tp) is tuple
    }


def _require_float_tuples(cfg) -> None:
    """Each tuple-typed field, given as any sequence of numbers (a list, an
    array), becomes a tuple of floats of its annotated length."""
    for name, length in _tuple_lengths(type(cfg)).items():
        value = getattr(cfg, name)
        try:
            items = list(value)
            ok = len(items) == length and all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items
            )
            if ok:
                items = tuple(map(float, items))
        except (TypeError, OverflowError):  # not iterable; an int beyond float range
            ok = False
        if not ok:
            raise ConfigError(name, f"must be {length} numbers, got {value!r}")
        object.__setattr__(cfg, name, items)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Physical layer: array, carrier, frame timing, powers, reflection.

    The one description of the link that geometry.NearField carries and every
    model function reads.
    """

    num_antennas: int = 512
    carrier_freq_hz: float = 30.0e9
    spacing_m: float | None = None      # None means half a wavelength
    symbol_duration_s: float = 1.0e-5
    symbols_per_cpi: int = 10
    tx_power_dbm: float = 30.0
    comm_noise_power: float = 1.0e-8
    echo_noise_power: float = 1.0e-8
    ref_gain: float = 1.0
    rcs: float = 1.0
    signed_projection: bool = False

    def __post_init__(self) -> None:
        _require_finite(self)
        _require(self, "num_antennas", self.num_antennas >= 1, ">= 1")
        _require(self, "carrier_freq_hz", self.carrier_freq_hz > 0, "positive")
        _require(self, "spacing_m", self.spacing_m is None or self.spacing_m > 0, "positive")
        _require(self, "symbol_duration_s", self.symbol_duration_s > 0, "positive")
        _require(self, "symbols_per_cpi", self.symbols_per_cpi >= 1, ">= 1")
        _require(
            self, "num_antennas",
            16 * self.symbols_per_cpi * self.num_antennas <= MAX_ARRAY_BYTES,
            f"small enough that a {self.symbols_per_cpi} x num_antennas complex beam "
            f"fits in {MAX_ARRAY_BYTES} bytes",
        )
        _require(
            self, "symbol_duration_s", _finite(lambda: self.cpi_duration_s),
            f"small enough that {self.symbols_per_cpi} symbols last a finite time",
        )
        _require(
            self, "tx_power_dbm", _finite(lambda: self.tx_power_w),
            "finite with a finite power in watts",
        )
        _require(self, "comm_noise_power", self.comm_noise_power > 0, "positive")
        _require(self, "echo_noise_power", self.echo_noise_power >= 0, "nonnegative")
        _require(self, "ref_gain", self.ref_gain > 0, "positive")
        _require(self, "rcs", self.rcs > 0, "positive")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber 2*pi/lambda."""
        return 2.0 * math.pi / self.wavelength_m

    @property
    def spacing(self) -> float:
        return self.wavelength_m / 2.0 if self.spacing_m is None else self.spacing_m

    @property
    def cpi_duration_s(self) -> float:
        return self.symbols_per_cpi * self.symbol_duration_s

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)


@dataclass(frozen=True)
class AdamHyper:
    """AGD-AO's Adam hyperparameters, shared by both axes, and its stop rule."""

    step: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_iters: int = 500
    rel_tol: float = 1e-5

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("step", "epsilon"):
            _require(self, name, getattr(self, name) > 0, "positive")
        for name in ("beta1", "beta2"):
            _require(self, name, 0 <= getattr(self, name) < 1, "in [0, 1)")
        _require(self, "max_iters", self.max_iters >= 1, ">= 1")
        _require(self, "rel_tol", self.rel_tol >= 0, "nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    """A full tracking experiment over num_cpis CPIs."""

    system: SystemConfig = SystemConfig()
    method: str = "ekf"
    num_cpis: int = 2000
    seed: int = 0
    initial_state: tuple[float, float, float, float] = (5.0, 10.0, 8.0, 7.0)
    motion_var: tuple[float, float] = (0.01, 0.01)
    feedback_period_s: float = 0.1
    adam: AdamHyper = AdamHyper()
    ekf_init_cov: float = 0.1
    convergence_state: tuple[float, float, float, float] = (0.0, 10.0, 8.0, 7.0)
    convergence_v_init: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _require_float_tuples(self)
        _require_finite(self)
        _require(self, "method", self.method in METHODS, f"one of {list(METHODS)}")
        _require(self, "num_cpis", self.num_cpis >= 1, ">= 1")
        _require(self, "seed", self.seed >= 0, "nonnegative")
        _require(self, "motion_var", all(var >= 0 for var in self.motion_var), "nonnegative")
        _require(self, "ekf_init_cov", self.ekf_init_cov > 0, "positive")
        cpi = self.system.cpi_duration_s
        count = self.feedback_period_s / cpi  # finite operands can overflow it
        _require(self, "feedback_period_s", math.isfinite(count), f"finitely many CPIs ({cpi} s)")
        _require(self, "feedback_period_s", round(count) >= 1, f"at least one CPI ({cpi} s)")

    @property
    def feedback_period_cpis(self) -> int:
        return round(self.feedback_period_s / self.system.cpi_duration_s)


def _from_dict(cls, raw: dict, prefix: str = ""):
    """Build dataclass cls from a JSON object; keys and types come from its fields."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ConfigError(prefix + unknown[0], "unknown key")
    kwargs = {name: _from_json(hints[name], value, prefix + name) for name, value in raw.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.field, exc.message) from None


# JSON types each leaf type accepts, and how a rejection names the type
_LEAVES = {
    bool: (bool, "true/false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def _from_json(tp, value, field: str):
    """One JSON value checked against a field's type; ints widen to float."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(field, f"expected an object, got {value!r}")
        return _from_dict(tp, value, field + ".")
    if typing.get_origin(tp) is tuple:  # the constructor checks and converts it
        return value
    args = typing.get_args(tp)
    if args:  # T | None
        return None if value is None else _from_json(args[0], value, field)
    accepts, name = _LEAVES[tp]
    # bool is an int subclass: only a bool field takes true/false
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepts):
        raise ConfigError(field, f"expected {name}, got {value!r}")
    try:
        return tp(value)
    except OverflowError:  # an int beyond float range
        raise ConfigError(field, f"must be within float range, got {value!r}") from None


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply key=value assignments with dotted paths, e.g. system.num_antennas=128."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in assignments:
        if "=" not in item:
            raise ConfigError("set", f"expected key=value, got {item!r}")
        key, _, text = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("set", f"empty key in {item!r}")
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, f"{part} is not an object")
        node[parts[-1]] = _parse_override_value(text.strip())
    return out


def build_config(
    config_path=None, assignments: list[str] | None = None, **direct
) -> ExperimentConfig:
    """Config file (or defaults), then --set overrides, then direct kwargs."""
    raw = {}
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be a JSON object")
    if assignments:
        raw = apply_overrides(raw, assignments)
    for key, value in direct.items():
        if value is not None:
            raw[key] = value
    return _from_dict(ExperimentConfig, raw)
