"""Experiment settings: each field described once, and the config layout, flags and archived settings made from it."""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections.abc import Callable, Collection
from dataclasses import Field, asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import TYPE_CHECKING, Any, Literal, get_args, get_origin, get_type_hints

from .analysis import DEFAULT_LEVEL, DEFAULT_RESAMPLES, MIN_RESAMPLES, MIN_SAMPLE_SIZE
from .errors import ConfigError
from .executor import CorePlan
from .measurement import Backend, ClockMode, Pairing, Strategy
from .workloads import DEFAULT_SCALES, WorkloadKind, WorkloadSpec, make_workload

if TYPE_CHECKING:
    import argparse  # only the CLI builds parsers; a gate that imports duetbench does not load argparse

ALL_STRATEGIES = (Strategy.INDEPENDENT, Strategy.RMIT, Strategy.DUET)


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """A dataclass's field types, resolved once."""
    return get_type_hints(cls)


def check_fields(obj: Any) -> None:
    """Bring each field of a frozen dataclass to its annotated type.

    Converts the JSON forms: enum values to members, lists to tuples, a
    string to a Path, an int to a float and an object to a nested dataclass.
    Raises ConfigError on any other type (a bool is not an int), a value its
    `Literal` lacks, a non-finite float and an object key the dataclass lacks.
    """
    for name, hint in _field_types(type(obj)).items():
        object.__setattr__(obj, name, _convert(getattr(obj, name), hint, name))


def _convert(value: Any, hint: Any, name: str) -> Any:
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # `T | None`
        return None if value is None else _convert(value, args[0], name)
    if origin is tuple:  # `tuple[T, ...]`
        if isinstance(value, (list, tuple)):
            return tuple(_convert(item, args[0], name) for item in value)
    elif origin is Literal:
        if isinstance(value, str) and value in args:
            return value
        raise ConfigError(f"{name}: {value!r} is none of {list(args)}")
    elif isinstance(value, bool) and hint is not bool:
        pass  # bool subclasses int, but True is no count or float
    elif hint is float and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            if math.isfinite(value):
                return float(value)
    elif hint is Path and isinstance(value, str):
        return Path(value)
    elif isinstance(value, hint):
        return value
    elif issubclass(hint, Enum):
        with contextlib.suppress(ValueError):
            return hint(value)
    elif is_dataclass(hint) and isinstance(value, dict) and value.keys() <= {f.name for f in fields(hint)}:
        return hint(**value)
    raise ConfigError(f"{name}: {value!r} is not a valid {getattr(hint, '__name__', hint)}")


def _about(default: Any, **metadata: Any) -> Any:  # a field and its description; see ExperimentConfig
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class VariabilityModel:
    """Parameters of the simulated platform.

    `instance_quality_cv` and `duet_jitter_cv` are coefficients of variation
    of their multipliers; `temporal_sigma` is the log-space standard deviation
    of the per-draw factor. `duet_jitter_cv` is the residual independent
    jitter applied around a shared draw so duet intervals are small but not
    exactly zero; set it to 0 for fully shared draws.
    """

    instance_quality_cv: float = _about(0.15, flag="--quality-cv")
    temporal_sigma: float = 0.05
    cold_penalty_ms: float = 150.0
    base_cost_ns_per_unit: float = _about(100.0, flag="--base-cost-ns")
    drift_period_s: float = 300.0
    drift_amplitude: float = 0.12
    duet_jitter_cv: float = 0.002
    time_step_s: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("instance_quality_cv", "temporal_sigma", "cold_penalty_ms", "drift_amplitude", "duet_jitter_cv"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("base_cost_ns_per_unit", "drift_period_s", "time_step_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.drift_amplitude >= 1.0:
            raise ConfigError(f"drift_amplitude must be < 1, got {self.drift_amplitude}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A gate's settings. The metadata of each field describes it:

    - `key`: its dotted path in a config file and in summary.json's `config` block (default: the
      field name); a path ending in `.0` or `.1` is an item of a pair;
    - `written`: False for a field a config file sets but summary.json does not hold;
    - `flag`: its flag (default: `--name-with-dashes`); fields that share one take a value each;
    - `analyze`: True for a field that `analyze` takes; `help`: its flag's help.
    """

    strategies: tuple[Strategy, ...] = _about(ALL_STRATEGIES, flag="--strategy",
                                              help="strategy to run (repeatable; default: all three)")
    backend: Backend = Backend.SIMULATED
    repetitions: int = 1500
    instances: int = 4
    seed: int = _about(42, analyze=True)
    workload: WorkloadKind = _about(WorkloadKind.CPU_MUTATION, key="workload.kind")
    scale: int | None = _about(None, key="workload.scale")  # None = the kind's default
    regression_pct: float = 0.0
    baseline_label: str = _about("A", key="labels.0", analyze=True)
    candidate_label: str = _about("B", key="labels.1", analyze=True)
    ci_level: float = _about(DEFAULT_LEVEL, analyze=True)
    resamples: int = _about(DEFAULT_RESAMPLES, analyze=True)
    threshold_pct: float = _about(1.0, analyze=True)
    min_samples: int = _about(MIN_SAMPLE_SIZE, analyze=True)
    run_sweep: bool = _about(False, key="sweep.enabled", flag="--sweep", help="also compute the sample-size sweep")
    sweep_start: int = _about(MIN_SAMPLE_SIZE, key="sweep.start")
    sweep_stop: int = _about(1500, key="sweep.stop")
    sweep_step: int = _about(5, key="sweep.step")
    clock: ClockMode | None = _about(None, help="force one clock for every strategy")
    pairing: Pairing = _about(Pairing.INDEX, analyze=True)
    pinning: bool = _about(True, flag="--no-pin", help="run live workers without core pinning")
    core_a: int = _about(0, key="cores.0", flag="--cores")
    core_b: int = _about(1, key="cores.1", flag="--cores")
    model: VariabilityModel = field(default_factory=VariabilityModel)
    output_dir: Path = _about(Path("results"), written=False, flag="--out", analyze=True,
                              help="output directory (default: results; analyze writes no files without it)")
    formats: tuple[Literal["json", "csv"], ...] = _about(("json", "csv"), written=False, flag="--format", analyze=True,
                                                         help="summary format (repeatable)")

    def __post_init__(self) -> None:
        check_fields(self)
        if self.scale is None:
            object.__setattr__(self, "scale", DEFAULT_SCALES[self.workload])
        for name, least in (("seed", 0), ("instances", 1), ("repetitions", 1), ("resamples", MIN_RESAMPLES),
                            ("min_samples", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"ci_level must lie in (0, 1), got {self.ci_level}")
        if self.run_sweep and self.sweep_step < 1:
            raise ConfigError(f"sweep step must be >= 1, got {self.sweep_step}")
        if self.run_sweep and not self.min_samples <= self.sweep_start <= self.sweep_stop:
            raise ConfigError(
                f"sweep start {self.sweep_start} must lie between min_samples {self.min_samples} and stop {self.sweep_stop}"
            )
        try:
            CorePlan(self.core_a, self.core_b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        for i, strategy in enumerate(self.strategies):
            if strategy in self.strategies[:i]:
                raise ConfigError(f"strategy {strategy.value!r} is given more than once")
        if self.baseline_label == self.candidate_label:
            raise ConfigError("baseline and candidate labels must differ")

    def specs(self) -> tuple[WorkloadSpec, WorkloadSpec]:
        return (
            make_workload(self.workload, self.scale, self.baseline_label, 0.0),
            make_workload(self.workload, self.scale, self.candidate_label, self.regression_pct),
        )

    def to_dict(self, *, analysis: bool = False) -> dict[str, Any]:
        """summary.json's `config` block; with `analysis`, only the settings `analyze` takes."""
        return _write(self, _ARCHIVED_KEYS if analysis else _SUMMARY_KEYS)

    @classmethod
    def from_dict(cls, raw: Any, **overrides: Any) -> ExperimentConfig:
        """Build a config from the layout `to_dict` writes, plus `output_dir` and `formats`.

        `overrides` are field values that win over `raw`'s. Raises ConfigError
        on an unknown key, a wrong type or an out-of-range value.
        """
        return cls(**{**_read(raw, _FILE_KEYS), **overrides})

    @classmethod
    def from_file(cls, path: Path | str, **overrides: Any) -> ExperimentConfig:
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")), **overrides)


def _layout(keep: Callable[[Field], bool]) -> dict[str, Any]:
    """The key paths of the ExperimentConfig fields that `keep`, as a tree whose leaves name the fields."""
    tree: dict[str, Any] = {}
    for f in fields(ExperimentConfig):
        if keep(f):
            parent, _, leaf = f.metadata.get("key", f.name).rpartition(".")
            (tree.setdefault(parent, {}) if parent else tree)[leaf] = f.name
    return tree


_FILE_KEYS = _layout(lambda f: True)
_SUMMARY_KEYS = _layout(lambda f: f.metadata.get("written", True))
_ARCHIVED_KEYS = _layout(lambda f: f.metadata.get("written", True) and f.metadata.get("analyze", False))


def archived_settings(raw_csv: Path | str) -> dict[str, Any]:
    """The settings `analyze` takes, by field name and as JSON values, from the summary.json beside `raw_csv`.

    Returns {} when there is no summary.json; raises ConfigError when there
    is one that does not hold the settings.
    """
    path = Path(raw_csv).with_name("summary.json")
    if not path.exists():
        return {}
    try:
        config = json.loads(path.read_text(encoding="utf-8"))["config"]
        values = _read({key: config[key] for key in _ARCHIVED_KEYS}, _FILE_KEYS)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{path} does not hold the archive's analysis settings: {exc!r}") from None
    ExperimentConfig(**values)  # refuses a malformed setting
    return values


def _write(cfg: ExperimentConfig, tree: dict[str, Any]) -> Any:
    out = {key: _write(cfg, node) if isinstance(node, dict) else _json(getattr(cfg, node)) for key, node in tree.items()}
    return list(out.values()) if "0" in tree else out


def _json(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return asdict(value) if is_dataclass(value) else value


def _read(raw: Any, tree: dict[str, Any], path: str = "") -> dict[str, Any]:
    """Field values by name from `raw`, laid out as `tree`; ConfigError on an unknown key or a wrong shape."""
    if "0" in tree:  # a pair
        if not (isinstance(raw, list) and len(raw) == len(tree)):
            raise ConfigError(f"{path.rstrip('.')} must be a list of two values, got {raw!r}")
        raw = dict(zip(tree, raw))
    elif not isinstance(raw, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be a JSON object, got {raw!r}")
    values: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in tree:
            raise ConfigError(f"unknown config key {path + key!r}")
        node = tree[key]
        values.update(_read(value, node, f"{path}{key}.") if isinstance(node, dict) else {node: value})
    return values


def _flag_table(cls: type = ExperimentConfig, prefix: str = "") -> dict[str, tuple[list[str], Field, Any]]:
    """Each flag: the dests of the fields it sets, and the first one's field and type; a dataclass's fields replace it."""
    table: dict[str, tuple[list[str], Field, Any]] = {}
    for f in fields(cls):
        hint = _field_types(cls)[f.name]
        if is_dataclass(hint):
            table.update(_flag_table(hint, f"{prefix}{f.name}."))
        else:
            flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
            table.setdefault(flag, ([], f, hint))[0].append(prefix + f.name)
    return table


_FLAGS = _flag_table()


def _argument(hint: Any, default: Any) -> dict[str, Any]:
    """The argparse keywords of a flag for a field of type `hint`."""
    if get_origin(hint) is UnionType:  # `T | None`
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:  # `tuple[T, ...]`: the flag repeats
        return {**_argument(get_args(hint)[0], None), "action": "append"}
    if get_origin(hint) is Literal:
        return {"choices": get_args(hint)}
    if hint is bool:  # the flag flips the default
        return {"action": "store_false" if default else "store_true"}
    if issubclass(hint, Enum):
        return {"choices": [member.value for member in hint]}
    return {} if hint is str else {"type": hint}


def add_flags(parser: argparse.ArgumentParser, *, analyze: bool = False, skip: Collection[str] = ()) -> None:
    """Add `--config` and the flag of each field but `skip`; with `analyze`, just the flags of the fields it takes."""
    if not analyze:
        parser.add_argument("--config", type=Path, help="JSON config file; flags override its values")
    for flag, (names, f, hint) in _FLAGS.items():
        if names[0] in skip or analyze and not f.metadata.get("analyze"):
            continue
        kwargs = {"dest": names[0], "default": None, "help": f.metadata.get("help"), **_argument(hint, f.default)}
        if len(names) > 1:  # a value for each field; the flag's own name is its dest
            kwargs.update(dest=flag[2:], nargs=len(names), metavar=tuple(name.upper() for name in names))
        parser.add_argument(flag, **kwargs)


def flag_values(args: argparse.Namespace) -> dict[str, Any]:
    """The values `args` sets, by field name; a VariabilityModel field's as `model.<name>`."""
    given: dict[str, Any] = {}
    for flag, (names, _, _) in _FLAGS.items():
        value = getattr(args, names[0] if len(names) == 1 else flag[2:], None)
        if value is not None:
            given.update(zip(names, value) if len(names) > 1 else {names[0]: value})
    return given
