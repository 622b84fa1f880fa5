"""Command-line front end: config ingestion, single-point evaluation, sweeps,
panel reproduction, stationary limits and regime reports.

Configuration documents are flat INI sections [physical], [reduced], [run],
[output] with lower_snake_case keys.  Every frequency-like key carries an
_hz suffix and is converted to angular rad/s internally (value * 2*pi), the
same convention the usual "2 pi x 140 Hz" notation implies.  Exit status: 0
on success, 1 on configuration errors, 2 on computational errors.  Data goes
to the output stream only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .dynamics import _stationary_elements
from .errors import ConfigError, OptosteerError
from .gaussian import StsColumns, renyi2_entanglement, steering_a_to_b, steering_b_to_a
from .model import (
    ArmParams,
    PhysicalParams,
    ReducedParams,
    reduce_params,
    regime_check,
)
from .scenario import PANEL_PARAMS, evaluate_measures, figure_panels, sweep_time

MODES = ("eval", "sweep", "figure", "regime", "stationary")
FORMATS = ("csv", "json")

SAMPLE_FIELDS = ("gamma_t", "g_ab", "g_ba", "g_delta", "e2")
STATIONARY_FIELDS = ("v11", "v33", "v13", "g_ab", "g_ba", "g_delta", "e2")

_TWO_PI = 2.0 * math.pi

#: Largest accepted [run] grid_points: a sweep holds all of its columns in
#: memory at once (about 0.1 kB per point while it is evaluated).
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class ReducedBlock:
    """[reduced] section exactly as written in the document (gamma in Hz)."""

    c1: float
    c2: float
    nth1: float
    nth2: float
    r: float
    gamma_hz: float

    def to_params(self) -> ReducedParams:
        return ReducedParams(**_model_kwargs(self, _REDUCED_NAMES))


@dataclass(frozen=True)
class PhysicalBlock:
    """[physical] section exactly as written (frequencies in Hz, SI otherwise)."""

    cavity_freq1_hz: float
    cavity_freq2_hz: float
    laser_freq1_hz: float
    laser_freq2_hz: float
    length1_m: float
    length2_m: float
    kappa1_hz: float
    kappa2_hz: float
    power1_w: float
    power2_w: float
    mass1_kg: float
    mass2_kg: float
    mech_freq_hz: float
    gamma_hz: float
    r: float
    temp1_k: float | None = None
    temp2_k: float | None = None
    nth1: float | None = None
    nth2: float | None = None

    def to_params(self) -> PhysicalParams:
        arm1, arm2 = (ArmParams(**_model_kwargs(self, arm)) for arm in _ARM_NAMES)
        return PhysicalParams(arm1=arm1, arm2=arm2, squeezing=self.r)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; flags overlay individual fields."""

    mode: str | None = None
    physical: PhysicalBlock | None = None
    reduced: ReducedBlock | None = None
    grid_start: float = 0.0
    grid_stop: float = 5.0
    grid_points: int = 1001
    epsilon: float = 1e-9
    gamma_t: float | None = None
    panel: str | None = None
    out_format: str = "csv"
    out_path: str | None = None

    def __post_init__(self):
        problems = []
        if self.mode is not None and self.mode not in MODES:
            problems.append(f"[run] mode: must be one of {', '.join(MODES)}")
        if self.physical is not None and self.reduced is not None:
            problems.append("exclusive blocks: give [physical] or [reduced], not both")
        # Chained comparisons with math.inf also turn away NaN and infinities.
        if not 0.0 <= self.grid_start < math.inf:
            problems.append("[run] grid_start: must be finite and >= 0")
        if not self.grid_start < self.grid_stop < math.inf:
            problems.append("[run] grid_stop: must be finite and exceed grid_start")
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            problems.append(f"[run] grid_points: must be in [2, {MAX_GRID_POINTS}]")
        if not 0.0 < self.epsilon < math.inf:
            problems.append("[run] epsilon: must be finite and > 0")
        if self.gamma_t is not None and not 0.0 <= self.gamma_t < math.inf:
            problems.append("[run] gamma_t: must be finite and >= 0")
        if self.panel is not None and self.panel not in PANEL_PARAMS:
            problems.append(
                f"[run] panel: unknown id, choose from {', '.join(PANEL_PARAMS)}"
            )
        if self.out_format not in FORMATS:
            problems.append("[output] format: must be csv or json")
        if problems:
            raise ConfigError(problems)

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)


_BLOCKS = {"physical": PhysicalBlock, "reduced": ReducedBlock}
_CONVERTERS = {"float": float, "int": int, "str": str}
_NOT_A = {float: "not a number", int: "not an integer"}


def _table():
    """The INI schema, read once from the dataclasses above: each field of a
    block is a key of its section, each other field of RunConfig a key of
    [run] (of [output] without the prefix if it starts with "out_").  A field
    without a default is required; its type gives the converter.  Returns per
    section INI key -> (field, converter, required) in field order, the
    required keys, and the entries with their keys, integers last (the order
    in which bad values have always been reported)."""
    sections = {}
    for name, cls in (*_BLOCKS.items(), ("run", RunConfig)):
        for f in dataclasses.fields(cls):
            if f.name in _BLOCKS:
                continue
            key = f.name.removeprefix("out_")
            sections.setdefault(name if key == f.name else "output", {})[key] = (
                f.name, _CONVERTERS[f.type.partition(" ")[0]],
                f.default is dataclasses.MISSING)
    return (sections,
            {s: [k for k, e in keys.items() if e[2]] for s, keys in sections.items()},
            {s: sorted(((k, *e) for k, e in keys.items()), key=lambda e: e[2] is int)
             for s, keys in sections.items()})


_SECTIONS, _REQUIRED_KEYS, _CONVERT_ORDER = _table()


def _model_names(pairs):
    """(block field, model field, hz) of (block field, model field) pairs: a
    key ending in "_hz" is a frequency in Hz, scaled by 2*pi into rad/s."""
    return [(key, name, key.endswith("_hz")) for key, name in pairs]


#: ArmParams field of each [physical] key pattern; "{}" is the arm number.
_ARM_FIELDS = {
    "cavity_freq{}_hz": "omega_c", "laser_freq{}_hz": "omega_l",
    "length{}_m": "length", "kappa{}_hz": "kappa", "power{}_w": "power",
    "mass{}_kg": "mass", "mech_freq_hz": "omega_m", "gamma_hz": "gamma",
    "temp{}_k": "temperature", "nth{}": "n_th",
}
_ARM_NAMES = [
    _model_names((p.format(j), name) for p, name in _ARM_FIELDS.items()) for j in (1, 2)
]
_REDUCED_NAMES = _model_names((k, k.removesuffix("_hz")) for k in _SECTIONS["reduced"])


def _model_kwargs(block, names):
    """Model keyword arguments of a block, Hz values scaled into rad/s."""
    kwargs = {}
    for key, name, hz in names:
        value = getattr(block, key)
        kwargs[name] = _TWO_PI * value if hz else value
    return kwargs


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed document: {exc}"]) from exc

    problems = []
    for section in cp.sections():
        if section not in _SECTIONS:
            problems.append(f"[{section}]: unknown section")
    raw = {}
    for section, keys in _SECTIONS.items():
        if cp.has_section(section):
            raw[section] = values = dict(cp.items(section, raw=True))
            for key in values:
                if key not in keys:
                    problems.append(f"[{section}] {key}: unknown key")
            for key in _REQUIRED_KEYS[section]:
                if key not in values:
                    problems.append(f"[{section}] {key}: missing required key")
    if "physical" in raw and "reduced" in raw:
        problems.append("exclusive blocks: give [physical] or [reduced], not both")
    if problems:
        raise ConfigError(problems)

    kwargs = {}
    for section, values in raw.items():
        fields = {}
        for key, field, convert, _ in _CONVERT_ORDER[section]:
            if key in values:
                try:
                    fields[field] = convert(value := values[key])
                except ValueError:
                    problems.append(f"[{section}] {key}: {_NOT_A[convert]} ({value!r})")
        if section not in _BLOCKS:
            kwargs.update(fields)
        elif not problems:
            # Out-of-range block values are configuration errors too.
            kwargs[section] = block = _BLOCKS[section](**fields)
            try:
                block.to_params()
            except OptosteerError as exc:
                problems.append(f"[{section}] {exc}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(**kwargs)


def render_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse_config(render_config(cfg)) == cfg."""
    lines = []
    for section, keys in _SECTIONS.items():
        source = getattr(cfg, section) if section in _BLOCKS else cfg
        if source is not None:
            lines.append(f"[{section}]")
            for key, (field, _, _) in keys.items():
                value = getattr(source, field)
                if value is not None:
                    lines.append(f"{key} = {value}")
            lines.append("")
    return "\n".join(lines)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _round12(x) -> float:
    return float(_fmt(x))


def _sample_rows(sample):
    """Rows of SAMPLE_FIELDS from a MeasureSample, one per time it holds."""
    return zip(*(np.atleast_1d(getattr(sample, f)).tolist() for f in SAMPLE_FIELDS))


def _emit_table(stream, fields, rows, out_format):
    if out_format == "csv":
        stream.write(",".join(fields) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        payload = [
            {name: _round12(x) for name, x in zip(fields, row)} for row in rows
        ]
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def _emit_regime(stream, report, out_format):
    if out_format == "csv":
        stream.write("check,ratio,status\n")
        for entry in report.entries:
            stream.write(f"{entry.name},{_fmt(entry.ratio)},{entry.status}\n")
        stream.write(f"overall,,{report.overall}\n")
    else:
        payload = {
            "threshold": report.threshold,
            "warn_floor": report.warn_floor,
            "checks": [
                {"check": e.name, "ratio": _round12(e.ratio), "status": e.status}
                for e in report.entries
            ],
            "overall": report.overall,
        }
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def _reduced_from_config(cfg: RunConfig) -> ReducedParams:
    """The run's reduced inputs; a [physical] block outside its regime is refused."""
    if cfg.reduced is not None:
        return cfg.reduced.to_params()
    if cfg.physical is None:
        raise ConfigError(["a [physical] or [reduced] block is required for this mode"])
    params = cfg.physical.to_params()
    failing = [e.name for e in regime_check(params).entries if e.status == "fail"]
    if failing:
        raise ConfigError([f"[physical] outside the model's validity regime: "
                           f"{', '.join(failing)} fail (see --mode regime)"])
    return reduce_params(params)


def _dispatch(cfg: RunConfig, stream):
    mode = cfg.mode
    if mode is None:
        raise ConfigError(["[run] mode: missing (or pass --mode)"])

    if mode == "regime":
        if cfg.physical is None:
            raise ConfigError(["regime mode needs a [physical] block"])
        return _emit_regime(stream, regime_check(cfg.physical.to_params()),
                            cfg.out_format)

    if mode == "figure":
        if cfg.panel is None:
            raise ConfigError(["[run] panel: required for figure mode"])
        sample = figure_panels(cfg.panel, grid=cfg.grid(), epsilon=cfg.epsilon).measures
    else:
        rp = _reduced_from_config(cfg)
        if mode == "stationary":
            state = StsColumns(*_stationary_elements(rp))
            g_ab, g_ba = steering_a_to_b(state), steering_b_to_a(state)
            row = [state.v11, state.v33, state.v13, g_ab, g_ba,
                   abs(g_ab - g_ba), renyi2_entanglement(state)]
            return _emit_table(stream, STATIONARY_FIELDS, [row], cfg.out_format)
        if mode == "eval":
            if cfg.gamma_t is None:
                raise ConfigError(["[run] gamma_t: required for eval mode"])
            sample = evaluate_measures(rp, cfg.gamma_t, cfg.epsilon)
        else:  # sweep
            sample = sweep_time(rp, cfg.grid(), cfg.epsilon).measures
    _emit_table(stream, SAMPLE_FIELDS, _sample_rows(sample), cfg.out_format)


def _write_file(path: str, text: str):
    """Write a finished output to path.  A regular file, or a new one, is
    replaced as a whole (a temporary file in the same directory, renamed
    over it, with the old file's permissions), so a failed write leaves the
    old file as it was; anything else, such as a pipe or a device, is
    written in place."""
    path = os.path.realpath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:  # a new file: the mode open() would give it
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st.st_mode):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            return
        mode = stat.S_IMODE(st.st_mode)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".optosteer-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Execute a validated configuration; returns the process exit status.

    With ``out_path`` the whole output is computed before the file is
    touched, so a run that fails leaves an existing file unchanged; an
    output that cannot be written is a configuration error.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if cfg.out_path is not None:
            buffer = io.StringIO()
            _dispatch(cfg, buffer)
            try:
                _write_file(cfg.out_path, buffer.getvalue())
            except BrokenPipeError:
                raise
            except OSError as exc:
                raise ConfigError([f"cannot write output {cfg.out_path!r}: "
                                   f"{exc.strerror or exc}"]) from exc
        else:
            _dispatch(cfg, out)
        return 0
    except BrokenPipeError:  # downstream consumer closed the pipe; not an error
        return 0
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=err)
        return 1
    except OptosteerError as exc:
        print(f"error: {exc}", file=err)
        return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep the documented exit-code contract
        raise ConfigError([f"arguments: {message}"])


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="optosteer",
        description="Dynamical Gaussian steering and Renyi-2 entanglement of "
        "two mechanical modes driven by two-mode squeezed light.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="path to an INI config document")
    parser.add_argument("--mode", choices=MODES, help="what to compute")
    parser.add_argument("--panel", help="built-in panel id for figure mode")
    parser.add_argument("--format", choices=FORMATS, dest="out_format",
                        help="output format (default csv)")
    parser.add_argument("--out", dest="out_path", help="write data to this file")
    parser.add_argument("--epsilon", type=float,
                        help="steering positivity tolerance")
    return parser


def main(argv=None) -> int:
    try:
        # The flags given, by dest: each but "config" is a RunConfig field.
        overrides = vars(_build_parser().parse_args(argv))
        path = overrides.pop("config", None)
        if path is None:
            cfg = RunConfig(**overrides)
        else:
            try:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError([f"cannot read config: {exc}"]) from exc
            cfg = dataclasses.replace(parse_config(text), **overrides)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
