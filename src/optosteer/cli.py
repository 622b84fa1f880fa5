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
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import stationary_covariance
from .errors import ConfigError, OptosteerError
from .gaussian import renyi2_entanglement, steering_a_to_b, steering_b_to_a
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
        return ReducedParams(
            c1=self.c1, c2=self.c2, nth1=self.nth1, nth2=self.nth2,
            r=self.r, gamma=_TWO_PI * self.gamma_hz,
        )


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
        def arm(j):
            sfx = str(j)
            return ArmParams(
                omega_c=_TWO_PI * getattr(self, f"cavity_freq{sfx}_hz"),
                omega_l=_TWO_PI * getattr(self, f"laser_freq{sfx}_hz"),
                length=getattr(self, f"length{sfx}_m"),
                kappa=_TWO_PI * getattr(self, f"kappa{sfx}_hz"),
                power=getattr(self, f"power{sfx}_w"),
                mass=getattr(self, f"mass{sfx}_kg"),
                omega_m=_TWO_PI * self.mech_freq_hz,
                gamma=_TWO_PI * self.gamma_hz,
                temperature=getattr(self, f"temp{sfx}_k"),
                n_th=getattr(self, f"nth{sfx}"),
            )

        return PhysicalParams(arm1=arm(1), arm2=arm(2), squeezing=self.r)


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


_REQUIRED = {
    "reduced": ("c1", "c2", "nth1", "nth2", "r", "gamma_hz"),
    "physical": (
        "cavity_freq1_hz", "cavity_freq2_hz", "laser_freq1_hz", "laser_freq2_hz",
        "length1_m", "length2_m", "kappa1_hz", "kappa2_hz",
        "power1_w", "power2_w", "mass1_kg", "mass2_kg",
        "mech_freq_hz", "gamma_hz", "r",
    ),
}
_OPTIONAL = {
    "reduced": (),
    "physical": ("temp1_k", "temp2_k", "nth1", "nth2"),
    "run": ("mode", "grid_start", "grid_stop", "grid_points",
            "epsilon", "gamma_t", "panel"),
    "output": ("format", "path"),
}


def _read_section(cp, section, problems):
    """Pull a section into a dict, flagging unknown keys; strict on typos."""
    known = set(_REQUIRED.get(section, ())) | set(_OPTIONAL[section])
    values = {}
    for key, raw in cp.items(section):
        if key not in known:
            problems.append(f"[{section}] {key}: unknown key")
            continue
        values[key] = raw
    for key in _REQUIRED.get(section, ()):
        if key not in values:
            problems.append(f"[{section}] {key}: missing required key")
    return values


def _parse_float(values, section, key, problems):
    raw = values.get(key)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        problems.append(f"[{section}] {key}: not a number ({raw!r})")
        return None


def _parse_int(values, section, key, problems):
    raw = values.get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        problems.append(f"[{section}] {key}: not an integer ({raw!r})")
        return None


def _check_block(block, section, problems):
    """Out-of-range block values are configuration errors, not runtime ones."""
    try:
        block.to_params()
    except OptosteerError as exc:
        problems.append(f"[{section}] {exc}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed document: {exc}"]) from exc

    problems = []
    for section in cp.sections():
        if section not in ("physical", "reduced", "run", "output"):
            problems.append(f"[{section}]: unknown section")

    blocks = {}
    for section in ("physical", "reduced"):
        if cp.has_section(section):
            blocks[section] = _read_section(cp, section, problems)
    run_values = _read_section(cp, "run", problems) if cp.has_section("run") else {}
    out_values = (
        _read_section(cp, "output", problems) if cp.has_section("output") else {}
    )
    if "physical" in blocks and "reduced" in blocks:
        problems.append("exclusive blocks: give [physical] or [reduced], not both")
    if problems:
        raise ConfigError(problems)

    reduced = physical = None
    if "reduced" in blocks:
        vals = blocks["reduced"]
        numbers = {
            k: _parse_float(vals, "reduced", k, problems) for k in _REQUIRED["reduced"]
        }
        if not problems:
            reduced = ReducedBlock(**numbers)
            _check_block(reduced, "reduced", problems)
    if "physical" in blocks:
        vals = blocks["physical"]
        numbers = {
            k: _parse_float(vals, "physical", k, problems)
            for k in _REQUIRED["physical"]
        }
        for k in _OPTIONAL["physical"]:
            if k in vals:
                numbers[k] = _parse_float(vals, "physical", k, problems)
        if not problems:
            physical = PhysicalBlock(**numbers)
            _check_block(physical, "physical", problems)

    kwargs = {}
    if "mode" in run_values:
        kwargs["mode"] = run_values["mode"]
    if "panel" in run_values:
        kwargs["panel"] = run_values["panel"]
    for key in ("grid_start", "grid_stop", "epsilon", "gamma_t"):
        value = _parse_float(run_values, "run", key, problems)
        if value is not None:
            kwargs[key] = value
    points = _parse_int(run_values, "run", "grid_points", problems)
    if points is not None:
        kwargs["grid_points"] = points
    if "format" in out_values:
        kwargs["out_format"] = out_values["format"]
    if "path" in out_values:
        kwargs["out_path"] = out_values["path"]
    if problems:
        raise ConfigError(problems)

    try:
        return RunConfig(physical=physical, reduced=reduced, **kwargs)
    except OptosteerError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError([str(exc)]) from exc


def render_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse_config(render_config(cfg)) == cfg."""
    lines = []
    if cfg.reduced is not None:
        lines.append("[reduced]")
        for field in dataclasses.fields(ReducedBlock):
            lines.append(f"{field.name} = {getattr(cfg.reduced, field.name)!r}")
        lines.append("")
    if cfg.physical is not None:
        lines.append("[physical]")
        for field in dataclasses.fields(PhysicalBlock):
            value = getattr(cfg.physical, field.name)
            if value is not None:
                lines.append(f"{field.name} = {value!r}")
        lines.append("")
    lines.append("[run]")
    if cfg.mode is not None:
        lines.append(f"mode = {cfg.mode}")
    lines.append(f"grid_start = {cfg.grid_start!r}")
    lines.append(f"grid_stop = {cfg.grid_stop!r}")
    lines.append(f"grid_points = {cfg.grid_points}")
    lines.append(f"epsilon = {cfg.epsilon!r}")
    if cfg.gamma_t is not None:
        lines.append(f"gamma_t = {cfg.gamma_t!r}")
    if cfg.panel is not None:
        lines.append(f"panel = {cfg.panel}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"format = {cfg.out_format}")
    if cfg.out_path is not None:
        lines.append(f"path = {cfg.out_path}")
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
    if cfg.reduced is not None:
        return cfg.reduced.to_params()
    if cfg.physical is not None:
        return reduce_params(cfg.physical.to_params())
    raise ConfigError(["a [physical] or [reduced] block is required for this mode"])


def _dispatch(cfg: RunConfig, stream):
    mode = cfg.mode
    if mode is None:
        raise ConfigError(["[run] mode: missing (or pass --mode)"])

    if mode == "figure":
        if cfg.panel is None:
            raise ConfigError(["[run] panel: required for figure mode"])
        sweep = figure_panels(cfg.panel, grid=cfg.grid(), epsilon=cfg.epsilon)
        _emit_table(stream, SAMPLE_FIELDS, _sample_rows(sweep.measures), cfg.out_format)
        return

    if mode == "regime":
        if cfg.physical is None:
            raise ConfigError(["regime mode needs a [physical] block"])
        _emit_regime(stream, regime_check(cfg.physical.to_params()), cfg.out_format)
        return

    rp = _reduced_from_config(cfg)
    if mode == "eval":
        if cfg.gamma_t is None:
            raise ConfigError(["[run] gamma_t: required for eval mode"])
        sample = evaluate_measures(rp, cfg.gamma_t, cfg.epsilon)
        _emit_table(stream, SAMPLE_FIELDS, _sample_rows(sample), cfg.out_format)
    elif mode == "sweep":
        sweep = sweep_time(rp, cfg.grid(), cfg.epsilon)
        _emit_table(stream, SAMPLE_FIELDS, _sample_rows(sweep.measures), cfg.out_format)
    elif mode == "stationary":
        cm = stationary_covariance(rp)
        g_ab, g_ba = steering_a_to_b(cm), steering_b_to_a(cm)
        row = [cm.v11, cm.v33, cm.v13, g_ab, g_ba,
               abs(g_ab - g_ba), renyi2_entanglement(cm)]
        _emit_table(stream, STATIONARY_FIELDS, [row], cfg.out_format)
    else:  # pragma: no cover - RunConfig already validated the mode
        raise ConfigError([f"unsupported mode {mode!r}"])


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Execute a validated configuration; returns the process exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if cfg.out_path is not None:
            with open(cfg.out_path, "w", encoding="utf-8", newline="") as handle:
                _dispatch(cfg, handle)
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
        args = _build_parser().parse_args(argv)
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError([f"cannot read config: {exc}"]) from exc
            cfg = parse_config(text)
        else:
            cfg = RunConfig()
        overrides = {
            key: value
            for key, value in (
                ("mode", args.mode),
                ("panel", args.panel),
                ("out_format", args.out_format),
                ("out_path", args.out_path),
                ("epsilon", args.epsilon),
            )
            if value is not None
        }
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
