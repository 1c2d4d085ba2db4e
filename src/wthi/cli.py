"""Command-line front end: parameter sweeps, single-point queries, and simulator runs.

Subcommands
-----------
sweep-symmetric   sweep the symmetric gain a = b; columns a, rate_with_interferer,
                  rate_wiretap
sweep-interferer  sweep the interferer power cap; columns p2_max, achievable,
                  bound_main, bound_sato, bound_z
point             achievable rate at an explicit (a, b, p1, p2)
power-opt         closed-form optimal powers and the rate they achieve
bounds            the three secrecy-capacity upper bounds and the best of them
dmc               binning achievable rate of a finite-alphabet channel file
simulate          Monte Carlo run of the binning code on a channel file

Configuration precedence: built-in defaults, then the ``--config`` JSON file,
which may set only the fields of its subcommand's flags and ``out``, then
explicit command-line flags.  Sweep outputs are CSV with ``#`` comment
lines carrying the tool version, units and the full resolved configuration;
single-point outputs are JSON that echoes the inputs.  Floats in CSV are
printed with 12 significant digits, so outputs are byte-reproducible for a
fixed configuration and version.

Exit codes: 0 success, 2 validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .binning import CodebookSpec, result_record, simulate
from .bounds import bound_best, bound_main_channel, bound_sato, bound_z_channel, sato_minimize
from .dmc import DmcWthi, ProductInput, achievable_rate
from .errors import DeskScaleError, DomainError, RegimeMismatchError
from .gaussian import GaussianWthi, PowerAllocation, rate_achievable, rate_wiretap
from .power import optimal_power

_GAINS = ("a", "b", "p1_max", "p2_max")
_RANGE = ("start", "stop", "points", "spacing")
# The ``SweepConfig`` fields each subcommand reads: its flags, and the keys its
# config file may set besides ``out``.
_FIELDS = {
    "sweep-symmetric": ("p1_max", "p2_max", *_RANGE),
    "sweep-interferer": ("a", "b", "p1_max", *_RANGE),
    "point": (*_GAINS, "p1", "p2"),
    "power-opt": _GAINS,
    "bounds": _GAINS,
    "dmc": ("channel", "grid"),
    "simulate": ("channel", "seed", "trials", "n", "r1s",
                 "r1d_prime", "r1d_dprime", "r2_prime", "r2_dprime"),
}
_MODES = tuple(_FIELDS)
# argparse options of the flags that do not take a float
_FLAG_OPTIONS = {
    "points": {"type": int},
    "spacing": {"choices": ("linear", "log")},
    "channel": {"help": "channel JSON file"},
    "grid": {"type": int, "help": "input-distribution grid density"},
    "seed": {"type": int},
    "trials": {"type": int},
    "n": {"type": int},
}


class ConfigError(ValueError):
    """Invalid configuration or command-line input."""


@dataclass
class SweepConfig:
    mode: str
    a: float = 0.5
    b: float = 10.0
    p1_max: float = 10.0
    p2_max: float = 10.0
    p1: float | None = None
    p2: float | None = None
    start: float = 0.1
    stop: float = 50.0
    points: int = 200
    spacing: str = "linear"
    out: str | None = None
    grid: int = 21
    seed: int = 0
    trials: int = 200
    channel: str | None = None
    n: int = 10
    r1s: float = 0.25
    r1d_prime: float = 0.0
    r1d_dprime: float = 0.0
    r2_prime: float = 0.0
    r2_dprime: float = 0.0

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode.startswith("sweep"):
            if not self.start < self.stop:
                raise ConfigError(f"range start must be < stop, got [{self.start}, {self.stop}]")
            if self.points < 2:
                raise ConfigError(f"points must be >= 2, got {self.points}")
            if self.spacing not in ("linear", "log"):
                raise ConfigError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
            if self.spacing == "log" and self.start <= 0.0:
                raise ConfigError("log spacing requires start > 0")
        if self.mode in ("dmc", "simulate"):
            if not self.channel:
                raise ConfigError(f"mode {self.mode!r} requires a channel file")
            if not Path(self.channel).exists():
                raise ConfigError(f"channel file does not exist: {self.channel}")

    def axis(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


# Defaults that differ from the ``SweepConfig`` ones
_DEFAULTS_BY_MODE = {"sweep-symmetric": {"stop": 14.0}}


def load_config(mode: str, config_path: str | None, overrides: dict) -> SweepConfig:
    """Defaults, then config file fields, then explicit flags."""
    values: dict = {"mode": mode}
    values.update(_DEFAULTS_BY_MODE.get(mode, {}))
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - {"out", *_FIELDS.get(mode, ())}
        if unknown:
            raise ConfigError(f"config fields that {mode} does not read: {sorted(unknown)}")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = SweepConfig(**values)
    cfg.validate()
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(path: str | None, cfg: SweepConfig, header: list[str],
              rows: list[list[float]]) -> str:
    lines = [
        f"# wthi {__version__}",
        "# units: bits per channel use",
        f"# config: {json.dumps(_json_config(cfg), sort_keys=True)}",
        ",".join(header),
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return _write("\n".join(lines) + "\n", path)


def write_json(path: str | None, payload: dict) -> str:
    return _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _write(text: str, path: str | None) -> str:
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def _json_config(cfg: SweepConfig) -> dict:
    # The output path is not part of the computation, so it is excluded from
    # the embedded config to keep outputs byte-identical across destinations.
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out"}


def run_sweep_symmetric(cfg: SweepConfig) -> str:
    rows = []
    for a in cfg.axis():
        ch = GaussianWthi(float(a), float(a), cfg.p1_max, cfg.p2_max)
        alloc, _ = optimal_power(ch)
        rate, _ = rate_achievable(ch, alloc)
        rows.append([float(a), rate, rate_wiretap(float(a), cfg.p1_max)])
    return write_csv(cfg.out, cfg, ["a", "rate_with_interferer", "rate_wiretap"], rows)


def run_sweep_interferer(cfg: SweepConfig) -> str:
    rows = []
    for p2m in cfg.axis():
        ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, float(p2m))
        alloc, _ = optimal_power(ch)
        rate, _ = rate_achievable(ch, alloc)
        rows.append([
            float(p2m),
            rate,
            bound_main_channel(ch),
            bound_sato(ch),
            bound_z_channel(ch),
        ])
    header = ["p2_max", "achievable", "bound_main", "bound_sato", "bound_z"]
    return write_csv(cfg.out, cfg, header, rows)


def _split_dict(split) -> dict:
    return {**dataclasses.asdict(split), "r1": split.r1, "regime": split.regime.value}


def run_point(cfg: SweepConfig) -> str:
    p1 = cfg.p1 if cfg.p1 is not None else cfg.p1_max
    p2 = cfg.p2 if cfg.p2 is not None else cfg.p2_max
    ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, cfg.p2_max)
    rate, split = rate_achievable(ch, PowerAllocation(p1, p2))
    return write_json(cfg.out, {
        "config": _json_config(cfg),
        "p1": p1,
        "p2": p2,
        "rate": rate,
        "rate_wiretap": rate_wiretap(cfg.a, p1),
        "split": _split_dict(split),
    })


def run_power_opt(cfg: SweepConfig) -> str:
    ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, cfg.p2_max)
    alloc, inter = optimal_power(ch)
    rate, split = rate_achievable(ch, alloc)
    return write_json(cfg.out, {
        "config": _json_config(cfg),
        "p1": alloc.p1,
        "p2": alloc.p2,
        "rate": rate,
        "split": _split_dict(split),
        "p1_star": inter.p1_star,
        "p2_star": inter.p2_star,
        "delta": inter.delta,
    })


def run_bounds(cfg: SweepConfig) -> str:
    ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, cfg.p2_max)
    best, kind = bound_best(ch)
    ev = sato_minimize(ch, ch.full_power())
    return write_json(cfg.out, {
        "config": _json_config(cfg),
        "bound_main": bound_main_channel(ch),
        "bound_sato": bound_sato(ch),
        "bound_z": bound_z_channel(ch),
        "best": best,
        "best_kind": kind.value,
        "sato": {
            "rho_star": ev.rho_star,
            "discriminant": ev.discriminant,
            "value": ev.value,
            "degenerate": ev.degenerate,
        },
    })


def _load_channel(cfg: SweepConfig) -> DmcWthi:
    try:
        return DmcWthi.from_json(cfg.channel)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load channel {cfg.channel}: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"invalid channel {cfg.channel}: {exc}") from exc


def run_dmc(cfg: SweepConfig) -> str:
    ch = _load_channel(cfg)
    rate, inp, split = achievable_rate(ch, cfg.grid)
    return write_json(cfg.out, {
        "config": _json_config(cfg),
        "rate": rate,
        "px1": inp.px1.tolist(),
        "px2": inp.px2.tolist(),
        "split": _split_dict(split),
    })


def run_simulate(cfg: SweepConfig) -> str:
    ch = _load_channel(cfg)
    r2 = cfg.r2_prime + cfg.r2_dprime
    try:
        spec = CodebookSpec(
            n=cfg.n,
            r1s=cfg.r1s,
            r1d_prime=cfg.r1d_prime,
            r1d_dprime=cfg.r1d_dprime,
            r2=r2,
            r2_prime=cfg.r2_prime,
            r2_dprime=cfg.r2_dprime,
        )
    except (DomainError, DeskScaleError) as exc:
        raise ConfigError(str(exc)) from exc
    inp = ProductInput.uniform(ch.nx1, ch.nx2)
    t0 = time.perf_counter()
    result = simulate(ch, inp, spec, cfg.seed, cfg.trials)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    record = result_record(spec, cfg.seed, cfg.trials, result, runtime_ms)
    record["config"] = _json_config(cfg)
    return write_json(cfg.out, record)


_RUNNERS = {
    "sweep-symmetric": run_sweep_symmetric,
    "sweep-interferer": run_sweep_interferer,
    "point": run_point,
    "power-opt": run_power_opt,
    "bounds": run_bounds,
    "dmc": run_dmc,
    "simulate": run_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wthi",
        description="Secrecy rates, power policies and capacity bounds for the "
        "wiretap channel with a helping interferer.",
    )
    parser.add_argument("--version", action="version", version=f"wthi {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", help="output path (stdout when omitted)")
        for name in _FIELDS[mode]:
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           **_FLAG_OPTIONS.get(name, {"type": float}))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("mode", "config")}
    try:
        cfg = load_config(args.mode, args.config, overrides)
        _RUNNERS[cfg.mode](cfg)
    except (ConfigError, DomainError, DeskScaleError, RegimeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
