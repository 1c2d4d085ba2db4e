"""Command-line front end: parameter sweeps, single-point queries, and simulator runs.

Subcommands
-----------
sweep-symmetric   sweep the symmetric gain a = b; columns a, rate_with_interferer,
                  rate_wiretap
sweep-interferer  sweep the interferer power cap; columns p2_max, achievable,
                  bound_main, bound_sato, bound_z
point             achievable rate at an explicit (a, b, p1, p2)
power-opt         closed-form optimal powers and the rate they achieve
bounds            the three secrecy-capacity upper bounds, the best of them and
                  the Sato minimizer
dmc               binning achievable rate of a finite-alphabet channel file
simulate          Monte Carlo run of the binning code on a channel file
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .binning import CodebookSpec, result_record, simulate
from .bounds import (_sato, _z_bound, bound_best, bound_main_channel, bound_sato, bound_z_channel,
                     sato_minimize)
from .dmc import DmcWthi, ProductInput, achievable_rate
from .errors import (DeskScaleError, DomainError, RegimeMismatchError, _check_budget, _count,
                     _is_integral, _require_finite_nonneg)
from .gaussian import GaussianWthi, PowerAllocation, _wiretap_rate, rate_achievable, rate_wiretap
from .power import _policy_rate, optimal_power

_GAINS = ("a", "b", "p1_max", "p2_max")
_RANGE = ("start", "stop", "points", "spacing")
_RATES = ("r1s", "r1d_prime", "r1d_dprime", "r2_prime", "r2_dprime")
# Each flag's default and argparse options; config values get the same types
_FLAG_OPTIONS = {
    "a": {"type": float, "default": 0.5}, "b": {"type": float, "default": 10.0},
    "p1_max": {"type": float, "default": 10.0}, "p2_max": {"type": float, "default": 10.0},
    "p1": {"type": float, "default": None}, "p2": {"type": float, "default": None},
    "start": {"type": float, "default": 0.1}, "stop": {"type": float, "default": 50.0},
    "points": {"type": int, "default": 200},
    "spacing": {"choices": ("linear", "log"), "default": "linear"},
    "channel": {"help": "channel JSON file", "default": None},
    "out": {"help": "output path (stdout when omitted)", "default": None},
    "grid": {"type": int, "help": "input-distribution grid density", "default": 21},
    "seed": {"type": int, "default": 0}, "trials": {"type": int, "default": 200},
    "n": {"type": int, "default": 10},
    "r1s": {"type": float, "default": 0.25},
    "r1d_prime": {"type": float, "default": 0.0}, "r1d_dprime": {"type": float, "default": 0.0},
    "r2_prime": {"type": float, "default": 0.0}, "r2_dprime": {"type": float, "default": 0.0},
}


# Most points one sweep evaluates: at the cap, sweep-interferer peaks at 111 MB in 0.33 s and a
# log-spaced sweep-symmetric at 73 MB in 0.27 s of ``main`` on a Xeon core
_MAX_POINTS = 2**18


class ConfigError(ValueError):
    """Invalid configuration or command-line input."""


def load_config(mode: str, config_path: str | None, overrides: dict) -> argparse.Namespace:
    """Defaults, then config file fields read with their flags' types, then explicit flags.

    The configuration holds ``mode``, ``out`` and the fields the subcommand reads.
    """
    _, fields, defaults = _SUBCOMMANDS[mode]
    values = {"mode": mode, **{name: _FLAG_OPTIONS[name]["default"] for name in ("out", *fields)},
              **defaults}
    if config_path is not None:
        doc = _read_object(config_path, "config")
        unknown = set(doc) - {"out", *fields}
        if unknown:
            raise ConfigError(f"config fields that {mode} does not read: {sorted(unknown)}")
        values.update({name: _config_value(name, value) for name, value in doc.items()})
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = argparse.Namespace(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: argparse.Namespace) -> None:
    if "start" in cfg:
        for name in ("start", "stop"):  # each becomes a swept gain or power cap
            _require_finite_nonneg(name, getattr(cfg, name))
        if not cfg.start < cfg.stop:
            raise ConfigError(f"range start must be < stop, got [{cfg.start}, {cfg.stop}]")
        _check_budget(_count("points", cfg.points, 2), "points", _MAX_POINTS)
        if cfg.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be 'linear' or 'log', got {cfg.spacing!r}")
        if cfg.spacing == "log" and cfg.start <= 0.0:
            raise ConfigError("log spacing requires start > 0")
    if "channel" in cfg and not cfg.channel:
        raise ConfigError(f"mode {cfg.mode!r} requires a channel file")
    if "grid" in cfg:
        _count("grid", cfg.grid, 3)
    for name in (name for name in _GAINS if name in cfg):  # a sweep builds no channel per point
        _require_finite_nonneg(name, getattr(cfg, name))


def _axis(cfg: argparse.Namespace) -> np.ndarray:
    space = np.geomspace if cfg.spacing == "log" else np.linspace
    return space(cfg.start, cfg.stop, cfg.points)


def _read_object(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, or too long an int
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be a JSON object")
    return doc


def _config_value(name: str, value):
    """A config-file value read with its flag's type; null only where the default is null."""
    kind = _FLAG_OPTIONS[name].get("type", str)
    if value is None and _FLAG_OPTIONS[name]["default"] is None:
        return None
    if not (isinstance(value, str) if kind is str
            else _is_integral(value) or kind is float and isinstance(value, float)):
        raise ConfigError(f"config field {name} must be of type {kind.__name__}, "
                          f"got {json.dumps(value)}")
    return float(str(value)) if kind is float else kind(value)  # as argparse reads the flag


def write_csv(cfg: argparse.Namespace, header: list[str], rows: np.ndarray) -> str:
    """The CSV of a 2-D array, one row per line, each cell as ``%.12g``: one ``%`` formats a
    block of at most 4096 rows, so no Python list holds every row's floats at once, and a
    column whose cells share one bit pattern is formatted once, into the row template."""
    if not np.isfinite(rows).all():
        raise DomainError(f"{cfg.mode} result is not finite, so it has no CSV form")
    rows = np.asarray(rows, dtype=np.float64)
    lines = [
        f"# wthi {__version__}",
        "# units: bits per channel use",
        f"# config: {json.dumps(_json_config(cfg), sort_keys=True)}",
        ",".join(header),
    ]
    bits = rows.view(np.uint64)  # not values: 0.0 == -0.0, but they print as 0 and -0
    varying = ~(bits == bits[:1]).all(axis=0) | (len(rows) == 0)
    row = ",".join("%.12g" if vary else "%.12g" % rows[0, j] for j, vary in enumerate(varying))
    # the varying cells copied and the template built once, not per block: transient
    # buffers per block that outgrow glibc's trim threshold slow later numpy calls
    cells, full = rows[:, varying], "\n".join([row] * 4096)
    lines.extend(full[:len(block) * (len(row) + 1) - 1] % tuple(block.ravel().tolist())
                 for block in (cells[k:k + 4096] for k in range(0, len(rows), 4096)))
    return _write("\n".join(lines) + "\n", cfg.out)


def write_json(cfg: argparse.Namespace, payload: dict) -> str:
    doc = {**payload, "config": _json_config(cfg)}
    try:  # RFC 8259 JSON has no inf or nan
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{cfg.mode} result is not finite, so it has no JSON form") from exc
    return _write(text + "\n", cfg.out)


def _write(text: str, path: str | None) -> str:
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def _json_config(cfg: argparse.Namespace) -> dict:
    # The output path is not part of the computation, so it is excluded from
    # the embedded config to keep outputs byte-identical across destinations.
    return {k: v for k, v in vars(cfg).items() if k != "out"}


def run_sweep_symmetric(cfg: argparse.Namespace) -> str:
    a = _axis(cfg)
    with np.errstate(all="ignore"):  # write_csv refuses a non-finite cell
        columns = [a, _policy_rate(a, a, cfg.p1_max, cfg.p2_max), _wiretap_rate(a, cfg.p1_max, np)]
    return write_csv(cfg, ["a", "rate_with_interferer", "rate_wiretap"], np.column_stack(columns))


def run_sweep_interferer(cfg: argparse.Namespace) -> str:
    a, b, p1_max, p2_max = cfg.a, cfg.b, cfg.p1_max, _axis(cfg)
    main = bound_main_channel(GaussianWthi(a, b, p1_max, 0.0))  # the same at every p2_max
    with np.errstate(all="ignore"):  # write_csv refuses a non-finite cell
        columns = [p2_max, _policy_rate(a, b, p1_max, p2_max), np.full(p2_max.size, main),
                   _sato(a, b, p1_max, p2_max, np)[2], _z_bound(a, p1_max, p2_max, np)]
    return write_csv(cfg, ["p2_max", "achievable", "bound_main", "bound_sato", "bound_z"],
                     np.column_stack(columns))


def _split_dict(split) -> dict:
    return {**dataclasses.asdict(split), "r1": split.r1, "regime": split.regime.value}


def run_point(cfg: argparse.Namespace) -> str:
    p1 = cfg.p1 if cfg.p1 is not None else cfg.p1_max
    p2 = cfg.p2 if cfg.p2 is not None else cfg.p2_max
    ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, cfg.p2_max)
    rate, split = rate_achievable(ch, PowerAllocation(p1, p2))
    return write_json(cfg, {
        "p1": p1,
        "p2": p2,
        "rate": rate,
        "rate_wiretap": rate_wiretap(cfg.a, p1),
        "split": _split_dict(split),
    })


def run_power_opt(cfg: argparse.Namespace) -> str:
    ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, cfg.p2_max)
    alloc, inter = optimal_power(ch)
    rate, split = rate_achievable(ch, alloc)
    return write_json(cfg, {
        "p1": alloc.p1,
        "p2": alloc.p2,
        "rate": rate,
        "split": _split_dict(split),
        **dataclasses.asdict(inter),
    })


def run_bounds(cfg: argparse.Namespace) -> str:
    ch = GaussianWthi(cfg.a, cfg.b, cfg.p1_max, cfg.p2_max)
    best, kind = bound_best(ch)
    return write_json(cfg, {
        "bound_main": bound_main_channel(ch),
        "bound_sato": bound_sato(ch),
        "bound_z": bound_z_channel(ch),
        "best": best,
        "best_kind": kind.value,
        "sato": dataclasses.asdict(sato_minimize(ch, ch.full_power())),
    })


def _load_channel(cfg: argparse.Namespace) -> DmcWthi:
    try:
        return DmcWthi.from_dict(_read_object(cfg.channel, "channel"))
    except DomainError as exc:
        raise ConfigError(f"invalid channel {cfg.channel}: {exc}") from exc


def run_dmc(cfg: argparse.Namespace) -> str:
    ch = _load_channel(cfg)
    rate, inp, split = achievable_rate(ch, cfg.grid)
    return write_json(cfg, {
        "rate": rate,
        "px1": inp.px1.tolist(),
        "px2": inp.px2.tolist(),
        "split": _split_dict(split),
    })


def run_simulate(cfg: argparse.Namespace) -> str:
    ch = _load_channel(cfg)
    rates = {name: getattr(cfg, name) for name in _RATES}
    spec = CodebookSpec(n=cfg.n, r2=cfg.r2_prime + cfg.r2_dprime, **rates)
    inp = ProductInput.uniform(ch.nx1, ch.nx2)
    t0 = time.perf_counter()
    result = simulate(ch, inp, spec, cfg.seed, cfg.trials)
    print(f"runtime_ms {(time.perf_counter() - t0) * 1e3:.3f}", file=sys.stderr)
    return write_json(cfg, result_record(spec, cfg.seed, result))


# Per subcommand: its runner, the configuration fields it reads (its flags,
# and the keys its config file may set besides ``out``), and its defaults that
# differ from the flags' ones.
_SUBCOMMANDS = {
    "sweep-symmetric": (run_sweep_symmetric, ("p1_max", "p2_max", *_RANGE), {"stop": 14.0}),
    "sweep-interferer": (run_sweep_interferer, ("a", "b", "p1_max", *_RANGE), {}),
    "point": (run_point, (*_GAINS, "p1", "p2"), {}),
    "power-opt": (run_power_opt, _GAINS, {}),
    "bounds": (run_bounds, _GAINS, {}),
    "dmc": (run_dmc, ("channel", "grid"), {}),
    "simulate": (run_simulate, ("channel", "seed", "trials", "n", *_RATES), {}),
}


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wthi",
        description="Secrecy rates, power policies and capacity bounds for the "
        "wiretap channel with a helping interferer.",
    )
    parser.add_argument("--version", action="version", version=f"wthi {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, fields, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for name in ("out", *fields):  # None marks a flag not given
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           **{**_FLAG_OPTIONS[name], "default": None})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("mode", "config")}
    try:
        cfg = load_config(args.mode, args.config, overrides)
        _SUBCOMMANDS[cfg.mode][0](cfg)
    except (ConfigError, DomainError, DeskScaleError, RegimeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
