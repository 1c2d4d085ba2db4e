"""The three benchmark workloads, their metrics and the wthi calls they trace.

A workload is a list of tasks.  A task is one timed call group: its ``run``
issues the library calls and returns one result per operation, catching an
operation's exception as its result so that the others go on.  Every round
runs every task once, so each run attempts whole rounds of the same
operations.  Inputs come from the workload seed only; the library receives
the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from wthi import binning, bounds, cli, dmc, gaussian, power
from wthi.dmc import DmcWthi, ProductInput
from wthi.gaussian import GaussianWthi

# name, unit, better; the names and units are those of BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("bulk_per_s", "1/s", "higher"),
    ("heavy_per_s", "1/s", "higher"),
    ("side_per_s", "1/s", "higher"),
]

PER_LAYER = [
    ("gaussian.rate_achievable.us", "us/call", "lower"),
    ("power.optimal_power.us", "us/call", "lower"),
    ("power.menu_calls", "count", "lower"),
    ("bounds.bound_sato.us", "us/call", "lower"),
    ("bounds.bound_z_channel.us", "us/call", "lower"),
    ("bounds.bound_main_channel.us", "us/call", "lower"),
    ("bounds.bound_best.us", "us/call", "lower"),
    ("power.grid_oracle_detailed.ms", "ms/call", "lower"),
    ("cli.sweep_symmetric.ms", "ms/call", "lower"),
    ("cli.sweep_interferer.ms", "ms/call", "lower"),
    ("cli.write_csv.ms", "ms/call", "lower"),
    ("cli.self_ms", "ms/call", "lower"),
    ("dmc.mi_profile.us.2x2", "us/call", "lower"),
    ("dmc.mi_profile.us.3x3", "us/call", "lower"),
    ("dmc.mi_profile.us.4x4", "us/call", "lower"),
    ("dmc.mi_profile.calls", "count", "lower"),
    ("dmc.laws", "count", "higher"),
    ("dmc.achievable_rate_fixed_input.us", "us/call", "lower"),
    ("dmc.achievable_rate.self_s", "s", "lower"),
    ("dmc.regime.s", "s", "lower"),
    ("dmc.dmc_sato_bound.s", "s", "lower"),
    ("dmc.sato.objective_evals", "count", "lower"),
    ("binning.build_codebooks.ms", "ms/call", "lower"),
    ("binning.ms_per_trial.n6", "ms", "lower"),
    ("binning.ms_per_trial.n10", "ms", "lower"),
    ("binning.ms_per_trial.n14", "ms", "lower"),
    ("binning.pairs_scored", "count", "higher"),
    ("binning.pairs_per_s.n14", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# What each throughput slot counts, per workload (also in README.md).
SHAPES = {
    "gauss-fleet": {
        "bulk_per_s": "fleet channels through optimal_power, rate_achievable, bound_best",
        "heavy_per_s": "grid_oracle_detailed(200, 200) certifications",
        "side_per_s": "CSV rows written by in-process sweeps",
    },
    "dmc-search": {
        "bulk_per_s": "input-law pairs searched by the four achievable_rate calls",
        "heavy_per_s": "dmc_sato_bound(degraded, 6, 13) calls",
        "side_per_s": "input-law pairs walked by the weak, strong, very-strong calls",
    },
    "sim-codes": {
        "bulk_per_s": "short-block trials (n = 6, 10)",
        "heavy_per_s": "long-block trials (n = 14)",
        "side_per_s": "exact-extreme trials (n = 12)",
    },
}


def _mi_profile_name(ch, inp):
    return f"dmc.mi_profile.{ch.nx1}x{ch.nx2}"


def _simulate_name(ch, inp, spec, seed, trials):
    return f"binning.simulate_detailed.n{spec.n}"


# Module attributes wrapped in a traced round: (module, attribute, span namer).
# Calls between public functions go through these module globals, so the
# wrappers see them; private helpers are not wrapped.
TRACED = [
    ("wthi.gaussian", "rate_achievable", None),
    ("wthi.power", "rate_achievable", None),
    ("wthi.power", "optimal_power", None),
    ("wthi.power", "grid_oracle_detailed", None),
    *[("wthi.bounds", f, None)
      for f in ("bound_best", "bound_sato", "bound_z_channel", "bound_main_channel")],
    *[("wthi.cli", f, None)
      for f in ("optimal_power", "rate_achievable", "rate_wiretap", "bound_best",
                "bound_main_channel", "bound_sato", "bound_z_channel", "sato_minimize",
                "achievable_rate", "simulate", "result_record", "write_csv")],
    ("wthi.dmc", "mi_profile", _mi_profile_name),
    *[("wthi.dmc", f, None)
      for f in ("achievable_rate_fixed_input", "achievable_rate", "weak_regime_rate",
                "strong_regime_rate", "very_strong_eavesdropping", "dmc_sato_bound")],
    ("wthi.binning", "build_codebooks", None),
    ("wthi.binning", "simulate_detailed", _simulate_name),
]


@dataclass
class Task:
    name: str                                   # report and check group
    run: Callable[[], list]                     # one result per operation
    check: Callable[[int, Any], dict[str, bool]]
    shape: str | None = None                    # throughput slot its time counts toward
    work: float = 0.0                           # work units per run, from the inputs
    known_fault: bool = False                   # fails until a named program fault is mended


def _each(fn, argss) -> list:
    """``fn(*args)`` for each argument tuple; an exception becomes that result."""
    out = []
    for args in argss:
        try:
            out.append(fn(*args))
        except Exception as exc:  # counted as this operation's failure
            out.append(exc)
    return out


def _single(name: str, fn, args: tuple, check: Callable[[Any], dict[str, bool]],
            shape: str | None = None, work: float = 0.0) -> Task:
    """A task of the one operation ``fn(*args)``."""
    return Task(name, lambda: _each(fn, [args]), lambda i, res: check(res), shape, work)


@dataclass
class Workload:
    tasks: list[Task]
    warm_up: Callable[[], Any]
    counts: dict[str, float] = field(default_factory=dict)   # per round, from the inputs
    trials_by_n: dict[int, int] = field(default_factory=dict)
    pairs_by_n: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# gauss-fleet
# ---------------------------------------------------------------------------

# The closed-domain slice is drawn from a fixed stream, so the operations that
# hit the Sato fault (bounds.sato_minimize: cancellation in rho_star, the value
# 0 at s = 0, the division by rho_star = 0) are the same in every run.
SLICE_SEED = 7
# A point of that stream where the cancellation gives rho_star = 0 exactly.
ZERO_DIVISION_POINT = (1.7271181809105776e-12, 7.336561898096473e-12,
                       514.6325513362392, 723.8177627688348)


def _policy(ch: GaussianWthi):
    alloc, _ = power.optimal_power(ch)
    rate, _ = gaussian.rate_achievable(ch, alloc)
    best, _ = bounds.bound_best(ch)
    return alloc, rate, best


def _check_policy(ch: GaussianWthi, res) -> dict[str, bool]:
    alloc, rate, best = res
    three = (bounds.bound_main_channel(ch), bounds.bound_sato(ch), bounds.bound_z_channel(ch))
    out = checks.check_policy(ch, alloc, rate, three, best)
    if ch.p2_max == 0.0:
        out["p2_zero_is_wiretap"] = rate == gaussian.rate_wiretap(ch.a, ch.p1_max)
    if ch.a == ch.b == 1.0:
        out["unit_gains_zero"] = rate == 0.0
    return out


def gauss_fleet(seed: int, smoke: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    n_fleet, n_slice, n_oracle, points = (40, 60, 2, 40) if smoke else (2000, 400, 100, 5000)

    def draw(p2=None):
        a, b = rng.uniform(0.05, 5.0, 2)
        p1, p2_ = rng.uniform(0.0, 50.0, 2)
        return GaussianWthi(a, b, p1, p2_ if p2 is None else p2)

    fleet = [draw() for _ in range(n_fleet)]
    corners = [GaussianWthi(0.5, 2.0, 10.0, 0.0), GaussianWthi(1.0, 1.0, 10.0, 10.0)]
    corners += [draw(p2=0.0) for _ in range(8)]
    wide = np.random.default_rng(SLICE_SEED)
    closed = []
    for _ in range(n_slice):
        a, b = 10.0 ** wide.uniform(-12.0, 1.0, 2)
        p1, p2 = 10.0 ** wide.uniform(-3.0, 3.0, 2)
        closed.append(GaussianWthi(a, b, p1, p2))
    closed.append(GaussianWthi(*ZERO_DIVISION_POINT))

    p1_max = float(rng.uniform(5.0, 20.0))
    # (arguments, axis start, axis stop): the symmetric sweep and the README geometries
    geometries = [(["sweep-symmetric"], 0.1, 14.0),
                  (["sweep-interferer", "--a", "0.5", "--b", "10"], 0.1, 50.0),
                  (["sweep-interferer", "--a", "2", "--b", "0.1"], 0.1, 50.0)]

    def argv(k: int, suffix: str) -> list[str]:
        head, start, stop = geometries[k]
        return head + ["--p1-max", repr(p1_max), "--start", repr(start), "--stop", repr(stop),
                       "--points", str(points), "--out", str(scratch / f"sweep{k}{suffix}.csv")]

    def sweep(k: int):
        rc = cli.main(argv(k, ""))
        return rc, (scratch / f"sweep{k}.csv").read_text(encoding="utf-8")

    def check_sweep(k: int, res) -> dict[str, bool]:
        rc, text = res
        if rc != 0:
            return {"exit_code_zero": False}
        cli.main(argv(k, "-again"))
        again = (scratch / f"sweep{k}-again.csv").read_text(encoding="utf-8")
        _, start, stop = geometries[k]
        return checks.check_sweep_csv(text, again, np.linspace(start, stop, points), p1_max)

    def check_oracle(ch: GaussianWthi, res) -> dict[str, bool]:
        _, rate, _ = _policy(ch)
        return checks.check_oracle(ch, rate, res)

    def oracle_task(chans) -> Task:
        argss = [(ch,) for ch in chans]
        return Task("gauss.oracle",
                    lambda: _each(lambda ch: power.grid_oracle_detailed(ch, 200, 200), argss),
                    lambda i, res: check_oracle(chans[i], res), "heavy_per_s", len(chans))

    def policy_task(name, chans, **kw) -> Task:
        argss = [(ch,) for ch in chans]
        return Task(name, lambda: _each(_policy, argss),
                    lambda i, res: _check_policy(chans[i], res), **kw)

    tasks = [
        policy_task("gauss.fleet", fleet, shape="bulk_per_s", work=len(fleet)),
        policy_task("gauss.corners", corners),
        policy_task("gauss.corner_zero_gains", [GaussianWthi(0.0, 0.0, 10.0, 10.0)],
                    known_fault=True),
        policy_task("gauss.closed_domain_slice", closed, known_fault=True),
    ]
    # tasks of ten calls, so that each task is timed in many short rounds
    tasks += [oracle_task(fleet[lo:lo + 10]) for lo in range(0, n_oracle, 10)]
    for k, name in enumerate(["cli.sweep_symmetric", "cli.sweep_interferer", "cli.sweep_interferer"]):
        tasks.append(_single(name, sweep, (k,), lambda res, k=k: check_sweep(k, res),
                             "side_per_s", points))
    return Workload(tasks, warm_up=lambda: _policy(fleet[0]))


# ---------------------------------------------------------------------------
# dmc-search
# ---------------------------------------------------------------------------


def _bsc(eps: float) -> np.ndarray:
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


def xor_channel(e1: float, e2: float, ee: float) -> DmcWthi:
    """y1 = (BSC(e1)(x1), BSC(e2)(x2)) as a 4-ary pair; y2 = BSC(ee)(x1 xor x2)."""
    t = np.zeros((2, 2, 4, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2] = np.outer(np.outer(_bsc(e1)[x1], _bsc(e2)[x2]).ravel(), _bsc(ee)[x1 ^ x2])
    return DmcWthi(2, 2, 4, 2, t)


def trend_channel() -> DmcWthi:
    return xor_channel(0.035, 0.01, 0.12)


def degraded_channel() -> DmcWthi:
    """y1 = BSC(0.05 if x2 == 0 else 0.25)(x1); y2 = BSC(0.1)(y1)."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            w = _bsc(0.05 if x2 == 0 else 0.25)[x1]
            for y1 in range(2):
                t[x1, x2, y1] = w[y1] * _bsc(0.1)[y1]
    return DmcWthi(2, 2, 2, 2, t)


def weak_channel() -> DmcWthi:
    """y1 = BSC(0.1)(x1 xor x2); y2 = (BSC(0.02)(x2), BSC(0.3)(x1)) as a 4-ary pair."""
    t = np.zeros((2, 2, 2, 4))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2] = np.outer(_bsc(0.1)[x1 ^ x2], np.outer(_bsc(0.02)[x2], _bsc(0.3)[x1]).ravel())
    return DmcWthi(2, 2, 2, 4, t)


def _separate(py1: Callable[[int, int], np.ndarray], py2: Callable[[int, int], np.ndarray]) -> DmcWthi:
    """Binary channel whose outputs are independent given the inputs."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2] = np.outer(py1(x1, x2), py2(x1, x2))
    return DmcWthi(2, 2, 2, 2, t)


def very_strong_channel() -> DmcWthi:
    """y1 = BSC(0.3)(x1); y2 = x1."""
    return _separate(lambda x1, x2: _bsc(0.3)[x1], lambda x1, x2: np.eye(2)[x1])


def random_channel(n: int, rng: np.random.Generator) -> DmcWthi:
    t = rng.random((n, n, n, n))
    return DmcWthi(n, n, n, n, t / t.sum(axis=(2, 3), keepdims=True))


def simplex_size(dim: int, grid: int) -> int:
    return math.comb(grid - 1 + dim - 1, dim - 1)


def laws(ch: DmcWthi, grid: int) -> int:
    return simplex_size(ch.nx1, grid) * simplex_size(ch.nx2, grid)


def dmc_search(seed: int, smoke: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    degraded = degraded_channel()
    # grids: 2x2 searches, 3x3 search, 4x4 search, weak and strong regimes, very strong,
    # Sato couplings, Sato inputs.  Each call takes under half a second, so a
    # 35-second run times 14-18 rounds; with calls of 1.5-4 s (3x3 at
    # grid 11, 4x4 at grid 6, Sato at 9 and 21) it timed five, too few for a
    # steady median on a shared host.
    g = (5, 4, 3, 5, 5, 3, 5) if smoke else (21, 7, 5, 13, 21, 6, 13)
    searches = [(trend_channel(), g[0]), (degraded, g[0]),
                (random_channel(3, rng), g[1]), (random_channel(4, rng), g[2])]
    regimes = [("weak_regime_rate", weak_channel(), g[3]),
               ("strong_regime_rate", xor_channel(0.12, 0.02, 0.03), g[3]),
               ("very_strong_eavesdropping", very_strong_channel(), g[4])]
    coupling_grid, input_grid = g[5], g[6]
    reference: dict[int, float] = {}

    def ref_rate(ch: DmcWthi, grid: int) -> float:
        """achievable_rate at a regime instance, computed once per run for the checks."""
        if id(ch) not in reference:
            reference[id(ch)] = dmc.achievable_rate(ch, grid)[0]
        return reference[id(ch)]

    def check_search(ch: DmcWthi, grid: int, res) -> dict[str, bool]:
        rate, inp, split = res
        return checks.check_search(ch.transition, grid, rate, inp.px1, inp.px2, split)

    def check_regime(fn: str, ch: DmcWthi, grid: int, res) -> dict[str, bool]:
        if fn == "very_strong_eavesdropping":
            return {"predicate_true": res is True, "rate_zero": ref_rate(ch, grid) == 0.0}
        return {"closed_form_equals_search": abs(res - ref_rate(ch, grid)) <= 1e-9}

    def check_sato(res) -> dict[str, bool]:
        return checks.check_degraded_sato(res.value, res.inner_tolerance, res.tolerance,
                                          ref_rate(degraded, input_grid))

    n_in = input_grid ** 2
    fine = (4 * (input_grid - 1) + 1) ** 2
    # one task per call, so that each call's median round counts on its own
    tasks = [_single("dmc.search", lambda ch, grid: dmc.achievable_rate(ch, grid), (ch, grid),
                     lambda res, ch=ch, grid=grid: check_search(ch, grid, res),
                     "bulk_per_s", laws(ch, grid)) for ch, grid in searches]
    tasks += [_single("dmc.regime", lambda fn, ch, grid: getattr(dmc, fn)(ch, grid), item,
                      lambda res, item=item: check_regime(*item, res),
                      "side_per_s", laws(item[1], item[2])) for item in regimes]
    tasks.append(_single("dmc.sato", lambda ch: dmc.dmc_sato_bound(ch, coupling_grid, input_grid),
                         (degraded,), check_sato, "heavy_per_s", 1))
    counts = {
        "dmc.laws": sum(laws(ch, gr) for ch, gr in searches),
        # coarse grid over all couplings, fine surface at the winner, 8 perturbed couplings
        "dmc.sato.objective_evals": coupling_grid ** 4 * n_in + fine + 8 * n_in,
    }
    uniform = ProductInput.uniform(2, 2)
    return Workload(tasks, warm_up=lambda: dmc.mi_profile(searches[0][0], uniform),
                    counts=counts)


# ---------------------------------------------------------------------------
# sim-codes
# ---------------------------------------------------------------------------


def noiseless_blind_channel() -> DmcWthi:
    """y1 = x1; y2 a fair coin independent of both inputs."""
    return _separate(lambda x1, x2: np.eye(2)[x1], lambda x1, x2: np.full(2, 0.5))


def bsc_blind_channel() -> DmcWthi:
    """y1 = BSC(0.1)(x1); y2 a fair coin independent of both inputs."""
    return _separate(lambda x1, x2: _bsc(0.1)[x1], lambda x1, x2: np.full(2, 0.5))


def perfect_eavesdropper_channel() -> DmcWthi:
    """y1 = y2 = x1, both noiseless."""
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        t[x1, :, x1, x1] = 1.0
    return DmcWthi(2, 2, 2, 2, t)


def sim_codes(seed: int, smoke: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    books, short_t, long_t, extreme_t = (1, 8, 2, 8) if smoke else (4, 200, 6, 200)
    uniform = ProductInput.uniform(2, 2)
    trend = trend_channel()
    # rates 10% inside the binning operating point, as in acceptance criterion 9
    prof = dmc.mi_profile(trend, uniform)
    rate_star, _ = dmc.achievable_rate_fixed_input(prof)
    r1s = 0.9 * rate_star
    r2 = prof.i_x2_y2_given_x1 + 0.15 * (prof.i_x2_y1_given_x1 - prof.i_x2_y2_given_x1)
    r2pp = 0.95 * prof.i_x2_y2_given_x1

    def trend_spec(n: int) -> binning.CodebookSpec:
        return binning.CodebookSpec(n=n, r1s=r1s, r1d_prime=0.0, r1d_dprime=0.0,
                                    r2=r2, r2_prime=r2 - r2pp, r2_dprime=r2pp)

    def book_seed() -> int:
        return int(rng.integers(2 ** 32))

    short = [(trend, trend_spec(n), book_seed(), short_t) for n in (6, 10) for _ in range(books)]
    long_ = [(trend, trend_spec(14), book_seed(), long_t) for _ in range(books)]
    spec12 = binning.CodebookSpec(n=12, r1s=1 / 3, r1d_prime=0.0, r1d_dprime=0.0,
                                  r2=1 / 6, r2_prime=0.0, r2_dprime=1 / 6)
    s12 = book_seed()
    # (channel, noiseless receiver, eavesdropper): "blind" or "perfect"
    extreme = [(noiseless_blind_channel(), True, "blind"),
               (perfect_eavesdropper_channel(), True, "perfect"),
               (bsc_blind_channel(), False, "blind")]

    def simulate(ch, spec, s, trials):
        return binning.simulate_detailed(ch, uniform, spec, s, trials)

    def check(item, res, noiseless=False, eavesdropper=None) -> dict[str, bool]:
        ch, spec, s, trials = item
        result, h, errors = res
        m1s = spec.sizes[0]
        _, ph, pe = binning.simulate_detailed(ch, uniform, spec, s, trials // 2)
        out = checks.check_trials(result, h, errors, m1s, (ph, pe))
        if eavesdropper is not None:
            counts = checks.codeword_multiplicities(binning.build_codebooks(ch, uniform, spec, s).c1)
            if eavesdropper == "perfect":
                out |= checks.check_perfect(h, result, counts)
            else:
                out |= checks.check_blind(result, h, m1s)
            if noiseless:
                out |= checks.check_noiseless_receiver(errors, counts)
        return out

    # one task per call, so that each call's median round counts on its own
    tasks = [_single("sim.short", simulate, item, lambda res, item=item: check(item, res),
                     "bulk_per_s", item[3]) for item in short]
    tasks += [_single("sim.long", simulate, item, lambda res, item=item: check(item, res),
                      "heavy_per_s", item[3]) for item in long_]
    extreme_items = []
    for ch, noiseless, eavesdropper in extreme:
        item = (ch, spec12, s12, extreme_t)
        extreme_items.append(item)
        tasks.append(_single(
            "sim.extreme", simulate, item,
            lambda res, item=item, nl=noiseless, ev=eavesdropper: check(item, res, nl, ev),
            "side_per_s", extreme_t))

    def pairs(spec) -> int:
        m1s, m1p, m1pp, m2p, m2pp = spec.sizes
        return m1s * m1p * m1pp * m2p * m2pp * (2 if m1s > 1 else 1)

    everything = short + long_ + extreme_items
    return Workload(
        tasks,
        warm_up=lambda: simulate(trend, trend_spec(6), 0, 1),
        counts={"binning.pairs_scored": sum(it[3] * pairs(it[1]) for it in everything)},
        trials_by_n={it[1].n: it[3] for it in everything},
        pairs_by_n={it[1].n: it[3] * pairs(it[1]) for it in everything},
    )


WORKLOADS = {"gauss-fleet": gauss_fleet, "dmc-search": dmc_search, "sim-codes": sim_codes}


# ---------------------------------------------------------------------------
# Per-layer figures from the spans
# ---------------------------------------------------------------------------


def summary(samples) -> tuple[float, int, str]:
    """(median, sample count, tail): the tail is the highest of p90, p99, p99.9
    with at least ten samples beyond it, given only from 40 samples on."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        return 0.0, 0, ""
    tail = ""
    for p in (99.9, 99.0, 90.0):
        if n >= 40 and n * (1 - p / 100) >= 10:
            tail = f"p{p:g}={np.percentile(samples, p):.6g}"
            break
    return float(np.median(samples)), n, tail


def layer_metrics(table, w: Workload, overhead_s: float) -> dict[str, tuple[float, int, str]]:
    """Every per-layer metric as (value, samples, tail); a layer that did no work reads 0."""
    dur, self_ns = table.dur, table.self_ns
    rounds = max(table.rounds, 1)

    def per_call(scale, *names, values=None):
        return summary((dur if values is None else values)[table.mask(*names)] / scale)

    def per_round(values, mask, scale=1.0):
        return summary(table.per_round(values, mask) / scale)

    ones = np.ones(dur.size)
    out = {
        "gaussian.rate_achievable.us": per_call(1e3, "gaussian.rate_achievable"),
        "power.optimal_power.us": per_call(1e3, "power.optimal_power"),
        "power.menu_calls": per_round(
            ones, table.mask("gaussian.rate_achievable") & table.parent_is("power.optimal_power")),
        "power.grid_oracle_detailed.ms": per_call(1e6, "power.grid_oracle_detailed"),
        "cli.sweep_symmetric.ms": per_call(1e6, "cli.sweep_symmetric"),
        "cli.sweep_interferer.ms": per_call(1e6, "cli.sweep_interferer"),
        "cli.write_csv.ms": per_call(1e6, "cli.write_csv"),
        "cli.self_ms": per_call(1e6, "cli.sweep_symmetric", "cli.sweep_interferer", values=self_ns),
        "dmc.mi_profile.calls": per_round(
            ones, table.mask(*(f"dmc.mi_profile.{k}x{k}" for k in (2, 3, 4)))
            & table.parent_is("dmc.achievable_rate")),
        "dmc.achievable_rate_fixed_input.us": per_call(1e3, "dmc.achievable_rate_fixed_input"),
        "dmc.achievable_rate.self_s": per_round(self_ns, table.mask("dmc.achievable_rate"), 1e9),
        "dmc.regime.s": per_round(dur, table.mask(
            "dmc.weak_regime_rate", "dmc.strong_regime_rate", "dmc.very_strong_eavesdropping"), 1e9),
        "dmc.dmc_sato_bound.s": per_call(1e9, "dmc.dmc_sato_bound"),
        "binning.build_codebooks.ms": per_call(1e6, "binning.build_codebooks"),
        "trace.overhead_s": (overhead_s, rounds, ""),
    }
    for f in ("bound_sato", "bound_z_channel", "bound_main_channel", "bound_best"):
        out[f"bounds.{f}.us"] = per_call(1e3, f"bounds.{f}")
    for k in (2, 3, 4):
        out[f"dmc.mi_profile.us.{k}x{k}"] = per_call(1e3, f"dmc.mi_profile.{k}x{k}")
    # simulate_detailed minus its codebook draw: channel sampling and scoring
    for n in (6, 10, 14):
        trials = w.trials_by_n.get(n, 1)
        out[f"binning.ms_per_trial.n{n}"] = per_call(
            1e6 * trials, f"binning.simulate_detailed.n{n}", values=self_ns)
    mask14 = table.mask("binning.simulate_detailed.n14")
    out["binning.pairs_per_s.n14"] = summary(w.pairs_by_n.get(14, 0) / (self_ns[mask14] / 1e9))
    for name in ("dmc.laws", "dmc.sato.objective_evals", "binning.pairs_scored"):
        out[name] = (float(w.counts.get(name, 0)), rounds if name in w.counts else 0, "")
    return out
