"""Benchmark of wthi: end-to-end throughput per workload, or per-layer spans.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from any directory; the wthi sources are taken from ``src/`` beside this
directory.  One closed-loop caller (this process) issues each call after the
previous one returns.  A run repeats whole rounds of its workload's
operations for about ``--seconds``, checks the first round against
independent computations and every later round against the first, and
prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (rounds alternate untraced and traced; spans are
written to ``.bench_out/``).  ``--smoke`` runs one round on reduced inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("gauss-fleet", "dmc-search", "sim-codes")
SETUP_PROBES = 7        # fresh processes whose median set-up time is setup_s
# Seconds of one host_probe() on the reference host (a shared 2-core VM,
# Python 3.11, numpy 2.4) at its quiet moments.  Times are scaled to this speed.
REFERENCE_PROBE_S = 0.005
SPEED_PROBES = 5        # host_probe() calls after each set-up probe
MAX_TRACED_ROUNDS = 4   # bounds the spans kept in memory
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one round on reduced inputs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def limit_blas_threads() -> None:
    """Keep BLAS threads at or below the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, n))
        except ValueError:
            cur = n
        os.environ[var] = str(max(1, min(cur, n)))


def child_argv(args, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--smoke"] if args.smoke else []) + list(extra)


def setup_probe(args) -> int:
    """Time one set-up in this fresh process (import, inputs, one warm-up
    call), then the host speed; print both."""
    import mpmath  # noqa: F401  -- the checks' library, not part of set-up
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT).warm_up()
    secs = time.perf_counter() - t0
    speed = statistics.median(host_probe() for _ in range(SPEED_PROBES))
    print(repr(secs), repr(speed))
    return 0


def host_probe() -> float:
    """Seconds of one fixed loop of benchmark code that calls no wthi code.

    The loop mixes interpreted arithmetic with reductions over small numpy
    arrays, as the library does, so it slows down with the library when
    other tenants of the host take its processor's time.
    """
    import numpy as np
    x = np.linspace(0.05, 0.95, 64).reshape(4, 4, 4)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        p = x.sum(axis=2)
        acc += float((p * np.log2(p)).sum()) + float(np.maximum(x, 0.5).max())
        for j in range(40):
            acc += (i * j) % 7 * 0.5
    return time.perf_counter() - t0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy as np
    import wthi
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "load_avg": os.getloadavg(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "wthi": wthi.__version__, "commit": git_commit(), "platform": platform.platform(),
    }


def fingerprint(res):
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return pickle.dumps(res)


def run_checks(task, i: int, res, tally: dict) -> list[str]:
    """Run the task's checks on one result; return the names of those that failed."""
    if isinstance(res, Exception):
        verdicts = {f"raises {type(res).__name__}": False}
    else:
        try:
            verdicts = task.check(i, res)
        except Exception as exc:  # a checker that cannot evaluate the result rejects it
            verdicts = {f"check raised {type(exc).__name__}": False}
    for name, ok in verdicts.items():
        t = tally.setdefault((task.name, name), [0, 0])
        t[0] += 1
        t[1] += not ok
    return [name for name, ok in verdicts.items() if not ok]


def run_round(w, tracer, traced_targets):
    """Run every task once; return the results, each task's seconds and the
    seconds of the host_probe() run just before it."""
    results, secs, probes = [], [], []
    if tracer is not None:
        tracer.round_starts.append(len(tracer.start))
    with tracer.patched(traced_targets) if tracer is not None else nullcontext():
        for task in w.tasks:
            probes.append(host_probe())
            span = tracer.span(task.name) if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            with span:
                out = task.run()
            secs.append(time.perf_counter() - t0)
            results.append(out)
    return results, secs, probes


def measure(w, args, workloads, spans) -> dict:
    tracer = spans.Tracer() if args.trace else None
    first: dict = {}   # (task, op) -> (fingerprint, failed checks) of round 1
    tally: dict = {}   # (task name, check) -> [attempted, failed]
    ops = {task.name: [0, 0] for task in w.tasks}
    unexpected = 0
    # seconds of each task in each round, untraced (False) and traced (True)
    timed = {False: [[] for _ in w.tasks], True: [[] for _ in w.tasks]}
    scaled = [[] for _ in w.tasks]   # untraced seconds scaled to the reference host speed
    probes: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        gc.collect()
        t_round = time.perf_counter()
        results, secs, speeds = run_round(w, tracer if traced else None, workloads.TRACED)
        probes += speeds
        for ti, (sec, probe) in enumerate(zip(secs, speeds)):
            timed[traced][ti].append(sec)
            if not traced:
                scaled[ti].append(sec * REFERENCE_PROBE_S / probe)
        for ti, (task, outs) in enumerate(zip(w.tasks, results)):
            for i, res in enumerate(outs):
                fp = fingerprint(res)
                if r == 0:
                    bad = run_checks(task, i, res, tally)
                    first[ti, i] = (fp, bad)
                else:
                    same = fp == first[ti, i][0]
                    t = tally.setdefault((task.name, "repeat"), [0, 0])
                    t[0] += 1
                    t[1] += not same
                    bad = first[ti, i][1] + ([] if same else ["repeat"])
                ops[task.name][0] += 1
                if bad:
                    ops[task.name][1] += 1
                    unexpected += not task.known_fault
        r += 1
        now = time.perf_counter()
        need = 2 if args.trace else 1
        if r >= need and (args.smoke or now - start + (now - t_round) > args.seconds
                          or len(timed[True][0]) >= MAX_TRACED_ROUNDS):
            break
    # Each task's median round in seconds of the reference host: other tenants
    # make this process up to 1.8 times slower, in phases from under a second
    # to minutes, and the probe run just before a task slows down with it.
    med = {traced: [statistics.median(ts) if ts else 0.0 for ts in timed[traced]]
           for traced in (False, True)}
    speed = statistics.median(probes) / REFERENCE_PROBE_S
    shapes, raw = {}, {}
    for name, _, _ in workloads.END_TO_END:
        mine = [ti for ti, t in enumerate(w.tasks) if t.shape == name]
        if mine:
            work = sum(w.tasks[ti].work for ti in mine)
            shapes[name] = work / sum(statistics.median(scaled[ti]) for ti in mine)
            raw[name] = work / sum(med[False][ti] for ti in mine)
    return {"tracer": tracer, "tally": tally, "ops": ops, "unexpected": unexpected,
            "overhead_s": sum(med[True]) - sum(med[False]) if args.trace else 0.0,
            "shapes": shapes, "raw": raw, "speed": speed, "rounds": r}


def run_one(args) -> int:
    setup, setup_raw = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(child_argv(args, args.workload, "--setup-probe"), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        secs, speed = map(float, done.stdout.strip().splitlines()[-1].split())
        setup_raw.append(secs)
        setup.append(secs * REFERENCE_PROBE_S / speed)

    import mpmath  # noqa: F401  -- imported before set-up, as in the probes
    import spans
    import workloads
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
        w.warm_up()
        m = measure(w, args, workloads, spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted = sum(a for a, _ in m["ops"].values())
    failed = sum(f for _, f in m["ops"].values())
    if args.trace:
        tracer = m["tracer"]
        figures = workloads.layer_metrics(tracer.table(), w, m["overhead_s"])
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        for name, unit, _ in workloads.PER_LAYER:
            value, n, tail = figures[name]
            print(f"layer {name} = {value:.6g} {unit}  median of {n} {tail}".rstrip())
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(path, prov)
        print(f"spans {len(tracer.start)} written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": figures[name][0], "unit": units[name]} for name in units}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_mb}
        values.update(m["shapes"])
        meaning = workloads.SHAPES[args.workload]
        metrics = {}
        for name, unit, better in workloads.END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            note = meaning.get(name, f"median of {len(setup)}" if name == "setup_s" else "")
            print(f"metric {name} = {values[name]:.6g} {unit} ({better} is better) {note}".rstrip())
        unscaled = {"setup_s": statistics.median(setup_raw), **m["raw"]}
        print(f"host slowdown {m['speed']:.4g} (median host_probe over {REFERENCE_PROBE_S} s); "
              "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    for (task, check), (a, f) in sorted(m["tally"].items()):
        print(f"check {task} / {check}: attempted {a} failed {f}")
    for task, (a, f) in m["ops"].items():
        print(f"operations {task}: attempted {a} failed {f}")
    print(f"rounds {m['rounds']}; failed outside the known-fault tasks: {m['unexpected']}")
    print(json.dumps({"correct": m["unexpected"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, in turn; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(child_argv(args, name), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 2 + 2 * args.seconds)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wthi" / "__init__.py").is_file():
        print(f"error: wthi sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_blas_threads()
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
