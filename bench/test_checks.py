"""Tests of the benchmark's checkers and a smoke run of every workload.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wthi import binning, bounds, dmc  # noqa: E402
from wthi.gaussian import GaussianWthi  # noqa: E402


def test_sato_value_one_tenth_bit_low_is_rejected():
    a, b, p1, p2 = 0.5, 10.0, 10.0, 3.0
    value = bounds.bound_sato(GaussianWthi(a, b, p1, p2))
    assert checks.check_sato(a, b, p1, p2, value)
    assert not checks.check_sato(a, b, p1, p2, value - 0.1)


def test_policy_rate_off_the_formula_is_rejected():
    ch = GaussianWthi(0.5, 10.0, 10.0, 3.0)
    alloc, rate, best = workloads._policy(ch)
    three = (bounds.bound_main_channel(ch), bounds.bound_sato(ch), bounds.bound_z_channel(ch))
    assert all(checks.check_policy(ch, alloc, rate, three, best).values())
    verdict = checks.check_policy(ch, alloc, rate + 1e-6, three, best)
    assert not verdict["rate_recomputed"]


def test_dmc_rate_above_the_scan_is_rejected():
    ch = workloads.trend_channel()
    inp = dmc.ProductInput.uniform(2, 2)
    lib = dmc.mi_profile(ch, inp)
    prof = checks.profile(ch.transition, inp.px1, inp.px2)
    assert np.allclose(prof, [getattr(lib, f) for f in lib.__dataclass_fields__], atol=1e-12)
    rate, _ = dmc.achievable_rate_fixed_input(lib)
    assert checks.check_dmc_rate(prof, rate)
    assert not checks.check_dmc_rate(prof, rate + 0.05)


def _extreme_run(ch, trials=16):
    spec = binning.CodebookSpec(n=12, r1s=1 / 3, r1d_prime=0.0, r1d_dprime=0.0,
                                r2=1 / 6, r2_prime=0.0, r2_dprime=1 / 6)
    inp = dmc.ProductInput.uniform(2, 2)
    seed = next(s for s in range(100) if np.all(checks.codeword_multiplicities(
        binning.build_codebooks(ch, inp, spec, s).c1) == 1))
    result, h, errors = binning.simulate_detailed(ch, inp, spec, seed, trials)
    _, ph, pe = binning.simulate_detailed(ch, inp, spec, seed, trials // 2)
    return spec, result, h, errors, (ph, pe)


def test_flipped_error_flag_is_rejected():
    spec, result, h, errors, prefix = _extreme_run(workloads.noiseless_blind_channel())
    distinct = np.ones(spec.sizes[0], dtype=int)
    assert checks.check_noiseless_receiver(errors, distinct) == {"noiseless_no_error": True}
    flipped = errors.copy()
    flipped[3] = True
    assert not checks.check_noiseless_receiver(flipped, distinct)["noiseless_no_error"]
    assert not checks.check_trials(result, h, flipped, spec.sizes[0], prefix)["summary_is_mean"]


def test_non_reproducible_trial_array_is_rejected():
    spec, result, h, errors, (ph, pe) = _extreme_run(workloads.bsc_blind_channel())
    assert all(checks.check_trials(result, h, errors, spec.sizes[0], (ph, pe)).values())
    assert all(checks.check_blind(result, h, spec.sizes[0]).values())
    changed = ph.copy()
    changed[0] = np.nextafter(changed[0], 0.0)
    assert not checks.check_trials(result, h, errors, spec.sizes[0], (changed, pe))[
        "prefix_reproducible"]


def test_leaky_perfect_eavesdropper_is_rejected():
    spec, result, h, errors, _ = _extreme_run(workloads.perfect_eavesdropper_channel())
    distinct = np.ones(spec.sizes[0], dtype=int)
    assert all(checks.check_perfect(h, result, distinct).values())
    leaky = h.copy()
    leaky[0] = 1.0
    assert not checks.check_perfect(leaky, result, distinct)["perfect_entropy_exact"]


def test_sweep_csv_rejects_a_rate_above_a_bound_and_a_changed_byte():
    text = "\n".join(["# wthi", "p2_max,achievable,bound_main,bound_sato,bound_z",
                      "1,0.5,1.72971355,0.9,0.8", "2,0.6,1.72971355,0.9,0.8"]) + "\n"
    p1_max = 10.0
    main = checks.awgn_capacity(p1_max)
    text = text.replace("1.72971355", f"{main:.12g}")
    axis = np.array([1.0, 2.0])
    assert all(checks.check_sweep_csv(text, text, axis, p1_max).values())
    above = text.replace("2,0.6,", "2,0.95,")
    assert not checks.check_sweep_csv(above, above, axis, p1_max)["rate_le_bounds"]
    changed = text.replace("0.6", "0.7")
    assert not checks.check_sweep_csv(text, changed, axis, p1_max)["byte_identical"]


def test_benchmark_json_matches_the_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == workloads.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--trace", trace, "--smoke"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["attempted"] > 0
    assert (res["failed"] > 0) == (workload == "gauss-fleet")  # the known Sato fault
    expected = workloads.PER_LAYER if trace == "1" else workloads.END_TO_END
    assert sorted(res["metrics"]) == sorted(name for name, _, _ in expected)
