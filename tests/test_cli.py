import argparse
import io
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wthi
from wthi import cli
from wthi.bounds import bound_main_channel, bound_sato, bound_z_channel
from wthi.cli import main
from wthi.binning import CodebookSpec, simulate
from wthi.dmc import ProductInput, achievable_rate, dmc_sato_bound
from wthi.errors import DomainError
from wthi.gaussian import GaussianWthi, PowerAllocation, rate_achievable, rate_wiretap
from wthi.power import grid_oracle_detailed, optimal_power

from channels import (FLEET_CHANNELS, channel_document, closed_channels, degraded_instance,
                      fleet_channel, noiseless_blind_channel, trend_channel)
from oracles import concave_envelope, sweep_tolerance

# Arbitrary JSON values; json.dumps writes a non-finite float as NaN or Infinity.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8)


def run_cli(args):
    return main(args)


@pytest.fixture()
def channel_file(tmp_path):
    path = tmp_path / "blind.json"
    path.write_text(json.dumps(channel_document(noiseless_blind_channel())))
    return path


def parse_csv(path):
    header = None
    comments, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


class TestSweeps:
    def test_symmetric_sweep_columns_and_values(self, tmp_path):
        out = tmp_path / "sym.csv"
        assert run_cli(["sweep-symmetric", "--points", "8", "--out", str(out)]) == 0
        comments, header, rows = parse_csv(out)
        assert header == ["a", "rate_with_interferer", "rate_wiretap"]
        assert len(rows) == 8
        assert any("units: bits per channel use" in c for c in comments)
        assert any('"mode": "sweep-symmetric"' in c for c in comments)
        a = rows[3][0]
        ch = GaussianWthi(a, a, 10.0, 10.0)
        alloc, _ = optimal_power(ch)
        expected, _ = rate_achievable(ch, alloc)
        assert rows[3][1] == pytest.approx(expected, rel=1e-10)
        assert rows[3][2] == pytest.approx(rate_wiretap(a, 10.0), rel=1e-10)

    def test_symmetric_sweep_is_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sweep-symmetric", "--points", "40", "--out", str(a)])
        run_cli(["sweep-symmetric", "--points", "40", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_interferer_sweep_bounds_dominate(self, tmp_path):
        out = tmp_path / "p2.csv"
        assert run_cli([
            "sweep-interferer", "--a", "2", "--b", "0.1", "--p1-max", "10",
            "--start", "0.1", "--stop", "50", "--points", "25", "--out", str(out),
        ]) == 0
        _, header, rows = parse_csv(out)
        assert header == ["p2_max", "achievable", "bound_main", "bound_sato", "bound_z"]
        for p2m, achievable, b_main, b_sato, b_z in rows:
            assert achievable <= min(b_main, b_sato, b_z) + 1e-9
            # strong-eavesdropper geometry: the Sato bound is uniformly best
            assert b_sato <= b_z + 1e-12 and b_sato <= b_main + 1e-12

    def test_log_spacing(self, tmp_path):
        out = tmp_path / "log.csv"
        run_cli(["sweep-interferer", "--points", "5", "--spacing", "log",
                 "--start", "0.1", "--stop", "10", "--out", str(out)])
        _, _, rows = parse_csv(out)
        xs = [r[0] for r in rows]
        ratios = [xs[i + 1] / xs[i] for i in range(len(xs) - 1)]
        assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-9)


def sweep_columns(mode: str, **fields) -> np.ndarray:
    """The array a sweep hands to ``write_csv``, at full precision, for ``fields``."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_csv", lambda cfg, header, rows: captured.append(rows))
        cli._SUBCOMMANDS[mode][0](cli.load_config(mode, None, fields))
    return captured[0]


class TestSweepColumns:
    # A sweep evaluates its columns over the whole axis with numpy, where the
    # scalar functions use libm.  Each cell must equal the scalar function at its
    # row's channel within ``sweep_tolerance``.
    @staticmethod
    def assert_cells(cells, expected, ch: GaussianWthi):
        tolerance = sweep_tolerance(ch.a, ch.b, ch.p1_max, ch.p2_max)
        assert np.abs(np.subtract(cells, expected)).max() <= tolerance

    @given(closed_channels())
    @settings(max_examples=150, deadline=None)
    def test_interferer_columns_match_the_scalar_path(self, ch):
        cols = sweep_columns("sweep-interferer", a=ch.a, b=ch.b, p1_max=ch.p1_max, start=0.0,
                             stop=ch.p2_max or 1.0, points=9)
        for p2_max, *cells in cols.tolist():
            row = GaussianWthi(ch.a, ch.b, ch.p1_max, p2_max)
            alloc, _ = optimal_power(row)
            self.assert_cells(cells, [rate_achievable(row, alloc)[0], bound_main_channel(row),
                                      bound_sato(row), bound_z_channel(row)], row)

    @given(closed_channels())
    @settings(max_examples=150, deadline=None)
    def test_symmetric_columns_match_the_scalar_path(self, ch):
        # the axis a = b ends on the drawn b, which sits on the drawn seam
        cols = sweep_columns("sweep-symmetric", p1_max=ch.p1_max, p2_max=ch.p2_max, start=0.0,
                             stop=ch.b or 1.0, points=9)
        for a, *cells in cols.tolist():
            row = GaussianWthi(a, a, ch.p1_max, ch.p2_max)
            alloc, _ = optimal_power(row)
            self.assert_cells(cells, [rate_achievable(row, alloc)[0],
                                      rate_wiretap(a, ch.p1_max)], row)

    @given(closed_channels() | FLEET_CHANNELS)
    @settings(max_examples=150, deadline=None)
    def test_time_sharing_stays_under_every_bound(self, ch):
        # The caps bound average power, so two codes at caps x < y, time-shared
        # to average x_k, achieve the chord between their rates: the upper concave
        # envelope of the achievable column over the p2_max axis is achievable,
        # and each bound column must clear it, to 1e-14 relative (rounding)
        cols = sweep_columns("sweep-interferer", a=ch.a, b=ch.b, p1_max=ch.p1_max, start=0.0,
                             stop=ch.p2_max or 1.0, points=33)
        envelope = concave_envelope(cols[:, 0], cols[:, 1])
        bounds = cols[:, 2:]
        assert (envelope[:, None] <= bounds + 1e-14 * (1.0 + bounds)).all()


class TestPointQueries:
    def test_point_echoes_inputs(self, tmp_path):
        out = tmp_path / "pt.json"
        assert run_cli(["point", "--a", "0.5", "--b", "10", "--p1-max", "10",
                        "--p2-max", "10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["a"] == 0.5
        ch = GaussianWthi(0.5, 10.0, 10.0, 10.0)
        expected, split = rate_achievable(ch, PowerAllocation(10.0, 10.0))
        assert doc["rate"] == pytest.approx(expected)
        assert doc["split"]["regime"] == split.regime.value

    def test_power_opt_below_threshold_is_silent(self, tmp_path):
        out = tmp_path / "po.json"
        assert run_cli(["power-opt", "--a", "2", "--b", "0.1", "--p1-max", "10",
                        "--p2-max", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["p1"], doc["p2"]) == (0.0, 0.0)
        assert doc["rate"] == 0.0

    def test_bounds_all_zero_at_zero_power(self, tmp_path):
        out = tmp_path / "bd.json"
        assert run_cli(["bounds", "--a", "1", "--b", "1", "--p1-max", "0",
                        "--p2-max", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["bound_main"] == 0.0
        assert doc["bound_sato"] == 0.0
        assert doc["bound_z"] == pytest.approx(0.0, abs=1e-12)
        assert doc["best_kind"] == "sato"

    def test_bounds_sato_is_main_at_zero_gains(self, tmp_path):
        # s = 0 with positive powers: the Sato bound is its limit C(p1_max)
        out = tmp_path / "bd0.json"
        assert run_cli(["bounds", "--a", "0", "--b", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sato"]["degenerate"]
        assert doc["bound_sato"] == doc["bound_main"] > 0.0

    def test_bounds_match_library(self, tmp_path):
        out = tmp_path / "bd2.json"
        run_cli(["bounds", "--a", "0.5", "--b", "10", "--p1-max", "10",
                 "--p2-max", "5", "--out", str(out)])
        doc = json.loads(out.read_text())
        ch = GaussianWthi(0.5, 10.0, 10.0, 5.0)
        assert doc["bound_main"] == pytest.approx(bound_main_channel(ch))
        assert doc["bound_sato"] == pytest.approx(bound_sato(ch))
        assert doc["bound_z"] == pytest.approx(bound_z_channel(ch))


class TestDmcAndSimulate:
    def test_dmc_blind_channel(self, tmp_path, channel_file):
        out = tmp_path / "dmc.json"
        assert run_cli(["dmc", "--channel", str(channel_file), "--grid", "9",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        expected, _, _ = achievable_rate(noiseless_blind_channel(), 9)
        assert doc["rate"] == pytest.approx(expected)
        assert doc["split"]["r1d"] == 0.0

    def test_simulate_record(self, tmp_path, channel_file):
        out = tmp_path / "sim.json"
        assert run_cli([
            "simulate", "--channel", str(channel_file), "--n", "12",
            "--r1s", str(1 / 3), "--r2-dprime", str(1 / 6),
            "--trials", "50", "--seed", "0", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["p_e"] == 0.0
        assert doc["equivocation_ratio"] == pytest.approx(1.0)
        assert doc["rng"] == "philox4x64"
        assert doc["trials"] == 50
        assert "runtime_ms" not in doc  # the wall time goes to stderr
        assert doc["spec"]["n"] == 12

    def test_simulate_negative_seed(self, tmp_path, channel_file):
        # seeds are taken mod 2^64: -1 is 2^64 - 1, and neither is rounded
        docs = []
        for seed in ("-1", str(2**64 - 1)):
            out = tmp_path / f"sim{seed}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli([
                    "simulate", "--channel", str(channel_file), "--n", "6",
                    "--r1s", "0.5", "--r2-dprime", "0.5",
                    "--trials", "20", "--seed", seed, "--out", str(out),
                ]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["seed"] == -1
        assert docs[0]["p_e"] == docs[1]["p_e"] == 0.0
        assert docs[0]["equivocation_ratio"] == docs[1]["equivocation_ratio"]

    def test_missing_channel_file_is_validation_error(self, tmp_path):
        assert run_cli(["dmc", "--channel", str(tmp_path / "nope.json")]) == 2

    def test_dmc_enumeration_budget(self, tmp_path):
        t = np.random.default_rng(3).random((4, 4, 4, 4))
        doc = {"nx1": 4, "nx2": 4, "ny1": 4, "ny2": 4,
               "transition": (t / t.sum(axis=(2, 3), keepdims=True)).tolist()}
        path = tmp_path / "four.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["dmc", "--channel", str(path), "--grid", "200"]) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(JSON_VALUES, st.fixed_dictionaries(
        {name: JSON_VALUES for name in ("nx1", "nx2", "ny1", "ny2", "transition")})))
    def test_any_json_channel_file_is_a_result_or_a_validation_error(self, tmp_path_factory,
                                                                      doc):
        path = tmp_path_factory.getbasetemp() / "fuzzed_channel.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(["dmc", "--channel", str(path), "--grid", "3"])
        assert code in (0, 2)
        assert not err.getvalue().startswith("runtime error")

    def test_invalid_channel_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nx1": 2, "nx2": 2, "ny1": 2, "ny2": 2,
                                    "transition": np.full((2, 2, 2, 2), 0.3).tolist()}))
        assert run_cli(["dmc", "--channel", str(path)]) == 2


class TestConfigHandling:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1.0, "b": 1.0, "points": 4}))
        out = tmp_path / "o.csv"
        run_cli(["sweep-interferer", "--config", str(cfg), "--b", "0.1",
                 "--a", "2", "--out", str(out)])
        comments, _, rows = parse_csv(out)
        assert len(rows) == 4  # from the config file
        assert any('"b": 0.1' in c for c in comments)  # flag wins

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0}))
        assert run_cli(["sweep-symmetric", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("doc", [{"mode": "point"}, {"seed": 3, "grid": 5}])
    def test_config_field_the_subcommand_does_not_read_rejected(self, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["bounds", "--config", str(cfg)]) == 2

    def test_config_may_set_out(self, tmp_path):
        out = tmp_path / "bd.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 0.5, "out": str(out)}))
        assert run_cli(["bounds", "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["config"]["a"] == 0.5

    def test_bad_range_rejected(self):
        assert run_cli(["sweep-symmetric", "--start", "5", "--stop", "1"]) == 2

    def test_bad_gain_rejected(self):
        assert run_cli(["bounds", "--a", "-3"]) == 2

    @pytest.mark.parametrize("mode, doc, echo", [
        ("sweep-interferer", {"a": "x"}, ("a", "float")),
        ("sweep-interferer", {"a": True}, ("a", "float")),
        ("sweep-interferer", {"points": 2.5}, ("points", "int")),
        ("sweep-interferer", {"points": "ten"}, ("points", "int")),
        ("sweep-interferer", {"stop": None}, ("stop", "float")),
        ("dmc", {"grid": "21"}, ("grid", "int")),
        ("dmc", {"grid": 2.5}, ("grid", "int")),
        ("simulate", {"trials": "5"}, ("trials", "int")),
        ("simulate", {"seed": "1"}, ("seed", "int")),
        ("point", {"p1": [1.0]}, ("p1", "float")),
        ("bounds", {"b": {"value": 1.0}}, ("b", "float")),
        ("dmc", {"channel": 5}, ("channel", "str")),
        ("bounds", {"out": 1}, ("out", "str")),
        ("dmc", {"grid": 21.0}, {"grid": 21}),
        ("sweep-interferer", {"points": 6.0, "a": 1}, {"points": 6, "a": 1.0}),
        ("point", {"p1": None, "p2": 2}, {"p1": None, "p2": 2.0}),
    ])
    def test_config_values_take_their_flags_types(self, tmp_path, capsys, channel_file,
                                                  mode, doc, echo):
        # echo is the failing field and its flag's type, or the echoed config values
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = [mode, "--config", str(cfg)]
        if mode in ("dmc", "simulate") and "channel" not in doc:
            args += ["--channel", str(channel_file)]
        if isinstance(echo, tuple):
            field, kind = echo
            assert run_cli(args) == 2
            value = json.dumps(doc[field])
            assert capsys.readouterr().err == (
                f"error: config field {field} must be of type {kind}, got {value}\n")
            return
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        config = json.loads(out)["config"] if out.startswith("{") else json.loads(
            out.splitlines()[2].removeprefix("# config: "))
        for name, value in echo.items():
            assert config[name] == value and type(config[name]) is type(value)

    @pytest.mark.parametrize("args", [["bounds", "--seed", "3"], ["simulate", "--grid", "5"]])
    def test_flag_of_another_subcommand_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# The configuration each output echoes besides ``mode``: the fields its subcommand's
# flags set, not ``out``.  A swept field is not echoed.
CONFIG_KEYS = {
    "sweep-symmetric": {"p1_max", "p2_max", "start", "stop", "points", "spacing"},
    "sweep-interferer": {"a", "b", "p1_max", "start", "stop", "points", "spacing"},
    "point": {"a", "b", "p1_max", "p2_max", "p1", "p2"},
    "power-opt": {"a", "b", "p1_max", "p2_max"},
    "bounds": {"a", "b", "p1_max", "p2_max"},
    "dmc": {"channel", "grid"},
    "simulate": {"channel", "seed", "trials", "n", "r1s", "r1d_prime", "r1d_dprime",
                 "r2_prime", "r2_dprime"},
}
# One invocation of each subcommand, with flags away from their defaults where it has them.
ROUND_TRIPS = [
    ["sweep-symmetric", "--p1-max", "5", "--p2-max", "3", "--start", "0.2", "--stop", "4",
     "--points", "5", "--spacing", "log"],
    ["sweep-interferer", "--a", "2", "--b", "0.1", "--p1-max", "7", "--points", "6"],
    ["point", "--a", "2", "--b", "0.1", "--p1", "3", "--p2", "0.5"],
    ["point", "--a", "0.5", "--b", "10", "--p2-max", "4"],
    ["power-opt", "--a", "2", "--b", "0.1", "--p2-max", "1"],
    ["bounds", "--a", "0.5", "--b", "10", "--p1-max", "10", "--p2-max", "3"],
    ["dmc", "--channel", "{channel}", "--grid", "5"],
    ["simulate", "--channel", "{channel}", "--n", "4", "--r1s", "0.5", "--r2-dprime", "0.25",
     "--trials", "3", "--seed", "7"],
]
SPLIT_KEYS = {"r1", "r1d", "r1s", "r2", "regime"}
# the noiseless blind channel's transition with one NaN entry
NAN_TRANSITION = np.where(np.arange(16).reshape(2, 2, 2, 2) == 4, math.nan,
                          noiseless_blind_channel().transition).tolist()

# Files that hold no readable JSON object, as config and as channel files:
# (name, file bytes or None for no file, path, message prefix).
BAD_DOCUMENTS = [
    ("missing", None, "{tmp}/doc.json", "cannot read {what} {tmp}/doc.json: [Errno 2]"),
    ("directory", None, "{tmp}", "cannot read {what} {tmp}: [Errno 21]"),
    ("not_utf8", b"\xff\xfe{}", "{tmp}/doc.json",
     "{what} {tmp}/doc.json is not valid JSON: 'utf-8' codec can't decode"),
    ("yaml", b"a: 1", "{tmp}/doc.json", "{what} {tmp}/doc.json is not valid JSON: Expecting"),
    ("long_int", b'{"a": 1' + b"0" * 4999 + b"}", "{tmp}/doc.json",
     "{what} {tmp}/doc.json is not valid JSON: Exceeds the limit (4300 digits)"),
    ("deep", b"[" * 100_000, "{tmp}/doc.json",
     "{what} {tmp}/doc.json is not valid JSON: maximum recursion depth exceeded"),
    ("number", b"5", "{tmp}/doc.json", "{what} document must be a JSON object\n"),
    ("array", b"[1, 2]", "{tmp}/doc.json", "{what} document must be a JSON object\n"),
    ("null", b"null", "{tmp}/doc.json", "{what} document must be a JSON object\n"),
]
BAD_DOCUMENT_CASES = [
    ([mode, flag, path], {} if data is None else {"doc.json": data},
     message.replace("{what}", what))
    for what, mode, flag in (("config", "bounds", "--config"), ("channel", "dmc", "--channel"))
    for _, data, path, message in BAD_DOCUMENTS
]
BAD_DOCUMENT_IDS = [f"{what}_{name}" for what in ("config", "channel")
                    for name, *_ in BAD_DOCUMENTS]


class TestOutputContract:
    """The keys, headers and error lines that scripts reading the CLI rely on."""

    def run_json(self, capsys, args, err_pattern=""):
        assert run_cli(args) == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(err_pattern, err)
        doc = json.loads(out)
        assert set(doc["config"]) == {"mode", *CONFIG_KEYS[args[0]]}
        return doc

    def test_point_keys(self, capsys):
        for extra in ([], ["--p1", "3", "--p2", "0.5"]):
            doc = self.run_json(capsys, ["point", "--a", "2", "--b", "0.1", *extra])
            assert set(doc) == {"config", "p1", "p2", "rate", "rate_wiretap", "split"}
            assert set(doc["split"]) == SPLIT_KEYS

    def test_power_opt_keys(self, capsys):
        doc = self.run_json(capsys, ["power-opt", "--a", "2", "--b", "0.1", "--p2-max", "1"])
        assert set(doc) == {"config", "p1", "p2", "rate", "split", "p1_star", "p2_star", "delta"}
        assert set(doc["split"]) == SPLIT_KEYS
        assert doc["p1_star"] is None and doc["p2_star"] > 0.0

    @pytest.mark.parametrize("gains", [["--a", "0.5", "--b", "10"],
                                       ["--a", "0", "--b", "0", "--p1-max", "0", "--p2-max", "0"]])
    def test_bounds_keys(self, capsys, gains):
        doc = self.run_json(capsys, ["bounds", *gains])
        assert set(doc) == {"config", "bound_main", "bound_sato", "bound_z", "best",
                            "best_kind", "sato"}
        assert set(doc["sato"]) == {"rho_star", "value", "degenerate"}
        assert doc["sato"]["value"] == doc["bound_sato"]

    def test_dmc_keys(self, capsys, channel_file):
        doc = self.run_json(capsys, ["dmc", "--channel", str(channel_file), "--grid", "5"])
        assert set(doc) == {"config", "rate", "px1", "px2", "split"}
        assert set(doc["split"]) == SPLIT_KEYS

    def test_simulate_keys(self, capsys, channel_file):
        doc = self.run_json(capsys, ["simulate", "--channel", str(channel_file), "--n", "4",
                                     "--r1s", "0.5", "--trials", "3"], r"runtime_ms \d+\.\d{3}\n")
        assert set(doc) == {"config", "spec", "seed", "trials", "p_e", "equivocation_ratio",
                            "rng"}
        assert set(doc["spec"]) == {"n", "r1s", "r1d_prime", "r1d_dprime", "r2", "r2_prime",
                                    "r2_dprime"}

    @pytest.mark.parametrize("mode, header, changes", [
        ("sweep-symmetric", "a,rate_with_interferer,rate_wiretap",
         {"p1_max": 10.0, "p2_max": 10.0, "stop": 14.0}),
        ("sweep-interferer", "p2_max,achievable,bound_main,bound_sato,bound_z",
         {"a": 0.5, "b": 10.0, "p1_max": 10.0, "stop": 50.0}),
    ])
    def test_sweep_header_lines(self, capsys, mode, header, changes):
        assert run_cli([mode, "--points", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        config = {"mode": mode, "start": 0.1, "points": 3, "spacing": "linear", **changes}
        assert lines[:4] == [
            f"# wthi {cli.__version__}",
            "# units: bits per channel use",
            f"# config: {json.dumps(config, sort_keys=True)}",
            header,
        ]
        assert len(lines) == 7 and not any(line.startswith("#") for line in lines[4:])

    @pytest.mark.parametrize("args, message", [
        (["bounds", "--a", "-1"], "a must be finite and >= 0, got -1.0"),
        (["dmc", "--channel", "{tmp}/nope.json"], "cannot read channel {tmp}/nope.json: "
         "[Errno 2] No such file or directory: '{tmp}/nope.json'"),
        (["simulate", "--channel", "{tmp}/nope.json"], "cannot read channel {tmp}/nope.json: "
         "[Errno 2] No such file or directory: '{tmp}/nope.json'"),
        (["sweep-symmetric", "--start", "5", "--stop", "1"],
         "range start must be < stop, got [5.0, 1.0]"),
        (["sweep-interferer", "--points", "1"], "points must be >= 2, got 1"),
        (["point", "--p1", "20", "--out", "{tmp}/out.json"],
         "allocation (20.0, 10.0) exceeds power constraints (10.0, 10.0)"),
        (["simulate", "--channel", "{tmp}/blind.json", "--r1s", "200"],
         "codebook size 2^2000 exceeds the budget 1048576"),
        (["bounds", "--a", "1" + "0" * 400], "a must be finite and >= 0, got inf"),
        # a sweep fails as a scalar loop over its axis would, at its first failing point
        (["sweep-interferer", "--a", "0", "--b", "1", "--p1-max", "1.7e308", "--start", "0",
          "--stop", "1.7e308", "--points", "5"],
         "a capacity overflows at GaussianWthi(a=0.0, b=1.0, p1_max=1.7e+308, p2_max=4.25e+307) "
         "and PowerAllocation(p1=1.7e+308, p2=4.25e+307)"),
        (["sweep-symmetric", "--points", str(2**18 + 1)],
         "262145 points exceed the desk-scale budget 262144"),
        (["simulate", "--channel", "{tmp}/blind.json", "--trials", "4000001"],
         "4000001 trials exceed the desk-scale budget 4000000"),
        # sweep endpoints are checked before the axis is built from them
        (["sweep-symmetric", "--start", "1e308", "--stop", "inf"],
         "stop must be finite and >= 0, got inf"),
        (["sweep-interferer", "--start=-1.7e308", "--stop", "1.7e308"],
         "start must be finite and >= 0, got -1.7e+308"),
        # a count is reported under its flag's name
        (["dmc", "--channel", "{tmp}/blind.json", "--grid", "2"], "grid must be >= 3, got 2"),
    ])
    def test_validation_errors(self, capsys, tmp_path, channel_file, args, message):
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert run_cli(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("args, files, message", [
        (["sweep-symmetric", "--config", "{tmp}/cfg.json"], {"cfg.json": '{"spacing": "cubic"}'},
         "spacing must be 'linear' or 'log', got 'cubic'"),
        (["sweep-interferer", "--spacing", "log", "--start", "0"], {},
         "log spacing requires start > 0"),
        (["dmc"], {}, "mode 'dmc' requires a channel file"),
        (["bounds", "--config", "{tmp}/none.json"], {}, "cannot read config {tmp}/none.json: "),
        (["bounds", "--config", "{tmp}/cfg.json"], {"cfg.json": "a: 1"},
         "config {tmp}/cfg.json is not valid JSON: "),
        (["bounds", "--config", "{tmp}/cfg.json"], {"cfg.json": "[1, 2]"},
         "config document must be a JSON object"),
        (["bounds", "--out", "{tmp}/none/out.json"], {},
         "cannot write output {tmp}/none/out.json: "),
        (["dmc", "--channel", "{tmp}/ch.json"], {"ch.json": "{nx1: 2}"},
         "channel {tmp}/ch.json is not valid JSON: "),
        (["bounds", "--config", "{tmp}/cfg.json"], {"cfg.json": '{"a": 1' + "0" * 400 + "}"},
         "a must be finite and >= 0, got inf\n"),
        (["sweep-symmetric", "--config", "{tmp}/cfg.json"], {"cfg.json": '{"points": 1e300}'},
         f"{int(1e300)} points exceed the desk-scale budget 262144\n"),
        *BAD_DOCUMENT_CASES,
    ], ids=["config_spacing", "log_start", "no_channel", "config_unreadable", "config_not_json",
            "config_not_object", "out_unwritable", "channel_not_json", "config_int_overflow",
            "config_points_over_cap", *BAD_DOCUMENT_IDS])
    def test_validation_error_prefixes(self, capsys, tmp_path, args, files, message):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data.encode() if isinstance(data, str) else data)
        assert run_cli([arg.format(tmp=tmp_path) for arg in args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message.format(tmp=tmp_path)}")

    @pytest.mark.parametrize("mode, field, value, message", [
        ("dmc", "transition", NAN_TRANSITION, "transition entries must lie in [0, 1]"),
        ("simulate", "transition", NAN_TRANSITION, "transition entries must lie in [0, 1]"),
        ("dmc", "nx1", 2.9, "nx1 must be an integer, got 2.9"),
        ("dmc", "nx1", "x", "nx1 must be an integer, got 'x'"),
        ("dmc", "transition", [[[[1.0]]], [[[0.5, 0.5]]]], "transition is not a numeric array"),
        ("dmc", "transition", "0.25", "transition is not a numeric array"),
    ], ids=["dmc_nan", "simulate_nan", "float_size", "string_size", "ragged", "string"])
    def test_malformed_channel_file(self, capsys, tmp_path, mode, field, value, message):
        doc = {**channel_document(noiseless_blind_channel()), field: value}
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))  # a NaN entry is written as the token NaN
        assert run_cli([mode, "--channel", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid channel {path}: {message}")

    def test_runtime_error_exits_1(self, capsys, monkeypatch):
        def fail(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._SUBCOMMANDS, "bounds", (fail, *cli._SUBCOMMANDS["bounds"][1:]))
        assert run_cli(["bounds"]) == 1
        assert capsys.readouterr() == ("", "runtime error: boom\n")

    def test_power_opt_writes_overflowing_intermediates_as_null(self, tmp_path):
        # a/b overflows: the stationary point is unbounded, so it is inapplicable
        out = tmp_path / "out.json"
        assert run_cli(["power-opt", "--a", "5", "--b", "5e-324", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["p2_star"] is None and doc["delta"] is None

    def test_json_refuses_a_non_finite_result(self, tmp_path):
        cfg = cli.load_config("point", None, {"out": str(tmp_path / "out.json")})
        with pytest.raises(DomainError):
            cli.write_json(cfg, {"x": math.nan})
        assert not (tmp_path / "out.json").exists()

    def test_csv_writer_refuses_a_non_finite_cell(self, tmp_path):
        cfg = cli.load_config("sweep-interferer", None, {"out": str(tmp_path / "out.csv")})
        with pytest.raises(DomainError):
            cli.write_csv(cfg, ["p2_max"], [[math.nan]])
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("args", ROUND_TRIPS, ids=[args[0] for args in ROUND_TRIPS])
    def test_echoed_config_reproduces_the_output(self, tmp_path, channel_file, args):
        # the echo without ``mode`` is a config file that every subcommand accepts
        mode, args = args[0], [arg.format(channel=channel_file) for arg in args]
        first, again, cfg = tmp_path / "first", tmp_path / "again", tmp_path / "cfg.json"
        assert run_cli([*args, "--out", str(first)]) == 0
        text = first.read_text()
        if text.startswith("#"):  # a sweep's CSV
            config = json.loads(text.splitlines()[2].removeprefix("# config: "))
        else:
            config = json.loads(text)["config"]
        assert config.pop("mode") == mode and set(config) == CONFIG_KEYS[mode]
        cfg.write_text(json.dumps(config))
        assert run_cli([mode, "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_csv_refuses_a_non_finite_cell(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli(["sweep-interferer", "--p1-max", "1e300", "--start", "1e299",
                        "--stop", "1e300", "--points", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


def test_docs_list_the_parser_subcommands():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    section = cli.__doc__.split("-----------\n", 1)[1].split("\n\n", 1)[0]
    in_docstring = [line.split()[0] for line in section.splitlines() if not line[0].isspace()]
    readme = Path(__file__).resolve().parents[1] / "README.md"
    in_readme = re.findall(r"^\| `([a-z-]+)`", readme.read_text(encoding="utf-8"), re.MULTILINE)
    assert in_docstring == in_readme == list(action.choices)


def test_one_parser_serves_every_call_and_keeps_no_flag(capsys):
    # main parses with one cached parser; each of two calls in a row writes the bytes it
    # writes alone in a fresh process, so a flag of the first does not reach the second
    assert cli.build_parser() is cli.build_parser()
    calls = [["sweep-symmetric", "--p1-max", "3"], ["sweep-symmetric"]]
    src = str(Path(wthi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    alone = [subprocess.run([sys.executable, "-m", "wthi.cli", *args], env=env,
                            capture_output=True, check=True).stdout for args in calls]
    in_turn = []
    for args in calls:
        assert main(args) == 0
        in_turn.append(capsys.readouterr().out.encode())
    assert in_turn == alone and alone[0] != alone[1]


def readme_examples() -> list[list[str]]:
    """The arguments of each ``wthi`` command in README's example block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("Examples:\n\n```sh\n", 1)[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("wthi ")]


def dispatched_simd_features() -> str:
    """The SIMD features numpy dispatches to on this CPU, as NPY_DISABLE_CPU_FEATURES
    takes them."""
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    return " ".join(name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name])


def test_readme_examples_are_byte_identical_across_blas_threads(tmp_path):
    # Each example runs in its own process, under 1 and under 2 BLAS threads, and
    # under 1 thread with numpy's dispatch to every SIMD feature it found on this
    # CPU turned off (NPY_DISABLE_CPU_FEATURES; no such leg when it found none).
    # Stdout and every file written must match the 1-thread run byte for byte,
    # and a failure names the axis that moved.  Only the installed numpy and its
    # OpenBLAS run here; other BLAS builds and CPUs are untested.
    examples = readme_examples()
    assert len(examples) == 7 and sum("--out" in args for args in examples) == 3
    src = str(Path(wthi.__file__).resolve().parents[1])
    one = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    legs = {"BLAS threads": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}}
    dispatched = dispatched_simd_features()
    if dispatched:
        legs["SIMD level"] = {**one, "NPY_DISABLE_CPU_FEATURES": dispatched}
    runs = {}
    for k, (leg, extra) in enumerate({"default": one, **legs}.items()):
        cwd = tmp_path / str(k)
        cwd.mkdir()
        (cwd / "channel.json").write_text(json.dumps(channel_document(trend_channel())))
        env = {**os.environ, **extra,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        stdout = [subprocess.run([sys.executable, "-m", "wthi.cli", *args], cwd=cwd, env=env,
                                 capture_output=True, check=True).stdout for args in examples]
        runs[leg] = (stdout, {path.name: path.read_bytes() for path in cwd.iterdir()})
    default = runs.pop("default")
    assert len(default[1]) == 4 and sum(out != b"" for out in default[0]) == 4
    assert [leg for leg, run in runs.items() if run != default] == []


ORACLE_CALLS = "grid_oracle_detailed(ch, 50, 50) on 200 fleet channels"


def library_calls() -> dict:
    """Outputs of library calls by call, each array as its bytes: the DMC rate, the Sato
    bound, the simulator at the rates of acceptance criterion 9, and ``ORACLE_CALLS``."""
    rate, law, split = achievable_rate(trend_channel(), 21)
    calls = {"achievable_rate(trend_channel(), 21)":
             (rate, law.px1.tobytes(), law.px2.tobytes(), split),
             "dmc_sato_bound(degraded_instance(), 9, 21)":
             dmc_sato_bound(degraded_instance(), 9, 21)}
    for n in (6, 10):
        spec = CodebookSpec(n=n, r1s=0.703, r1d_prime=0.0, r1d_dprime=0.0, r2=0.52,
                            r2_prime=1 / 14, r2_dprime=0.52 - 1 / 14)
        res = simulate(trend_channel(), ProductInput.uniform(2, 2), spec, 0, 400)
        calls[f"simulate(trend_channel(), n={n}, trials=400)"] = (
            res, res.h_bits.tobytes(), res.errors.tobytes())
    rng = np.random.default_rng(0)
    calls[ORACLE_CALLS] = [grid_oracle_detailed(fleet_channel(rng), 50, 50) for _ in range(200)]
    return calls


def test_library_calls_are_bit_identical_across_simd_levels(tmp_path):
    # ``library_calls`` runs in a child process under 1 BLAS thread, at the default
    # SIMD level and with numpy's dispatch to every SIMD feature of this CPU turned off.
    # The DMC rate, the Sato bound and both simulator runs must match bit for bit, and a
    # failure names the call that moved.  The grid oracle rates through numpy's log1p,
    # whose bits follow the SIMD level, so each channel must keep its allocation and
    # match within 1e-14 relative on the rate and 1e-14 on eps_grid.
    features = dispatched_simd_features()
    if not features:
        pytest.skip("numpy dispatches to no SIMD feature on this CPU")
    path = os.pathsep.join([str(Path(wthi.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH", "")])
    code = ("import pickle, sys, test_cli\n"
            "sys.stdout.buffer.write(pickle.dumps(test_cli.library_calls()))")
    default, disabled = (pickle.loads(subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONPATH": path, **extra}).stdout)
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": features}))
    oracle, oracle_disabled = default.pop(ORACLE_CALLS), disabled.pop(ORACLE_CALLS)
    assert len(default) == 4 and [call for call in default if disabled[call] != default[call]] == []
    moved = [k for k, (x, y) in enumerate(zip(oracle, oracle_disabled))
             if x.alloc != y.alloc or not math.isclose(x.rate, y.rate, rel_tol=1e-14)
             or abs(x.eps_grid - y.eps_grid) > 1e-14]
    assert len(oracle) == len(oracle_disabled) == 200 and moved == [], ORACLE_CALLS
