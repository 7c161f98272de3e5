import configparser
import csv
import hashlib
import os
import subprocess
import sys
import re
import textwrap
from pathlib import Path

import pytest

import cusumac
from cusumac import cli, montecarlo
from cusumac.cli import (
    RESULT_COLUMNS,
    TRACE_COLUMNS,
    ConfigError,
    _canned_specs,
    main,
    parse_config,
)


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


BASE = """
[meta]
seed = 4242

[experiment:{name}]
kind = {kind}
{body}
"""


class TestParsing:
    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg = write(tmp_path, BASE.format(name="t", kind="trace",
                                          body="detector = cusum\na = 4.5\nzeta = 3"))
        with pytest.raises(ConfigError, match="unknown key 'zeta'"):
            parse_config(cfg)

    def test_unknown_kind(self, tmp_path):
        cfg = write(tmp_path, BASE.format(name="t", kind="bogus", body="a = 1"))
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config(cfg)

    def test_unknown_section(self, tmp_path):
        cfg = write(tmp_path, "[meta]\nseed = 1\n\n[wat]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(cfg)

    def test_numeric_preconditions_checked_before_running(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="r", kind="rate",
            body="detector = cusum\na = 5\nhorizon = 500\nn_reps = 10"))
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(cfg)

    @pytest.mark.parametrize("bad, key", [("a1_grid = 0.8 -0.5", "a1 grid"),
                                          ("a1_grid = 0.8\nhorizon = 500", "horizon")])
    def test_calibrate_rejects_bad_grid_and_horizon(self, tmp_path, bad, key):
        body = "zeta = 300\nepsilon = 0.8\neps1_grid = 0.5\nn_reps = 200\n" + bad
        cfg = write(tmp_path, BASE.format(name="c", kind="calibrate", body=body))
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("kind, body, key", [
        ("delay_vs_arlfa", "zeta_grid = 1000\na1 = -0.5\neps1 = 0.27", "a1"),
        ("arlfa", "detector = cusum\na = 3.0\ncap = 0", "cap"),
        ("delay", "detector = cusum\na = 3.0\ncap = 0", "cap"),
        ("delay_vs_arlfa", "zeta_grid = 1000\na1 = 0.79\neps1 = 0.27\nepsilon = 7", "epsilon"),
        # Every threshold above a1 = 20 has ARLFA >= e^20, so none calibrates to 1000.
        ("delay_vs_arlfa", "zeta_grid = 1000 5000\na1 = 20\neps1 = 0.27", r"a1 < ln"),
        ("arlfa", "detector = cusum\na = 3.0\nseed = -5", "seed"),
    ], ids=["negative_a1", "arlfa_cap_zero", "delay_cap_zero", "epsilon_above_one",
            "a1_unreachable", "negative_experiment_seed"])
    def test_out_of_range_inputs_rejected_before_running(self, tmp_path, kind, body, key):
        cfg = write(tmp_path, BASE.format(name="x", kind=kind, body=body + "\nn_reps = 200"))
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not list(tmp_path.rglob("*.csv"))

    _TRACE = BASE.format(name="t", kind="trace", body="detector = cusum\na = 2.0")

    @pytest.mark.parametrize("text", [
        _TRACE + "a = 3.0\n",
        _TRACE + "\n[meta]\nthreads = 1\n",
        "horizon = 50\n" + _TRACE,
    ], ids=["duplicate_key", "duplicate_meta", "no_section_header"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, text):
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(f"cannot parse config file {cfg}")):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(b"[meta]\nseed = 1\n\xff\xfe\n")
        with pytest.raises(ConfigError, match=re.escape(f"cannot parse config file {cfg}")):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    _NAMED_TRACE = "\n[experiment:{}]\nkind = trace\ndetector = cusum\na = 2.0\nhorizon = 50\n"
    _CALIBRATE_X = ("\n[experiment:x]\nkind = calibrate\nzeta = 50\nepsilon = 0.5\n"
                    "a1_grid = 0.8\neps1_grid = 0.5\nn_reps = 100\n")

    @pytest.mark.parametrize("sections, match", [
        (_NAMED_TRACE.format("../escaped"), "not a plain file name"),
        (_NAMED_TRACE.format("sub/x"), "not a plain file name"),
        (_NAMED_TRACE.format("a") + _NAMED_TRACE.format(" a"), "another experiment writes a.csv"),
        (_CALIBRATE_X + _NAMED_TRACE.format("x_trace"),
         "another experiment writes x_trace.csv"),
    ], ids=["parent_dir", "sub_dir", "same_name", "calibrate_trace_csv"])
    def test_experiment_names_cannot_escape_out_or_collide(self, tmp_path, sections, match):
        cfg = write(tmp_path, "[meta]\nseed = 4242\n" + sections)
        with pytest.raises(ConfigError, match=match):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert not list(tmp_path.rglob("*.csv"))

    def test_run_applies_the_name_rule(self, tmp_path):
        out = tmp_path / "out"
        spec = cli.ExperimentSpec(name="../outside", kind="trace", a=2.0, horizon=5)
        with pytest.raises(ConfigError, match="not a plain file name"):
            cli.run(spec, out, 1)
        assert not out.exists()
        assert not list(tmp_path.rglob("*.csv"))

    def test_cusum_ac_requires_levels(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="d", kind="delay", body="detector = cusum_ac\na = 4.5\nn_reps = 200"))
        with pytest.raises(ConfigError, match="a1 and eps1"):
            parse_config(cfg)

    def test_missing_seed_is_an_error(self, tmp_path):
        cfg = write(tmp_path, "[experiment:t]\nkind = trace\ndetector = cusum\n"
                              "a = 4.5\nhorizon = 50\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, tmp_path, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        body = "detector = cusum\na = 3.0\nn_reps = 200"
        cfg = write(tmp_path, BASE.format(name="a", kind="arlfa", body=body))
        in_meta = write(tmp_path, BASE.replace("seed = 4242", f"seed = 4242\nthreads = {threads}")
                        .format(name="a", kind="arlfa", body=body), name="meta.ini")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="threads must be at least 1"):
            parse_config(in_meta)
        assert main(["--config", str(in_meta), "--out", str(out)]) == 2
        assert main(["--config", str(cfg), "--out", str(out), "--threads", str(threads)]) == 2
        assert main(["--reproduce", "fig5", "--seed", "1", "--out", str(out),
                     "--threads", str(threads)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text, where", [
        (BASE.format(name="a", kind="arlfa", body="detector = cusum\na = 3.0\nn_reps = 1.5"),
         "[experiment:a] n_reps"),
        (BASE.format(name="s", kind="delay_vs_arlfa",
                     body="zeta_grid = 100 abc\na1 = 0.78\neps1 = 0.63\nn_reps = 200"),
         "[experiment:s] zeta_grid"),
        ("[meta]\nseed = abc\n", "[meta] seed"),
        ("[meta]\nseed = 3\nthreads = two\n", "[meta] threads"),
        (BASE.format(name="x", kind="arlfa", body="detector = cusum\na = inf\nn_reps = 200"),
         "[experiment:x] a: 'inf' is not a finite number"),
        (BASE.format(name="c", kind="calibrate", body="zeta = inf\nepsilon = 0.4\nn_reps = 200"),
         "[experiment:c] zeta: 'inf' is not a finite number"),
        (BASE.format(name="s", kind="delay_vs_arlfa",
                     body="zeta_grid = 1000 inf\na1 = 0.78\neps1 = 0.63\nn_reps = 200"),
         "[experiment:s] zeta_grid: 'inf' is not a finite number"),
        (BASE.format(name="d", kind="delay", body="detector = cusum\na = 3.0\nmu1 = nan"),
         "[experiment:d] mu1: 'nan' is not a finite number"),
    ], ids=["experiment_scalar", "grid_token", "meta_seed", "meta_threads", "infinite_scalar",
            "infinite_zeta", "infinite_grid_token", "nan_scalar"])
    def test_malformed_number_names_its_key(self, tmp_path, text, where):
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_meta_reps_is_unknown(self, tmp_path):
        cfg = write(tmp_path, "[meta]\nseed = 3\nreps = 100\n")
        with pytest.raises(ConfigError, match="unknown key 'reps' in \\[meta\\]"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_empty_experiment_list_exits_zero(self, tmp_path):
        cfg = write(tmp_path, "[meta]\nseed = 3\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert not out.exists()


class TestRuns:
    def test_trace_run_schema(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="fig3_style", kind="trace",
            body="detector = cusum\na = 4.5\nnu = 60\nhorizon = 300"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "fig3_style.csv")
        assert list(rows[0]) == TRACE_COLUMNS
        assert 1 <= len(rows) <= 300
        ks = [int(r["k"]) for r in rows]
        assert ks == list(range(1, len(rows) + 1))
        stopped = [int(r["stopped"]) for r in rows]
        assert all(v == 0 for v in stopped[:-1])

    def test_trace_cusum_ac_emits_levels(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="actrace", kind="trace",
            body="detector = cusum_ac\na = 4.5\na1 = 0.78\neps1 = 0.63\n"
                 "nu = 60\nhorizon = 200"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "actrace.csv")
        levels = {r["level"] for r in rows}
        sents = {r["sent"] for r in rows}
        assert levels <= {"0", "1"} and "0" in sents

    def test_point_estimates_schema(self, tmp_path):
        cfg = write(tmp_path, """
[meta]
seed = 11

[experiment:a]
kind = arlfa
detector = cusum
a = 3.0
n_reps = 200
cap = 10000

[experiment:d]
kind = delay
detector = random_tx
a = 3.0
epsilon = 0.5
n_reps = 200

[experiment:r]
kind = rate
detector = cusum_ac
a = 6.0
a1 = 0.78
eps1 = 0.63
n_reps = 50
horizon = 10000
""")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        arlfa = read_csv(out / "a.csv")
        assert list(arlfa[0]) == RESULT_COLUMNS + ["cap"]
        assert arlfa[0]["metric"] == "arlfa"
        assert float(arlfa[0]["mean"]) > 0
        delay = read_csv(out / "d.csv")
        assert list(delay[0]) == RESULT_COLUMNS
        rate = read_csv(out / "r.csv")
        assert rate[0]["metric"] == "comm_rate"
        assert 0.0 < float(rate[0]["mean"]) <= 1.0

    def test_result_headers_have_unique_columns(self, tmp_path):
        cfg = write(tmp_path, """
[meta]
seed = 12

[experiment:t]
kind = trace
detector = cusum
a = 3.0
horizon = 50

[experiment:a]
kind = arlfa
detector = cusum
a = 2.0
n_reps = 100

[experiment:d]
kind = delay
detector = cusum
a = 2.0
n_reps = 100

[experiment:r]
kind = rate
detector = random_tx
a = 3.0
epsilon = 0.5
n_reps = 10
horizon = 10000
""")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        paths = sorted(out.glob("*.csv"))
        assert [p.name for p in paths] == ["a.csv", "d.csv", "r.csv", "t.csv"]
        for path in paths:
            with open(path, newline="") as fh:
                header = next(csv.reader(fh))
            assert len(header) == len(set(header)), path.name
        with open(out / "r.csv", newline="") as fh:
            assert next(csv.reader(fh)) == RESULT_COLUMNS

    def test_delay_vs_arlfa_rows(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="sweep", kind="delay_vs_arlfa",
            body="zeta_grid = 150 300\na1 = 0.78\neps1 = 0.63\nepsilon = 0.7\n"
                 "n_reps = 200\ntolerance = 0.1"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 12  # six metrics per zeta point
        metrics = {(r["detector"], r["metric"]) for r in rows}
        assert ("cusum_ac", "delay_gap_vs_cusum") in metrics
        assert ("cusum", "arlfa") in metrics

    def test_calibrate_writes_trace(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="cal", kind="calibrate",
            body="zeta = 150\nepsilon = 0.8\na1_grid = 0.78\neps1_grid = 0.63\n"
                 "n_reps = 200\ntolerance = 0.1"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        trace = read_csv(out / "cal_trace.csv")
        assert trace and trace[0]["a1"] == "0.78"
        results = read_csv(out / "cal.csv")
        assert {r["metric"] for r in results} == {
            "arlfa", "delay", "comm_rate", "feedback_ratio", "frac_time_above_a1"}

    def test_manifest_round_trip_bit_identical(self, tmp_path):
        cfg = write(tmp_path, """
[meta]
seed = 77

[experiment:t1]
kind = trace
detector = cusum_ac
a = 3.5
a1 = 0.78
eps1 = 0.63
nu = 40
horizon = 150

[experiment:d1]
kind = delay
detector = cusum
a = 3.0
n_reps = 150
""")
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["--config", str(out1 / "manifest.ini"), "--out", str(out2)]) == 0
        for name in ("t1.csv", "d1.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_failed_run_leaves_a_manifest(self, tmp_path):
        # The second experiment raises at run time: plain CuSum at a = 0.5
        # never survives to the horizon of a conditional rate.
        cfg = write(tmp_path, """
[meta]
seed = 77

[experiment:d1]
kind = delay
detector = cusum
a = 3.0
n_reps = 150

[experiment:r2]
kind = rate
detector = cusum
a = 0.5
mode = conditional
n_reps = 2
""")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert manifest["meta"]["seed"] == "77"
        assert manifest["provenance"]["status"] == "failed"
        assert (out / "d1.csv").exists() and not (out / "r2.csv").exists()
        meta, specs = parse_config(out / "manifest.ini")
        assert meta == {"seed": 77} and [s.name for s in specs] == ["d1", "r2"]

    def test_completed_run_marks_its_manifest(self, tmp_path):
        cfg = write(tmp_path, BASE.format(name="d", kind="delay",
                                          body="detector = cusum\na = 3.0\nn_reps = 150"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert manifest["provenance"]["status"] == "complete"

    def test_worst_history_delay_kind(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="wh", kind="delay",
            body="detector = cusum_ac\na = 4.0\na1 = 0.78\neps1 = 0.63\n"
                 "nu = 10\nworst_history = true\nn_reps = 150"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "wh.csv")
        assert rows[0]["nu"] == "10"
        assert float(rows[0]["mean"]) > 0

    def test_reps_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, BASE.format(
            name="d", kind="delay",
            body="detector = cusum\na = 3.0\nn_reps = 150"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--reps", "250"]) == 0
        rows = read_csv(out / "d.csv")
        assert rows[0]["n_reps"] == "250"


def no_run(*args, **kwargs):
    raise AssertionError("an experiment was run")


class TestCanned:
    def test_canned_specs_match_reported_setups(self):
        fig4 = _canned_specs("fig4", 2000)[0]
        assert fig4.kind == "delay_vs_arlfa" and fig4.m == 3
        assert (fig4.a1, fig4.eps1) == (0.78, 0.63)
        assert fig4.zeta_grid == (2000.0, 5000.0, 10000.0)
        fig5 = _canned_specs("fig5", 2000)[0]
        assert (fig5.a1, fig5.eps1) == (0.79, 0.27)
        assert fig5.epsilon == 0.4
        fig6 = _canned_specs("fig6", 500)[0]
        assert fig6.kind == "delay_vs_rate"
        assert fig6.zeta == 10_000.0
        assert fig6.epsilon_grid == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        assert fig6.n_reps == 500

    def test_reproduce_requires_seed(self, tmp_path):
        assert main(["--reproduce", "fig5", "--out", str(tmp_path)]) == 2

    def test_reproduce_rejects_zero_reps(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_run_all", no_run)
        out = tmp_path / "out"
        assert main(["--reproduce", "fig5", "--seed", "1", "--reps", "0",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_reproduce_checks_the_seed_like_config(self, tmp_path, monkeypatch, seed):
        monkeypatch.setattr(cli, "run", no_run)
        out = tmp_path / "out"
        assert main(["--reproduce", "fig5", "--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()
        with pytest.raises(ConfigError, match="64 bits"):
            cli.reproduce("fig5", out, seed=int(seed))
        assert not out.exists()

    def test_reproduce_manifest_is_a_valid_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: [])
        out = tmp_path / "out"
        assert main(["--reproduce", "fig5", "--seed", "5", "--reps", "100",
                     "--out", str(out)]) == 0
        meta, specs = parse_config(out / "manifest.ini")
        assert meta == {"seed": 5}
        assert specs == _canned_specs("fig5", 100)


# One experiment of each estimator route, small enough to run in seconds.
GOLDEN_CONFIG = """
[meta]
seed = 20261018

[experiment:cusum_arlfa]
kind = arlfa
detector = cusum
a = 3.0
n_reps = 300

[experiment:ac_arlfa]
kind = arlfa
detector = cusum_ac
a = 3.5
a1 = 0.78
eps1 = 0.63
n_reps = 300

[experiment:ac_worst_delay]
kind = delay
detector = cusum_ac
a = 4.0
a1 = 0.78
eps1 = 0.63
nu = 10
worst_history = true
n_reps = 200

[experiment:ac_conditional_rate]
kind = rate
detector = cusum_ac
a = 7.0
a1 = 0.78
eps1 = 0.63
mode = conditional
n_reps = 20

[experiment:sweep_arlfa]
kind = delay_vs_arlfa
zeta_grid = 100 200
a1 = 0.78
eps1 = 0.63
epsilon = 0.7
n_reps = 200
tolerance = 0.2

[experiment:sweep_rate]
kind = delay_vs_rate
m = 3
zeta = 200
epsilon_grid = 0.4
n_reps = 200
tolerance = 0.2

[experiment:search]
kind = calibrate
zeta = 200
epsilon = 0.8
a1_grid = 0.78
eps1_grid = 0.63 0.9
n_reps = 200
tolerance = 0.2
"""

# sha256 of every result CSV of GOLDEN_CONFIG.  The worst-history delay and
# the conditional rate both resample (about 65% and 33% of their
# replications are unusable), and eps1 = 0.9 fails the search's rate screen.
# sweep_rate.csv (M = 3) was regenerated when the engine's observation blocks
# grew from one chunk, which reorders sensor-major draws; its thresholds and
# arlfa rows did not move.  search_trace.csv was regenerated when the search
# came to measure each candidate's rate once, on the admissibility batch:
# only the screened eps1 = 0.9 row moved (rate 0.923875 -> 0.924921).
# sweep_arlfa.csv, sweep_rate.csv, search.csv and search_trace.csv were
# regenerated when the ARLFA curve came to draw one stream per batch of legs,
# which moves every calibrated threshold; sweep_arlfa.csv's comm_rate is now
# measured once, so its second row repeats the first, which did not move.
GOLDEN_DIGESTS = {
    "ac_arlfa.csv": "fbf260cb7a5897968b0a2a3ccd01e0e227a711c238efe3d65daf783ee77b6bba",
    "ac_conditional_rate.csv":
        "815431b541c124194b9f7ee0699e44d62a0d2202c96159985bfae802006a2e58",
    "ac_worst_delay.csv": "ca4fe7e5f31542d633241c5da1b5e638d0b48e45f8fcf560a59e2901334f80ee",
    "cusum_arlfa.csv": "3e5d42f7c088558873382bdec3dec922762a2bd1ba6a09a2a9532d1b588478a2",
    "search.csv": "6ce4523f0c396f83ef492f767b19a02a76411357b24152782a3386f46b4f1b39",
    "search_trace.csv": "d28e9c447d8638f1c1df81483bb1648d722f274653142b198150f5254a6fa328",
    "sweep_arlfa.csv": "4f1808461fc2631451ea562efee96ac194c8d973e91122187a5367f44b05a2f9",
    "sweep_rate.csv": "79d95ee43b965b7683b7d704d9357a29b48193e669d5c5c953a23fe026f25a98",
}


def test_result_csvs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, GOLDEN_CONFIG)), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))}
    assert digests == GOLDEN_DIGESTS
    trace = read_csv(out / "search_trace.csv")
    assert [r["note"] for r in trace] == ["", "rate screen failed"]


SEARCH_CONFIG = """
[experiment:search]
kind = calibrate
m = 3
zeta = 1000
epsilon = 0.4
a1_grid = 0.8 1.2
eps1_grid = 0.27
n_reps = 200
tolerance = 0.2
"""


def test_screen_and_admissibility_share_one_rate(tmp_path):
    # At this seed a 20-replication screen read (0.8, 0.27) at 0.4056 +- 0.0015
    # and dropped it, though the 100-replication rate (0.4008 +- 0.0007) makes
    # it admissible and it has the smaller delay.
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, SEARCH_CONFIG)), "--out", str(out),
                 "--seed", "2715458577585998325"]) == 0
    trace = {(float(r["a1"]), float(r["eps1"])): r for r in read_csv(out / "search_trace.csv")}
    chosen = trace[(0.8, 0.27)]
    assert chosen["note"] == "" and chosen["admissible"] == "1"
    assert float(chosen["rate_mean"]) <= 0.4 + 3 * float(chosen["rate_se"])
    rows = read_csv(out / "search.csv")
    assert {(float(r["a1"]), float(r["eps1"])) for r in rows} == {(0.8, 0.27)}
    assert {float(r["a"]) for r in rows} == {float(chosen["a"])}


# The routes GOLDEN_CONFIG leaves out: a CuSum-AC trace (which both sends and
# censors at both levels) and the random-transmission ARLFA.
GOLDEN_CONFIG_2 = """
[meta]
seed = 20261018

[experiment:ac_trace]
kind = trace
detector = cusum_ac
a = 4.5
a1 = 0.78
eps1 = 0.63
nu = 60
horizon = 300

[experiment:rtx_arlfa]
kind = arlfa
detector = random_tx
a = 3.0
epsilon = 0.5
n_reps = 300
"""

GOLDEN_DIGESTS_2 = {
    "ac_trace.csv": "3dd1b362a1fa684af81426f306347e8754294107ddc7c9daac4c0d496e47904e",
    "rtx_arlfa.csv": "a600a61b907b65fd1fe2ef4c2b1a7d9e9baf7dca7cd2347aa59c4ab5ec07190f",
}


def test_trace_and_random_tx_csvs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, GOLDEN_CONFIG_2)), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))}
    assert digests == GOLDEN_DIGESTS_2


# Runs in a fresh interpreter where any import of scipy fails.
NO_SCIPY_RUN = textwrap.dedent("""
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, NoScipy())
    import cusumac.cli as cli

    rc = cli.main(["--config", sys.argv[1], "--out", sys.argv[2]])
    leaked = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(rc, leaked)
    sys.exit(rc if not leaked else 3)
""")


def test_gaussian_cusum_ac_run_needs_no_scipy(tmp_path):
    cfg = write(tmp_path, BASE.format(
        name="small", kind="delay_vs_arlfa",
        body="m = 3\nzeta_grid = 50\na1 = 0.79\neps1 = 0.27\nepsilon = 0.4\n"
             "n_reps = 100\ntolerance = 0.2"))
    out = tmp_path / "out"
    src = str(Path(cusumac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(cfg), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
    rows = read_csv(out / "small.csv")
    assert {r["detector"] for r in rows} == {"cusum", "cusum_ac"}
