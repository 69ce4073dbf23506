import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import vlcrelay
from vlcrelay import _trace, channel, cli, clusters, sim
from vlcrelay.node import LinkConfig, Mode

import oracles


DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return cli.main(list(argv))


def test_simulate_beacon_clean(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run_cli("simulate", "--baud", "230000", "--mode", "beacon",
                 "--per", "0", "--n", "100", "--out", str(out))
    assert rc == 0
    text = capsys.readouterr().out
    assert "n_relayed=100" in text
    assert "min_latency_us=595.02" in text
    trace = sim.read_trace_csv(out)
    assert trace.n_relayed == 100


def test_simulate_rejects_bad_per(tmp_path, capsys):
    rc = run_cli("simulate", "--per", "1.1", "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "per" in capsys.readouterr().err


def test_simulate_wide_gap_broadcast_per_is_the_relay_loss(tmp_path, capsys):
    # a 1 ms gap leaves the relay time to finish before the next packet, so
    # every received packet is relayed and per= is the lost fraction
    assert run_cli("simulate", "--per", "0.1", "--ipd-us", "1000", "--n", "100000",
                   "--seed", "1", "--out", str(tmp_path / "t.vlct")) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["n_blocked"] == "0"
    assert lines["per"] == lines["channel_per"]
    assert float(lines["per"]) == pytest.approx(0.1, abs=0.003)


def test_simulate_refuses_tilted_without_distance(tmp_path, capsys):
    # the tilted-lamp table is read only to turn --distance-m into a PER
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tilted = yes\nper = 0.1\n")
    for source in (["--tilted", "--per", "0.1"], ["--config", str(cfg)], ["--tilted"]):
        rc = run_cli("simulate", *source, "--n", "10", "--out", str(tmp_path / "t.csv"))
        assert rc == 2
        assert "--tilted needs --distance-m" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--per", "0.2", "--n", "500", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sa, sb = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(*args, "--out", str(a), "--summary", str(sa)) == 0
    assert run_cli(*args, "--out", str(b), "--summary", str(sb)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()


def test_simulate_multi_seed_jobs_deterministic(tmp_path, capsys):
    out1 = tmp_path / "one" / "t.csv"
    out2 = tmp_path / "two" / "t.csv"
    out1.parent.mkdir()
    out2.parent.mkdir()
    # seeds given out of order, fanned out over two workers
    rc = run_cli("simulate", "--per", "0.1", "--n", "400", "--seed", "5",
                 "--seed", "1", "--jobs", "2", "--out", str(out1),
                 "--summary", str(tmp_path / "s1.txt"))
    assert rc == 0
    rc = run_cli("simulate", "--per", "0.1", "--n", "400", "--seed", "1",
                 "--seed", "5", "--jobs", "1", "--out", str(out2),
                 "--summary", str(tmp_path / "s2.txt"))
    assert rc == 0
    # merged summaries sort by seed regardless of order or fan-out
    assert (tmp_path / "s1.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()
    for seed in (1, 5):
        pa = out1.with_name(f"t_seed{seed}.csv")
        pb = out2.with_name(f"t_seed{seed}.csv")
        assert pa.read_bytes() == pb.read_bytes()


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = beacon\nper = 0.0\nn = 50\nseed = 3\n")
    out = tmp_path / "t.csv"
    rc = run_cli("simulate", "--config", str(cfg), "--n", "20", "--out", str(out))
    assert rc == 0
    trace = sim.read_trace_csv(out)
    assert trace.n_tx == 20  # flag wins over file
    assert trace.config.mode is Mode.BEACON
    assert trace.seed == 3


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # a key must spell a simulate flag in full: no prefix of --baud, and
    # neither --help (which would print usage and exit 0) nor --config
    for key in ("frobnicate", "bau", "help", "config"):
        cfg.write_text(f"{key} = 1\n")
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"))
        assert rc == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_config_file_keys_act_as_their_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds = 1,2\ntilted = yes\ndistance_m = 50\nn = 2000\n")
    for tag, source in (("file", ["--config", str(cfg)]),
                        ("flags", ["--seed", "1", "--seed", "2", "--tilted",
                                   "--distance-m", "50", "--n", "2000"])):
        (tmp_path / tag).mkdir()
        assert run_cli("simulate", *source, "--out", str(tmp_path / tag / "t.csv"),
                       "--summary", str(tmp_path / tag / "s.txt")) == 0
    for name in ("t_seed1.csv", "t_seed2.csv", "s.txt"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


def _write_table_regime_trace(path, n=200000, seed=3):
    config = LinkConfig(baud=230000, mode=Mode.BEACON)
    process = channel.NbCluster.for_law(0.1691, 0.0638)
    sim.write_trace_csv(sim.run(config, process, n, seed), path)


def test_analyze_table_regime_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    _write_table_regime_trace(trace_path)
    rc = run_cli("analyze", str(trace_path),
                 "--clusters-out", str(tmp_path / "c.csv"),
                 "--report-out", str(tmp_path / "r.txt"))
    assert rc == 0
    report = (tmp_path / "r.txt").read_text()
    assert "best=negbinomial" in report
    quantiles = {}
    for line in report.splitlines():
        if line.startswith("model_quantile_"):
            key, _, value = line.partition("=")
            quantiles[float(key.removeprefix("model_quantile_"))] = int(value)
    for target, expect in zip((0.9, 0.95, 0.99, 0.999), (8, 14, 31, 59)):
        assert abs(quantiles[target] - expect) <= 1


def test_analyze_rerun_is_byte_identical(tmp_path):
    trace_path = tmp_path / "t.csv"
    _write_table_regime_trace(trace_path, n=20000)
    outs = []
    for tag in ("a", "b"):
        rc = run_cli("analyze", str(trace_path),
                     "--clusters-out", str(tmp_path / f"c{tag}.csv"),
                     "--report-out", str(tmp_path / f"r{tag}.txt"))
        assert rc == 0
        outs.append(((tmp_path / f"c{tag}.csv").read_bytes(),
                     (tmp_path / f"r{tag}.txt").read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("spec, n", [
    ("nb-cluster:r=0.1691,p=0.0638,target_per=0.3", 20000),
    ("iid-packet:p=1.0", 500),  # one run: the k = 0 row at count 0 and the run's
    ("iid-packet:p=0.0", 500),  # no run: the k = 0 row alone
], ids=["nb-anchor", "all-lost", "none-lost"])
def test_analyze_clusters_csv_has_a_row_per_seen_run_length(tmp_path, spec, n):
    trace = sim.run(LinkConfig(mode=Mode.BEACON), channel.process_from_spec(spec), n, 7)
    sim.write_trace(trace, tmp_path / "t.vlct")
    run_cli("analyze", str(tmp_path / "t.vlct"), "--clusters-out", str(tmp_path / "c.csv"),
            "--report-out", str(tmp_path / "r.txt"))
    header, *rows = (tmp_path / "c.csv").read_text().splitlines()
    assert header == "k,count,pmf,cdf"
    hist = oracles.window_hist(trace.received.tolist())
    n_windows = sum(hist)
    cdf = np.cumsum(np.array(hist) / n_windows)
    ks = [int(row.split(",")[0]) for row in rows]
    assert ks == [k for k, count in enumerate(hist) if k == 0 or count]
    assert rows == [f"{k},{hist[k]},{hist[k] / n_windows!r},{float(cdf[k])!r}" for k in ks]


def test_analyze_loss_free_trace_warns(tmp_path, capsys):
    trace_path = tmp_path / "clean.csv"
    config = LinkConfig(mode=Mode.BEACON)
    sim.write_trace_csv(sim.run(config, channel.IidPacket(0.0), 200, 1), trace_path)
    rc = run_cli("analyze", str(trace_path),
                 "--clusters-out", str(tmp_path / "c.csv"),
                 "--report-out", str(tmp_path / "r.txt"))
    assert rc == 4
    report = (tmp_path / "r.txt").read_text()
    assert "warning=" in report
    assert "empirical_quantile_0.999=0" in report


def test_analyze_all_lost_trace_fits_a_finite_negative_binomial(tmp_path):
    # one run of 10^5: the NB fit's r rises to its 1e8 bound, where every
    # log-gamma argument is still finite and positive
    trace, report = tmp_path / "t.vlct", tmp_path / "r.txt"
    assert run_cli("simulate", "--per", "1.0", "--n", "100000", "--out", str(trace)) == 0
    assert run_cli("analyze", str(trace), "--clusters-out", str(tmp_path / "c.csv"),
                   "--report-out", str(report)) == 0
    lines = dict(line.split("=", 1) for line in report.read_text().splitlines())
    r, p = map(float, re.fullmatch(r"negbinomial\(r=(\S+), p=(\S+)\) max_cdf_error=\S+",
                                   lines["fit_negbinomial"]).groups())
    assert math.isfinite(r) and r > 1e7 and 0.0 < p < 1.0


def test_analyze_malformed_row_names_line(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    config = LinkConfig(mode=Mode.BEACON)
    sim.write_trace_csv(sim.run(config, channel.IidPacket(0.0), 3, 1), trace_path)
    lines = trace_path.read_text().splitlines()
    lines[-1] = "2,oops,1,1,595.0"
    trace_path.write_text("\n".join(lines) + "\n")
    rc = run_cli("analyze", str(trace_path))
    assert rc == 3
    assert f":{len(lines)}:" in run_err(capsys)


def run_err(capsys):
    return capsys.readouterr().err


@pytest.mark.parametrize("before_columns, line, message", [
    (True, "# seed=999", "expected a new '# key=value' line, got '# seed=999'"),
    (False, "# process=iid-packet:p=0.9", "after the column header"),
])
def test_analyze_rejects_csv_header_line_out_of_place(tmp_path, capsys, before_columns,
                                                      line, message):
    # a repeated key before the column line, or any '#' line among the rows
    trace_path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(LinkConfig(), channel.IidPacket(0.3), 1000, 1), trace_path)
    lines = trace_path.read_text().splitlines()
    at = lines.index("seq,tx_start_us,received,relayed,latency_us")
    at += 0 if before_columns else 501  # after row 500
    lines.insert(at, line)
    trace_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sim.TraceFormatError, match=message):
        sim.read_trace(trace_path)
    rc = run_cli("analyze", str(trace_path), "--clusters-out", str(tmp_path / "c.csv"),
                 "--report-out", str(tmp_path / "r.txt"))
    assert rc == 3
    assert f":{at + 1}: " in run_err(capsys)
    assert not (tmp_path / "c.csv").exists()


def test_sal_bundled_matches_published_column(tmp_path, capsys):
    out = tmp_path / "sal.csv"
    rc = run_cli("sal", "--out", str(out))
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_per = {(float(r[0]), float(r[1])): int(r[2]) for r in rows}
    column = [by_per[(per, 0.999)] for per in (0.3, 0.1, 0.05, 0.003, 0.001, 0.0006)]
    assert column == [59, 13, 8, 2, 1, 1]
    # latency column carries microseconds; worst row sits at ~17 ms
    assert any(abs(float(r[3]) - 17012.4) < 1.0 for r in rows)


def test_sal_single_row_table_constant(tmp_path):
    models = tmp_path / "m.csv"
    models.write_text("per,family,param1,param2\n0.3,negbinomial,0.1691,0.0638\n")
    out = tmp_path / "sal.csv"
    rc = run_cli("sal", "--models", str(models), "--per-grid", "0.3,0.3,0.3",
                 "--targets", "0.999", "--out", str(out))
    assert rc == 0
    packets = [int(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert packets == [59, 59, 59]


def test_sal_model_quantile_past_the_run_cap_exits_2(tmp_path, capsys):
    models = tmp_path / "m.csv"
    models.write_text("per,family,param1,param2\n0.3,negbinomial,1,4e-7\n")
    out = tmp_path / "sal.csv"
    start = time.perf_counter()
    rc = run_cli("sal", "--models", str(models), "--targets", "0.9,0.99", "--out", str(out))
    assert time.perf_counter() - start < 3.0
    assert rc == 2
    assert "beyond 10000000" in run_err(capsys)
    assert not out.exists()


def test_sal_grid_monotone(tmp_path):
    out = tmp_path / "sal.csv"
    grid = ",".join(str(p) for p in np.logspace(np.log10(6e-4), np.log10(0.3), 40))
    rc = run_cli("sal", "--per-grid", grid, "--targets", "0.99", "--out", str(out))
    assert rc == 0
    packets = [int(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert all(a <= b for a, b in zip(packets, packets[1:]))


def test_sal_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sal", "--out", str(a)) == 0
    assert run_cli("sal", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_safety_bundled_scenarios(tmp_path, capsys):
    out = tmp_path / "safety.csv"
    rc = run_cli("safety", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    by_speed = {float(r["v_kmh"]): r for r in rows}
    assert float(by_speed[90.0]["stop_vlc_m"]) == pytest.approx(45.58, abs=0.01)
    assert float(by_speed[90.0]["stop_rf_m"]) == pytest.approx(48.05, abs=0.01)
    assert float(by_speed[90.0]["stop_human_m"]) == pytest.approx(79.80, abs=0.01)
    for r in rows:
        assert (float(r["stop_vlc_m"]) < float(r["stop_rf_m"])
                < float(r["stop_human_m"]))


def test_safety_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("safety", "--out", str(a)) == 0
    assert run_cli("safety", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_safety_empty_scenarios(tmp_path, capsys):
    scenarios = tmp_path / "empty.csv"
    scenarios.write_text("v_kmh,distance_m,per\n")
    rc = run_cli("safety", str(scenarios), "--out", str(tmp_path / "s.csv"))
    assert rc == 2


GOOD_ROWS = "0.3,poisson,0.2,\n0.5,poisson,0.4,\n"
SAL_AT_0_4 = ["sal", "--per-grid", "0.4", "--models"]
SAL_AT_0_05 = ["sal", "--per-grid", "0.05", "--models"]
SAL_AT_0_3 = ["sal", "--per-grid", "0.3", "--models"]
INGEST_AT_15 = ["ingest-per-table", "--distance-m", "15", "--baud", "230000"]
# model-table rows whose PER is outside (0, 1], each on line 2
BAD_PER_ROWS = [
    ("0,poisson,0.2,\n0.3,poisson,0.4,\n", SAL_AT_0_05),
    ("-0.1,poisson,0.2,\n0.3,poisson,0.4,\n", SAL_AT_0_05),
    (f"1.5,poisson,0.2,\n{GOOD_ROWS}", SAL_AT_0_4),
    (f"nan,poisson,0.2,\n{GOOD_ROWS}", SAL_AT_0_4),
]
BAD_PER_IDS = ["models-per-zero", "models-per-negative", "models-per-above-1", "models-per-nan"]


@pytest.mark.parametrize("name, text, argv", [
    ("m.csv", "per,family,param1,param2\n0.1,poisson\n", ["sal", "--models"]),
    ("m.csv", "per,family,param1,param2\n0.1,poisson,0.2,,9\n", ["sal", "--models"]),
    ("m.csv", "per,family,param1,param2\n0.1,poisson,inf,\n", ["sal", "--models"]),
    ("m.csv", "per,family,param1,param2\n0.1,negbinomial,-1,0.5\n0.3,negbinomial,0.2,0.1\n",
     ["sal", "--per-grid", "0.2", "--models"]),
    ("m.csv", "per,family,param1,param2\n0.1,poisson,0,\n0.3,poisson,0.2,\n",
     ["sal", "--per-grid", "0.2", "--models"]),
    # rows the lookup never reaches (0.4 lies between the good rows)
    ("m.csv", f"per,family,param1,param2\n0.1,poisson,0.2,0.5\n{GOOD_ROWS}", SAL_AT_0_4),
    ("m.csv", f"per,family,param1,param2\n0.1,negbinomial,0.2,\n{GOOD_ROWS}", SAL_AT_0_4),
    ("m.csv", f"per,family,param1,param2\n0.1,binomial,2.5,0.1\n{GOOD_ROWS}", SAL_AT_0_4),
    ("m.csv", f"per,family,param1,param2\n0.1,binomial,0.5,0.1\n{GOOD_ROWS}", SAL_AT_0_4),
    ("m.csv", f"per,family,param1,param2\n0.1,binomial,2,1.5\n{GOOD_ROWS}", SAL_AT_0_4),
    ("m.csv", f"per,family,param1,param2\n0.1,negbinomial,0.2,1.5\n{GOOD_ROWS}", SAL_AT_0_4),
    # laws whose mass lies far past the run cap, with r and n past lgamma's range
    ("m.csv", "per,family,param1,param2\n0.3,negbinomial,1e306,0.5\n", SAL_AT_0_3),
    ("m.csv", "per,family,param1,param2\n0.3,binomial,1e306,0.5\n", SAL_AT_0_3),
    ("p.csv", "distance_m,baud,per\n10,230000,0.1,99\n", ["ingest-per-table"]),
    ("s.csv", "v_kmh,distance_m,per\n50,12,0.5\n", ["safety"]),  # above the model span
    ("s.csv", "v_kmh,distance_m,per\n50,12,0.01\n", ["safety", "--target", "1.5"]),
    ("s.csv", "v_kmh,distance_m,per\n50,12,nan\n", ["safety"]),
    ("s.csv", "v_kmh,distance_m,per\nnan,12,1e-5\n", ["safety"]),
    ("s.csv", "v_kmh,distance_m,per\n50,nan,1e-5\n", ["safety"]),
    ("s.csv", "v_kmh,distance_m,per\n50,12,-1\n", ["safety"]),
    *(("m.csv", f"per,family,param1,param2\n{rows}", argv) for rows, argv in BAD_PER_ROWS),
    ("p.csv", "distance_m,baud,per\n10,inf,0.1\n", ["ingest-per-table"]),
    ("p.csv", "distance_m,baud,per\n10,230000.7,0.1\n", ["ingest-per-table"]),
    ("p.csv", "distance_m,baud,per\n10,-5,0.1\n", ["ingest-per-table"]),
    ("p.csv", "distance_m,baud,per\n10,230000,nan\n20,230000,1e-2\n", INGEST_AT_15),
    ("p.csv", "distance_m,baud,per\nnan,230000,1e-4\n20,230000,1e-2\n", INGEST_AT_15),
], ids=["models-short-row", "models-extra-field", "models-infinite-lambda",
        "models-negative-r", "models-zero-lambda", "models-poisson-two-params",
        "models-nb-one-param", "models-binomial-fractional-n", "models-binomial-n-below-1",
        "models-binomial-p-above-1", "models-nb-p-above-1",
        "models-nb-huge-r", "models-binomial-huge-n",
        "per-table-extra-field", "scenario-per-above-models", "safety-target-above-1", "scenario-per-nan",
        "scenario-speed-nan", "scenario-distance-nan", "scenario-per-negative",
        *BAD_PER_IDS, "per-table-baud-inf", "per-table-baud-fractional",
        "per-table-baud-negative", "per-table-per-nan", "per-table-distance-nan"])
def test_malformed_table_input_exits_2(tmp_path, capsys, name, text, argv):
    (tmp_path / name).write_text(text)
    out = tmp_path / "out.csv"
    assert run_cli(*argv, str(tmp_path / name), "--out", str(out)) == 2
    assert "error:" in run_err(capsys)
    assert not out.exists()


@pytest.mark.parametrize("rows, argv", BAD_PER_ROWS, ids=BAD_PER_IDS)
def test_model_table_per_outside_0_1_names_its_line(tmp_path, capsys, rows, argv):
    path = tmp_path / "m.csv"
    path.write_text(f"per,family,param1,param2\n{rows}")
    assert run_cli(*argv, str(path)) == 2
    assert f"error: {path}:2: bad row: per must be in (0, 1]" in run_err(capsys)


def test_ingest_per_table(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("distance_m,baud,per\n10,230000,1e-4\n20,230000,1e-2\n")
    out = tmp_path / "norm.csv"
    rc = run_cli("ingest-per-table", str(src), "--out", str(out),
                 "--distance-m", "15", "--baud", "230000")
    assert rc == 0
    text = capsys.readouterr().out
    assert "rows=2" in text
    assert "per=0.001" in text
    assert out.exists()


def test_ingest_per_table_distance_without_baud_writes_nothing(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("distance_m,baud,per\n10,230000,1e-4\n20,230000,1e-2\n")
    out = tmp_path / "norm.csv"
    assert run_cli("ingest-per-table", str(src), "--out", str(out), "--distance-m", "15") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--baud is required" in captured.err
    assert not out.exists()


def test_ingest_per_table_rejects_duplicates(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("distance_m,baud,per\n10,230000,1e-4\n10,230000,1e-2\n")
    assert run_cli("ingest-per-table", str(src)) == 2


def test_missing_trace_is_io_error(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "nope.csv")) == 3
    (tmp_path / "binary.csv").write_bytes(b"seq,\xd0\xff\n")  # not UTF-8 text
    assert run_cli("analyze", str(tmp_path / "binary.csv")) == 3


@pytest.mark.parametrize("baud", [19000, 57000, 115000, 230000])
@pytest.mark.parametrize("mode", ["broadcast", "beacon"])
def test_sweep_matrix_simulate_then_analyze(tmp_path, baud, mode):
    # full simulate -> analyze round trip across the sweep matrix
    for per in (0.3, 0.1, 0.05, 0.01, 0.003):
        out = tmp_path / f"t_{baud}_{mode}_{per}.csv"
        rc = run_cli("simulate", "--baud", str(baud), "--mode", mode,
                     "--per", str(per), "--n", "10000", "--seed", "1",
                     "--out", str(out))
        assert rc == 0
        rc = run_cli("analyze", str(out),
                     "--clusters-out", str(tmp_path / "c.csv"),
                     "--report-out", str(tmp_path / "r.txt"))
        assert rc == 0


def test_default_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VLCRELAY_OUT", str(tmp_path / "outdir"))
    rc = run_cli("simulate", "--per", "0", "--n", "10")
    assert rc == 0
    assert (tmp_path / "outdir" / "trace.vlct").exists()


@pytest.mark.parametrize("spec", ["iid-packet:p=0.1,extra=5", "iid-packet:p=abc",
                                  "iid-packet:p=0.1,p=0.2"])
def test_simulate_rejects_bad_process_spec(tmp_path, capsys, spec):
    rc = run_cli("simulate", "--process", spec, "--n", "10",
                 "--out", str(tmp_path / "t.csv"))
    assert rc == 2
    assert "error:" in run_err(capsys)
    assert not (tmp_path / "t.csv").exists()


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    rc = run_cli("simulate", "--per", "0.1", "--n", "10", "--seed", "-1",
                 "--out", str(tmp_path / "t.csv"))
    assert rc == 2
    assert "seed must be >= 0" in run_err(capsys)
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_repeated_seed(tmp_path, capsys):
    rc = run_cli("simulate", "--per", "0.1", "--n", "10", "--seed", "1",
                 "--seed", "1", "--out", str(tmp_path / "t.csv"))
    assert rc == 2
    assert "seed" in run_err(capsys)
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_dead_time_beyond_period(tmp_path, capsys):
    rc = run_cli("simulate", "--per", "0", "--t-proc-us", "300", "--n", "10",
                 "--out", str(tmp_path / "t.csv"))
    assert rc == 2
    assert "t_proc_s + guard_s" in run_err(capsys)


@pytest.mark.parametrize("flags", [
    ["--ipd-us", "nan"], ["--t-proc-us", "nan"], ["--guard-us", "nan"],
    ["--ipd-us", "inf"], ["--mode", "beacon", "--beacon-interval-us", "inf"],
    ["--mode", "beacon", "--beacon-interval-us", "nan"],
])
def test_simulate_rejects_non_finite_times(tmp_path, capsys, flags):
    rc = run_cli("simulate", *flags, "--n", "10", "--out", str(tmp_path / "t.csv"))
    assert rc == 2
    assert "must be finite" in run_err(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("baud", ["0", "-5"])
def test_safety_rejects_bad_baud(tmp_path, capsys, baud):
    rc = run_cli("safety", "--baud", baud, "--out", str(tmp_path / "s.csv"))
    assert rc == 2
    assert "baud must be positive" in run_err(capsys)


@pytest.mark.parametrize("flags", [
    ["--target", "1.5"], ["--target", "nan"], ["--mu", "nan"], ["--vlc-reaction-ms", "nan"],
    ["--mu", "inf"], ["--g", "inf"], ["--vlc-reaction-ms", "inf"],
])
def test_safety_rejects_nan_and_out_of_range_flags(tmp_path, capsys, flags):
    # the target is checked where each scenario's quantile is taken
    rc = run_cli("safety", *flags, "--out", str(tmp_path / "s.csv"))
    assert rc == 2
    assert "error:" in run_err(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--baud", "0"], ["--ipd-us", "-5"], ["--ipd-us", "nan"]])
def test_sal_rejects_bad_timing(tmp_path, capsys, flags):
    assert run_cli("sal", *flags, "--out", str(tmp_path / "sal.csv")) == 2
    assert "error:" in run_err(capsys)


@pytest.mark.parametrize("grid", ["nan", "0.01,nan", ",", "-1", "0.5"])
def test_sal_rejects_nan_per_grid(tmp_path, capsys, grid):
    # below the span is the lowest row's law, but not below 0
    assert run_cli("sal", "--per-grid", grid, "--out", str(tmp_path / "sal.csv")) == 2
    message = ("per-grid: expected" if grid == ","
               else f"per {float(grid.split(',')[-1])} outside model table span [0.0, 0.3]")
    assert message in run_err(capsys)
    assert not (tmp_path / "sal.csv").exists()


def test_sal_takes_the_lowest_rows_law_below_the_span(tmp_path):
    # PER 0 and 5e-4 lie below the bundled span [6e-4, 0.3] and get its
    # lowest row's quantiles, Poisson(0.0023)'s [0, 0, 0, 1]
    out = tmp_path / "sal.csv"
    assert run_cli("sal", "--per-grid", "0,5e-4,6e-4", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(per, packets) for per, _, packets, _ in rows] == [
        (per, packets) for per in ("0.0", "0.0005", "0.0006") for packets in "0001"]
    assert len({tuple(row[1:]) for row in rows}) == 4
    latencies = [float(row[3]) for row in rows[:4]]
    assert latencies == pytest.approx([595.02, 595.02, 595.02, 873.28], abs=0.01)


def test_sal_of_a_binomial_whose_one_minus_p_rounds_to_one(tmp_path):
    # binomial(10^12, 1e-17) loses a packet with probability 1 - e^(-1e-5),
    # so its 0.999999 quantile is 1 packet, not the 0 a pmf(0) of 1 gave
    models = tmp_path / "models.csv"
    models.write_text("per,family,param1,param2\n0.3,binomial,1e12,1e-17\n")
    out = tmp_path / "sal.csv"
    assert run_cli("sal", "--models", str(models), "--targets", "0.999999",
                   "--out", str(out)) == 0
    assert out.read_text().splitlines()[1] == "0.3,0.999999,1,873.2826086956521"


@pytest.mark.parametrize("command, flag", [
    ("sal", "--targets"), ("sal", "--per-grid"), ("analyze", "--targets"),
])
def test_empty_list_flag_exits_2(tmp_path, capsys, command, flag):
    # an empty value is a list of no numbers, not the flag left out
    trace = tmp_path / "t.vlct"
    assert run_cli("simulate", "--per", "0.2", "--n", "200", "--out", str(trace)) == 0
    args = [str(trace), "--clusters-out", str(tmp_path / "c.csv"),
            "--report-out", str(tmp_path / "r.txt")] if command == "analyze" else [
        "--out", str(tmp_path / "sal.csv")]
    capsys.readouterr()
    assert run_cli(command, *args, flag, "") == 2
    assert f"{flag.removeprefix('--')}: expected comma-separated numbers" in run_err(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.vlct"]


def test_analyze_rejects_hand_edited_relayed_bit(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    assert run_cli("simulate", "--per", "0.2", "--n", "200", "--seed", "3",
                   "--out", str(trace_path)) == 0
    lines = trace_path.read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.endswith(",1,1,595.0217391304348"))
    lines[at] = lines[at].replace(",1,1,595.0217391304348", ",1,0,")
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = run_cli("analyze", str(trace_path), "--clusters-out", str(tmp_path / "c.csv"),
                 "--report-out", str(tmp_path / "r.txt"))
    assert rc == 3
    assert "relayed disagrees with the relay rule" in run_err(capsys)


# sha256 of CLI outputs recorded before the CLI's error handling, config
# merge and table reading were consolidated; report.txt without its
# trace= line, which holds the path.  The outputs of the nb-cluster trace
# (summary, clusters, report) were re-recorded for the block stream
# (rng=numpy-pcg64/2); sal.csv and safety.csv never read it.  summary.txt
# was re-recorded when it gained channel_per= and mean_latency_us= became
# the exact mean of the relayed packets' runs, rounded once, and again when
# it lost ber_upper=; report.txt when each fit_ line printed its law's
# parameters by repr, so that they read back, and again, for its
# fit_negbinomial= line alone, when the NB fit's likelihood became an fsum
# and once more when its log-gamma became math.lgamma.
# clusters.csv was re-recorded when it dropped the run lengths never seen:
# its rows are the old file's rows of non-zero count and the k = 0 row.
# The digests are a sha256sum file, which CI also checks without pytest
GOLDEN_CLI_SHA256 = dict(line.split()[::-1] for line in
                         (DATA / "golden_cli.sha256").read_text().splitlines())
# the golden chain's trace, in the binary format
GOLDEN_TRACE = DATA / "golden_nb_cluster.vlct"


def golden_cli_digests(tmp_path: Path) -> dict[str, str]:
    """The sha256 of each output of the golden chain, run in ``tmp_path``."""
    out = {name: tmp_path / name for name in GOLDEN_CLI_SHA256}
    trace = tmp_path / "t.csv"
    assert run_cli("simulate", "--process", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3",
                   "--n", "20000", "--seed", "7", "--out", str(trace),
                   "--summary", str(out["summary.txt"])) == 0
    assert run_cli("analyze", str(trace), "--clusters-out", str(out["clusters.csv"]),
                   "--report-out", str(out["report.txt"])) == 0
    assert run_cli("sal", "--out", str(out["sal.csv"])) == 0
    assert run_cli("safety", "--out", str(out["safety.csv"])) == 0
    report = out["report.txt"].read_text().splitlines(keepends=True)
    out["report.txt"].write_text("".join(line for line in report
                                         if not line.startswith("trace=")))
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in out.items()}


def test_golden_cli_outputs(tmp_path, capsys):
    assert golden_cli_digests(tmp_path) == GOLDEN_CLI_SHA256


def test_golden_trace_file_is_the_golden_chains_trace(tmp_path):
    # simulate writes the committed trace, and analyze of that file gives
    # the golden report; CI analyzes the file again under the declared
    # floor, on the standard library alone
    trace, report = tmp_path / "t.vlct", tmp_path / "report.txt"
    assert run_cli("simulate", "--process", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3",
                   "--n", "20000", "--seed", "7", "--out", str(trace)) == 0
    assert trace.read_bytes() == GOLDEN_TRACE.read_bytes()
    assert run_cli("analyze", str(GOLDEN_TRACE), "--clusters-out", str(tmp_path / "c.csv"),
                   "--report-out", str(report)) == 0
    kept = b"".join(line for line in report.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"trace="))
    assert hashlib.sha256(kept).hexdigest() == GOLDEN_CLI_SHA256["report.txt"]


def test_golden_cli_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its dot kernel by CPU, and a dot product's rounding
    # follows the kernel; the NB likelihood is an fsum, correctly rounded, so
    # a child forced onto OpenBLAS's oldest x86-64 kernel writes the same bytes
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import test_cli; print(json.dumps(test_cli.golden_cli_digests(Path(sys.argv[2]))))")
    env = {**_subprocess_env(), "OPENBLAS_CORETYPE": "Prescott"}
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == GOLDEN_CLI_SHA256


@pytest.mark.parametrize("simulate_args", [
    ("--per", "0.01", "--n", "2000", "--seed", "5"),  # NB p within 4e-9 of 1
    ("--process", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3", "--n", "20000",
     "--seed", "7"),
    ("--mode", "beacon", "--per", "0.1", "--n", "20000", "--seed", "1"),
], ids=["nb-p-near-1", "nb-anchor", "iid"])
def test_printed_laws_read_back_as_model_rows(tmp_path, simulate_args):
    # each fit_ line prints its law's parameters exactly, so every printed
    # law is a valid model-table row, and the best one gives sal the
    # report's model quantiles
    trace, report = tmp_path / "t.vlct", tmp_path / "r.txt"
    assert run_cli("simulate", *simulate_args, "--out", str(trace),
                   "--summary", str(tmp_path / "s.txt")) == 0
    assert run_cli("analyze", str(trace), "--clusters-out", str(tmp_path / "c.csv"),
                   "--report-out", str(report)) == 0
    lines = dict(line.split("=", 1) for line in report.read_text().splitlines())
    dist = clusters.extract_clusters(sim.read_trace(trace))
    rows = []
    for family in sorted(clusters.Family, key=lambda f: f.value != lines["best"]):
        law = lines[f"fit_{family.value}"].split(" max_cdf_error=")[0]
        name, params = re.fullmatch(r"(\w+)\((.*)\)", law).groups()
        values = [value for _, value in (item.split("=") for item in params.split(", "))]
        assert name == family.value
        assert [float(v) for v in values] == list(clusters.fit(dist, family).params)
        rows.append(f"0.{len(rows) + 1},{name},{','.join(values)}{',' * (2 - len(values))}")
    models = tmp_path / "m.csv"
    models.write_text("per,family,param1,param2\n" + "\n".join(rows) + "\n")
    out = tmp_path / "sal.csv"
    assert run_cli("sal", "--models", str(models), "--per-grid", "0.1", "--out", str(out)) == 0
    packets = {row.split(",")[1]: row.split(",")[2]
               for row in out.read_text().splitlines()[1:]}
    assert packets == {t: lines[f"model_quantile_{t}"] for t in ("0.9", "0.95", "0.99", "0.999")}


def _subprocess_env():
    src = str(Path(vlcrelay.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    # scipy's imports cost more than the work of most commands, and no
    # command needs scipy: the fits and quantiles run on math.lgamma and
    # the package's own port of the bounded Brent search.
    # concurrent.futures is imported only by a several-seed simulate with
    # --jobs
    env = _subprocess_env()
    code = ("import sys, vlcrelay.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def _modules_after(top: str, *argv, code: int = cli.EXIT_OK) -> set[str]:
    """The modules of the package ``top`` (scipy, numpy, vlcrelay) loaded by
    one CLI command in a fresh interpreter, which must exit with ``code``;
    with no command, those that ``import vlcrelay.cli`` loads."""
    script = ("import sys; from vlcrelay import cli; "
              "rc = cli.main(sys.argv[2:]) if sys.argv[2:] else 0; "
              "print(rc, *[m for m in sys.modules if m.split('.')[0] == sys.argv[1]])")
    done = subprocess.run([sys.executable, "-c", script, top, *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    rc, *modules = done.stdout.splitlines()[-1].split()
    assert rc == str(code), done.stderr
    return set(modules)


def test_commands_load_only_the_scipy_they_use(tmp_path):
    ge = "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"
    nb = "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"
    for name, flags in [("iid", ["--per", "0.1"]), ("nb", ["--process", nb]),
                        ("ge", ["--process", ge])]:
        trace = tmp_path / f"{name}.vlct"
        assert _modules_after("scipy", "simulate", *flags, "--n", "5000", "--seed", "3",
                                    "--out", str(trace)) == set()
    assert _modules_after("scipy", "analyze", str(trace),
                                "--clusters-out", str(tmp_path / "c.csv"),
                                "--report-out", str(tmp_path / "r.txt")) == set()
    assert _modules_after("scipy", "safety", "--out", str(tmp_path / "s.csv")) == set()


def test_sal_safety_and_the_cli_import_load_no_numpy(tmp_path):
    # at the benchmark's scale a command is mostly interpreter start-up, and
    # numpy's import was half of a sal or safety child
    assert _modules_after("numpy", "sal", "--out", str(tmp_path / "sal.csv")) == set()
    assert _modules_after("numpy", "safety", "--out", str(tmp_path / "safety.csv")) == set()
    assert _modules_after("numpy") == set()


_CLI_IMPORT = {"vlcrelay", "vlcrelay.cli", "vlcrelay.node", "vlcrelay._errors",
               "vlcrelay._record", "vlcrelay._tables"}
_SIMULATE = _CLI_IMPORT | {"vlcrelay.channel", "vlcrelay.sim", "vlcrelay._trace"}


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # with no bytecode cache every module a child imports is compiled from
    # source, so a layer a command does not run still costs it start-up time
    assert _modules_after("vlcrelay") == _CLI_IMPORT
    ge = "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"
    nb = "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"
    for name, flags, law in [("iid", ["--per", "0.1"], set()), ("ge", ["--process", ge], set()),
                             ("nb", ["--process", nb], {"vlcrelay.laws"})]:
        trace = tmp_path / f"{name}.vlct"
        assert _modules_after("vlcrelay", "simulate", *flags, "--n", "5000", "--seed", "3",
                              "--out", str(trace)) == _SIMULATE | law, name
    # a binary trace is read and counted without sim or numpy
    analyze = ["--clusters-out", str(tmp_path / "c.csv"), "--report-out", str(tmp_path / "r.txt")]
    assert _modules_after("vlcrelay", "analyze", str(tmp_path / "ge.vlct"), *analyze) == (
        _CLI_IMPORT | {"vlcrelay._trace", "vlcrelay.channel", "vlcrelay.clusters",
                       "vlcrelay.laws"})
    assert _modules_after("numpy", "analyze", str(tmp_path / "ge.vlct"), *analyze) == set()
    # a CSV export is read, and its derived columns checked, by sim
    assert _modules_after("vlcrelay", "simulate", "--process", ge, "--n", "5000", "--seed", "3",
                          "--out", str(tmp_path / "ge.csv")) == _SIMULATE
    assert _modules_after("vlcrelay", "analyze", str(tmp_path / "ge.csv"), *analyze) == (
        _SIMULATE | {"vlcrelay.clusters", "vlcrelay.laws"})
    assert _modules_after("vlcrelay", "sal", "--out", str(tmp_path / "sal.csv")) == (
        _CLI_IMPORT | {"vlcrelay.laws"})
    assert _modules_after("vlcrelay", "safety", "--out", str(tmp_path / "safety.csv")) == (
        _CLI_IMPORT | {"vlcrelay.laws", "vlcrelay.safety"})



def test_numpy_free_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # dataclasses imports inspect and compiles six methods for each class it
    # builds, which was a tenth of an analyze child of a small binary trace
    trace = tmp_path / "ge.vlct"
    assert run_cli("simulate", "--process",
                   "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5",
                   "--n", "5000", "--seed", "3", "--out", str(trace)) == cli.EXIT_OK
    commands = [(), ("analyze", str(trace), "--clusters-out", str(tmp_path / "c.csv"),
                     "--report-out", str(tmp_path / "r.txt")),
                ("sal", "--out", str(tmp_path / "sal.csv")),
                ("safety", "--out", str(tmp_path / "safety.csv"))]
    for argv in commands:
        for top in ("dataclasses", "inspect"):
            assert _modules_after(top, *argv) == set(), (top, argv)

def test_sal_law_far_past_the_run_cap_exits_2_without_numpy(tmp_path, capsys):
    # binomial(10^12, 0.5) has no pmf in the float range below the cap: the
    # table starts there at once, where a 10^7-step log-space walk ended
    models = tmp_path / "far.csv"
    models.write_text("per,family,param1,param2\n0.1,binomial,1e12,0.5\n")
    out = tmp_path / "sal.csv"
    assert run_cli("sal", "--models", str(models), "--out", str(out)) == cli.EXIT_CONFIG
    assert run_err(capsys) == ("error: quantile(0.9) of binomial(n=1000000000000, p=0.5) is "
                               "beyond 10000000, where its CDF ends at 0.0\n")
    assert _modules_after("numpy", "sal", "--models", str(models), "--out", str(out),
                          code=cli.EXIT_CONFIG) == set()
    assert not out.exists()


def test_sal_and_safety_run_as_main_with_warnings_as_errors(tmp_path):
    # python -m vlcrelay.cli: the package import must not load vlcrelay.cli
    # first, which runpy reports with a RuntimeWarning
    for argv in (["sal", "--out", str(tmp_path / "sal.csv")],
                 ["safety", "--out", str(tmp_path / "safety.csv")]):
        done = subprocess.run([sys.executable, "-W", "error", "-m", "vlcrelay.cli", *argv],
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), argv


def test_sal_and_safety_run_with_numpy_unimportable(tmp_path):
    scenarios = tmp_path / "scenarios.csv"
    scenarios.write_text("v_kmh,distance_m,per\n60,20,0.05\n90,45,0.3\n120,60,5e-4\n")
    models = tmp_path / "models.csv"
    models.write_text("per,family,param1,param2\n0.01,binomial,40,0.02\n"
                      "0.1,negbinomial,0.5,0.1\n0.2,negbinomial,5,0.2\n")
    runs = [["sal", "--out", str(tmp_path / "sal.csv")],
            ["sal", "--models", str(models), "--per-grid", "0.01,0.05,0.1,0.15,0.2",
             "--targets", "0.5,0.999", "--baud", "57000", "--out", str(tmp_path / "m.csv")],
            ["safety", "--out", str(tmp_path / "safety.csv")],
            ["safety", str(scenarios), "--target", "0.999", "--out", str(tmp_path / "s.csv")]]
    code = ("import json, sys; sys.modules['numpy'] = None; from vlcrelay import cli; "
            "print(*[cli.main(argv) for argv in json.loads(sys.argv[1])])")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, json.dumps(runs)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["0"] * len(runs), done.stderr
    # the same outputs as a run in this process, where numpy is loaded
    for argv in runs:
        out = Path(argv[-1])
        ref = argv[:-1] + [str(out.with_suffix(".ref"))]
        assert run_cli(*ref) == 0
        assert out.read_bytes() == out.with_suffix(".ref").read_bytes(), argv


# the names the package exported before they loaded lazily, by the module
# that defined them then
_PACKAGE_NAMES = {
    "channel": ("ErrorProcess", "GilbertElliott", "IidBit", "IidPacket", "NbCluster",
                "PerDistanceTable", "per_at", "sample_losses"),
    "clusters": ("ClusterDistribution", "Family", "FitResult", "LatencyParams", "ModelTable",
                 "extract_clusters", "fit", "latency_from_clusters", "quantile", "sal_curve",
                 "select_best"),
    "codec": ("ChipStream", "deframe", "frame", "manchester_decode", "manchester_encode",
              "validate_preamble"),
    "node": ("LinkConfig", "Mode", "compute_per"),
    "safety": ("brake_distance", "comparison_table", "reaction_distance",
               "vlc_reaction_latency"),
    "sim": ("PacketTrace", "Summary", "read_trace", "read_trace_csv", "relay", "run",
            "summarize", "write_trace", "write_trace_csv"),
}


def test_package_import_loads_no_submodule():
    code = "import sys, vlcrelay; print(sorted(m for m in sys.modules if 'vlcrelay' in m))"
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "['vlcrelay']"


def test_package_names_resolve_to_the_same_objects():
    import importlib

    for module, names in _PACKAGE_NAMES.items():
        assert getattr(vlcrelay, module) is importlib.import_module(f"vlcrelay.{module}")
        for name in names:
            assert getattr(vlcrelay, name) is getattr(getattr(vlcrelay, module), name), name
            assert name in dir(vlcrelay)
    assert vlcrelay.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vlcrelay.no_such_name  # noqa: B018
    assert getattr(vlcrelay, "BACKEND", "none") == "none"


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    scenarios = tmp_path / "scenarios.csv"
    scenarios.write_text("v_kmh,distance_m,per\n60,20,0.05\n90,45,0.3\n")
    ge = "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"
    nb = "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"
    runs = [["simulate", *flags, "--n", "20000", "--seed", "3", "--out", str(tmp_path / name)]
            for name, flags in [("iid.vlct", ["--per", "0.1"]), ("nb.csv", ["--process", nb]),
                                ("ge.vlct", ["--process", ge])]]
    runs += [["analyze", str(tmp_path / name), "--clusters-out", str(tmp_path / f"{name}.c"),
              "--report-out", str(tmp_path / f"{name}.r")] for name in ("nb.csv", "ge.vlct")]
    runs += [["sal", "--out", str(tmp_path / "sal.csv")],
             ["safety", str(scenarios), "--out", str(tmp_path / "safety.csv")]]
    code = ("import json, sys; sys.modules['scipy'] = None; from vlcrelay import cli; "
            "print(*[cli.main(argv) for argv in json.loads(sys.argv[1])])")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, json.dumps(runs)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["0"] * len(runs), done.stderr
    # the same outputs as a run in this process, where scipy may be loaded
    for argv in runs[3:]:
        out = Path(argv[-1])
        ref = argv[:-1] + [str(out.with_suffix(".ref"))]
        assert run_cli(*ref) == 0
        assert out.read_bytes() == out.with_suffix(".ref").read_bytes(), argv


def test_nb_cluster_with_unbounded_mean_exits_2(tmp_path):
    # the cluster draw's quantile search used to run forever here
    done = subprocess.run(
        [sys.executable, "-m", "vlcrelay.cli", "simulate", "--process",
         "nb-cluster:r=1,p=1e-300,p_start=0.5", "--n", "10", "--out", str(tmp_path / "t.vlct")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "mean cluster size" in done.stderr
    assert list(tmp_path.iterdir()) == []


def _simulate_binary(tmp_path, n=13):
    path = tmp_path / "t.vlct"
    assert run_cli("simulate", "--per", "0.3", "--n", str(n), "--seed", "2",
                   "--out", str(path)) == 0
    return path


def _in_payload(edit):
    """A binary trace's edit of its inflated payload, deflated again."""
    return lambda data: (data[:data.index(b"\n\n") + 2]
                         + zlib.compress(edit(oracles.split_binary_trace(data)[1])))


def _flip_mid_stream(data):
    """A binary trace with the middle byte of its payload stream inverted."""
    mid = (data.index(b"\n\n") + 2 + len(data)) // 2
    return data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]


def _analyze_exits_3(tmp_path, capsys) -> str:
    """Run analyze on tmp_path/t.vlct, which must exit 3 before writing any
    output; return its error message."""
    capsys.readouterr()
    rc = run_cli("analyze", str(tmp_path / "t.vlct"), "--clusters-out",
                 str(tmp_path / "c.csv"), "--report-out", str(tmp_path / "r.txt"))
    assert rc == 3
    err = run_err(capsys)
    assert err.startswith("error: ")
    assert not (tmp_path / "c.csv").exists()
    return err


@pytest.mark.parametrize("name, edit, message", [
    ("missing-key", lambda d: d.replace(b"# seed=2\n", b""), "missing header keys"),
    ("missing-process", lambda d: d.replace(b"# process=iid-packet:p=0.3\n", b""),
     "missing header keys: ['process']"),
    ("bad-process", lambda d: d.replace(b"process=iid-packet:p=0.3", b"process=iid-packet:p=7"),
     "bad header: p_loss must be in [0, 1], got 7.0"),
    ("bad-value", lambda d: d.replace(b"# mode=broadcast", b"# mode=sideways"), "bad header"),
    ("other-payload", lambda d: d.replace(b"# payload=a5a5", b"# payload=0102"),
     "payload=0102, but the link's is a5a5"),
    ("bad-n-packets", lambda d: d.replace(b"# n_packets=13", b"# n_packets=1e3"),
     "n_packets='1e3'"),
    ("zero-n-packets", lambda d: d.replace(b"# n_packets=13", b"# n_packets=0"),
     "no packet records"),
    ("malformed-line", lambda d: d.replace(b"# seed=2", b"# seed 2"), ":12: expected"),
    ("negative-seed", lambda d: d.replace(b"# seed=2", b"# seed=-4"),
     "bad header: seed must be >= 0, got -4"),
    ("repeated-key", lambda d: d.replace(b"# seed=2\n", b"# seed=2\n# seed=3\n"),
     "# seed=3"),
    ("non-utf8-header", lambda d: d.replace(b"# rng=numpy-pcg64", b"# rng=\xff"),
     "not UTF-8"),
    ("no-blank-line", lambda d: d[:d.index(b"\n\n") + 1], "no empty line"),
    ("n-packets-above-payload", lambda d: d.replace(b"# n_packets=13", b"# n_packets=17"),
     "needs 3 payload bytes, got 2"),
    ("n-packets-below-payload", lambda d: d.replace(b"# n_packets=13", b"# n_packets=8"),
     "needs 1 payload bytes, got more than 1"),
    ("truncated-payload", _in_payload(lambda p: p[:-1]), "needs 2 payload bytes, got 1"),
    ("trailing-bytes", _in_payload(lambda p: p + b"\x00\x00"),
     "needs 2 payload bytes, got more than 2"),
    ("pad-bits", _in_payload(lambda p: p[:-1] + bytes([p[-1] | 1])), "pad bits"),
    ("bytes-after-stream", lambda d: d + b"\x00\x00", "2 trailing bytes after the payload"),
    ("cut-stream", lambda d: d[:-1], "payload stream is cut short"),
    ("checksum", lambda d: d[:-1] + bytes([d[-1] ^ 1]), "incorrect data check"),
    ("mid-stream-byte", _flip_mid_stream, "payload stream: "),
    ("format-1", lambda d: d.replace(_trace.TRACE_MAGIC, b"vlcrelay-trace 1\n"),
     ":1: trace format 1 (a raw payload) is no longer read; rerun simulate with the "
     "header's seed="),
])
def test_analyze_rejects_malformed_binary_trace(tmp_path, capsys, name, edit, message):
    path = _simulate_binary(tmp_path)
    data = path.read_bytes()
    assert oracles.split_binary_trace(data)[1][-1] & 0b111 == 0  # 13 packets: 3 pad bits
    bad = edit(data)
    assert bad != data
    path.write_bytes(bad)
    assert message in _analyze_exits_3(tmp_path, capsys)


def test_analyze_rejects_a_stream_that_inflates_past_the_header_at_once(tmp_path, capsys):
    # about 10^8 bytes from a ~100 kB stream, under a header of 13 packets:
    # the reader inflates at most one byte past the 2 the header allows
    path = _simulate_binary(tmp_path)
    data = path.read_bytes()
    deflate, zeros = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE), bytes(2**20)
    stream = b"".join([*(deflate.compress(zeros) for _ in range(95)), deflate.flush()])
    path.write_bytes(data[:data.index(b"\n\n") + 2] + stream)
    tracemalloc.start()
    try:
        err = _analyze_exits_3(tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "needs 2 payload bytes, got more than 2" in err
    assert peak < 2**20


@pytest.mark.parametrize("flags", [
    ["--per", "0.1"], ["--per", "1.0"], ["--per", "0.3", "--mode", "beacon"],
    ["--process", "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"],
    ["--process", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"],
], ids=["iid", "all-lost", "iid-beacon", "ge", "nb"])
@pytest.mark.parametrize("name", ["t.vlct", "t.csv"])
def test_simulate_and_analyze_print_one_max_cluster(tmp_path, capsys, flags, name):
    # both count the runs by the stored form's loss_runs
    trace = tmp_path / name
    assert run_cli("simulate", *flags, "--n", "20000", "--seed", "5", "--out", str(trace)) == 0
    summary = capsys.readouterr().out.splitlines()
    assert run_cli("analyze", str(trace), "--clusters-out", str(tmp_path / "c.csv"),
                   "--report-out", str(tmp_path / "r.txt")) in (cli.EXIT_OK, cli.EXIT_THIN_SAMPLE)
    report = capsys.readouterr().out.splitlines()
    got = [line for line in summary + report if line.startswith("max_cluster=")]
    assert len(got) == 2 and got[0] == got[1], got


def test_analyze_binary_and_csv_export_agree(tmp_path):
    spec = "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"
    outputs = []
    for name in ("t.vlct", "t.csv"):
        trace = tmp_path / name
        assert run_cli("simulate", "--process", spec, "--n", "20000", "--seed", "4",
                       "--out", str(trace)) == 0
        clusters_out, report_out = tmp_path / f"{name}.clusters", tmp_path / f"{name}.report"
        assert run_cli("analyze", str(trace), "--clusters-out", str(clusters_out),
                       "--report-out", str(report_out)) == 0
        report = report_out.read_text().splitlines()
        assert report[0] == f"trace={trace}"
        outputs.append((clusters_out.read_bytes(), report[1:]))
    assert (tmp_path / "t.vlct").read_bytes().startswith(_trace.TRACE_MAGIC)
    assert (tmp_path / "t.csv").read_text().startswith("# mode=broadcast\n")
    assert outputs[0] == outputs[1]


def test_simulate_batch_writes_one_file_per_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VLCRELAY_OUT", str(tmp_path))
    seeds = [11, 3, 7, 5]
    assert run_cli("simulate", "--per", "0.2", "--n", "1000", "--jobs", "2",
                   *(f"--seed={s}" for s in seeds)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"trace_seed{s}.vlct" for s in seeds)
    for s in seeds:
        trace = sim.read_trace(tmp_path / f"trace_seed{s}.vlct")
        assert trace.seed == s and trace.n_tx == 1000
