"""Command-line surface tying the toolkit into reproducible workflows.

Subcommands: simulate, analyze, sal, safety, ingest-per-table.  Every
command is a pure function of its inputs, flags, and seed; reruns write
byte-identical files.  Exit codes: 0 success, 2 configuration error,
3 I/O or format error, 4 analysis on a statistically thin loss sample.

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags override file values.  ``VLCRELAY_OUT`` names the default
output directory for files whose path is not given explicitly.

Each command imports only the layers it runs, inside its ``cmd_*``
function; the import of this module loads ``node``, ``_tables`` and
``_errors`` alone.  With no bytecode cache, every module a child imports
is compiled from source, so an unused layer costs every command.  So
``simulate`` loads ``channel``, ``sim`` and ``_trace`` (and ``laws`` for
an ``nb-cluster`` process), and of a binary ``--out`` builds no
``PacketTrace`` (``sim.draw``).  ``analyze`` of a binary trace loads
``_trace``, ``channel`` (to check the header's process), ``clusters`` and
``laws``; only a CSV export goes through ``sim``.  Both count the runs by
``_trace.BinaryTrace.loss_runs``.  ``sal`` loads ``laws``, and ``safety``
``laws`` and ``safety``.  ``sal``, ``safety`` and ``analyze`` of a binary
trace run on the standard library alone; no command loads ``codec``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._errors import ChannelError, ClusterStatsError, SafetyError, TraceFormatError
from ._tables import OutOfRange
from .node import ConfigError, LinkConfig, Mode

if TYPE_CHECKING:
    from . import channel as _channel
    from . import sim as _sim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_THIN_SAMPLE = 4

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _out_dir() -> Path:
    return Path(os.environ.get("VLCRELAY_OUT", "."))


def _default_out(name: str) -> Path:
    directory = _out_dir()
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def read_config_file(path) -> list[str]:
    """``simulate`` flags from a flat ``key = value`` file; blank lines and
    ``#`` comments ignored.

    Each key is a flag name with ``_`` for ``-``; ``seeds`` takes a comma
    list (one ``--seed`` each) and ``tilted`` a boolean.
    """
    flags: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key.isidentifier():
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if key == "seeds":
            flags += [f"--seed={seed}" for seed in value.split(",")]
        elif key == "tilted":
            if value.lower() not in _BOOLEANS:
                raise ConfigError(f"{path}:{lineno}: tilted: expected a boolean, got {value!r}")
            flags += ["--tilted"] if _BOOLEANS[value.lower()] else []
        else:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _fill_from_config_file(args: argparse.Namespace) -> None:
    """Fill the ``simulate`` options the command line left unset from
    ``args.config``.  The parser for the file's flags has no ``--config``,
    no ``--help`` and no prefix matching, so a key must spell a flag."""
    parser = argparse.ArgumentParser(prog=str(args.config), usage=argparse.SUPPRESS,
                                     add_help=False, allow_abbrev=False)
    _add_simulate_arguments(parser)
    for dest, value in vars(parser.parse_args(read_config_file(args.config))).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _format_float(x: float) -> str:
    return repr(float(x))


def _build_process(args: argparse.Namespace, baud: int) -> _channel.ErrorProcess:
    from . import channel as _channel

    given = [name for name, val in
             (("per", args.per), ("process", args.process), ("distance_m", args.distance_m))
             if val is not None]
    if len(given) > 1:
        raise ConfigError(f"give only one of per/process/distance_m, got {given}")
    if args.tilted and args.distance_m is None:
        raise ConfigError("--tilted needs --distance-m: it picks the distance table")
    if args.process is not None:
        return _channel.process_from_spec(args.process)
    if args.distance_m is not None:
        table = (_channel.PerDistanceTable.bundled_tilted() if args.tilted
                 else _channel.PerDistanceTable.bundled())
        return _channel.IidPacket(p_loss=_channel.per_at(table, args.distance_m, baud))
    per = args.per if args.per is not None else 0.0
    if not 0.0 <= per <= 1.0:
        raise ConfigError(f"per must be in [0, 1], got {per}")
    return _channel.IidPacket(p_loss=per)


def _summary_lines(seed: int, summary: _sim.Summary) -> list[str]:
    return [
        f"seed={seed}",
        f"per={_format_float(summary.per)}",
        f"channel_per={_format_float(summary.channel_per)}",
        f"n_tx={summary.n_tx}",
        f"n_received={summary.n_received}",
        f"n_relayed={summary.n_relayed}",
        f"n_blocked={summary.n_blocked}",
        f"min_latency_us={_format_float(summary.min_latency_s * 1e6)}",
        f"mean_latency_us={_format_float(summary.mean_latency_s * 1e6)}",
        f"max_cluster={summary.max_cluster}",
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim as _sim

    config = LinkConfig.from_text_fields(vars(args))
    process = _build_process(args, config.baud)
    n = args.n if args.n is not None else 10000
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    seeds = args.seeds if args.seeds else [0]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"each seed may be given once, got {seeds}")
    jobs = args.jobs if args.jobs is not None else 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    out = Path(args.out) if args.out else _default_out("trace.vlct")

    def trace_path(seed: int) -> Path:
        if len(seeds) == 1:
            return out
        return out.with_name(f"{out.stem}_seed{seed}{out.suffix}")

    def one(seed: int) -> tuple[int, _sim.Summary]:
        stored = _sim.draw(config, process, n, seed)
        _sim.write_trace(stored, trace_path(seed))
        return seed, _sim.summarize(stored)

    if jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ThreadPoolExecutor  # ~10 ms import, only here

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(seed) for seed in seeds]

    results.sort(key=lambda item: item[0])
    lines: list[str] = []
    for seed, summary in results:
        lines.extend(_summary_lines(seed, summary))
        lines.append("")
    text = "\n".join(lines).rstrip("\n") + "\n"
    print(text, end="")
    if args.summary:
        Path(args.summary).write_text(text)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    """Fit a trace's loss-run law and report it; ``clusters.csv`` holds the
    law as ``k,count,pmf,cdf``, a row per run length seen and ``k = 0``."""
    from . import _trace
    from . import clusters as _clusters

    trace = _trace.read_binary(args.trace)
    if trace is None:  # a CSV export
        from . import sim as _sim

        trace = _sim.read_trace_csv(args.trace)
    dist = _clusters.extract_clusters(trace)
    targets = _parse_targets(args.targets)
    clusters_out = Path(args.clusters_out) if args.clusters_out else _default_out("clusters.csv")
    report_out = Path(args.report_out) if args.report_out else _default_out("report.txt")

    with open(clusters_out, "w", newline="\n") as fh:
        fh.write("k,count,pmf,cdf\n")
        fh.writelines(map("{},{},{!r},{!r}\n".format, dist.lengths, dist.counts,
                          dist.pmf(), dist.cdf))

    lines = [
        f"trace={args.trace}",
        f"n_packets={dist.n_packets}",
        f"n_lost={dist.n_lost}",
        f"n_runs={dist.n_runs}",
        f"max_cluster={dist.max_cluster}",
        f"n_windows={dist.n_opportunities}",
    ]
    for t in targets:
        lines.append(f"empirical_quantile_{t}={dist.quantile(t)}")

    if dist.insufficient:
        lines.append(f"warning=only {dist.n_lost} losses; need >= "
                     f"{_clusters.MIN_LOSSES} for model fits")
        code = EXIT_THIN_SAMPLE
    else:
        fits = []
        for family in _clusters.Family:
            try:
                fits.append(_clusters.fit(dist, family))
            except _clusters.FitDiverged as exc:
                lines.append(f"fit_{family.value}=diverged ({exc})")
        for f in fits:
            lines.append(f"fit_{f.family.value}={f.describe()} "
                         f"max_cdf_error={_format_float(f.max_cdf_error)}")
        best = _clusters.select_best(fits)
        lines.append(f"best={best.family.value}")
        for t in targets:
            lines.append(f"model_quantile_{t}={_clusters.quantile(best, t)}")
        code = EXIT_OK

    text = "\n".join(lines) + "\n"
    print(text, end="")
    report_out.write_text(text)
    return code


def _parse_floats(name: str, spec: str) -> list[float]:
    """A comma-separated list of at least one number; empty items are skipped."""
    try:
        values = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if not values:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {spec!r}")
    return values


def _parse_targets(spec: str | None) -> list[float]:
    from . import laws as _laws

    if spec is None:
        return list(_laws.DEFAULT_TARGETS)
    targets = _parse_floats("targets", spec)
    if not all(0.0 < t < 1.0 for t in targets):
        raise ConfigError(f"targets must be probabilities in (0, 1), got {spec}")
    return targets


def cmd_sal(args: argparse.Namespace) -> int:
    from . import laws as _laws

    table = (_laws.ModelTable.from_csv(args.models) if args.models
             else _laws.ModelTable.bundled())
    targets = _parse_targets(args.targets)
    config = LinkConfig.from_text_fields(vars(args))
    params = _laws.LatencyParams.from_baud(config.baud, ipd_s=config.ipd_s)
    grid = (_parse_floats("per-grid", args.per_grid) if args.per_grid is not None
            else [float(p) for p in table.pers])

    points = _laws.sal_curve(grid, targets, table, params)

    out = Path(args.out) if args.out else _default_out("sal.csv")
    lines = ["per,target,packets,latency_us"]
    for pt in points:
        lines.append(f"{_format_float(pt.per)},{_format_float(pt.target)},"
                     f"{pt.packets},{_format_float(pt.latency_s * 1e6)}")
    text = "\n".join(lines) + "\n"
    out.write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_safety(args: argparse.Namespace) -> int:
    from . import safety as _safety

    rows = (_safety.read_scenarios_csv(args.scenarios) if args.scenarios
            else _safety.bundled_scenarios())

    # the flags given; comparison_table's signature holds the defaults
    given = {name: getattr(args, name) for name in ("mu", "g", "baud", "target")
             if getattr(args, name) is not None}
    if args.vlc_reaction_ms is not None:
        given["vlc_reaction_s"] = args.vlc_reaction_ms / 1e3
    table = _safety.comparison_table(rows, **given)

    out = Path(args.out) if args.out else _default_out("safety.csv")
    header = ("v_kmh,distance_m,per,vlc_reaction_latency_ms,vlc_relay_latency_ms,"
              "brake_m,reaction_vlc_m,reaction_rf_m,reaction_human_m,"
              "stop_vlc_m,stop_rf_m,stop_human_m")
    lines = [header]
    for r in table:
        lines.append(",".join([
            _format_float(r.v_kmh), _format_float(r.distance_m), _format_float(r.per),
            _format_float(r.vlc_reaction_latency_s * 1e3),
            _format_float(r.vlc_relay_latency_s * 1e3),
            _format_float(r.brake_m),
            _format_float(r.reaction_vlc_m), _format_float(r.reaction_rf_m),
            _format_float(r.reaction_human_m),
            _format_float(r.stop_vlc_m), _format_float(r.stop_rf_m),
            _format_float(r.stop_human_m),
        ]))
    text = "\n".join(lines) + "\n"
    out.write_text(text)

    print(f"{'v':>5} {'D':>6} {'per':>9} {'brake':>8} "
          f"{'r_vlc':>8} {'r_rf':>8} {'r_hum':>8} {'s_vlc':>8} {'s_rf':>8} {'s_hum':>8}")
    for r in table:
        print(f"{r.v_kmh:5.0f} {r.distance_m:6.1f} {r.per:9.2g} {r.brake_m:8.2f} "
              f"{r.reaction_vlc_m:8.2f} {r.reaction_rf_m:8.2f} {r.reaction_human_m:8.2f} "
              f"{r.stop_vlc_m:8.2f} {r.stop_rf_m:8.2f} {r.stop_human_m:8.2f}")
    return EXIT_OK


def cmd_ingest_per_table(args: argparse.Namespace) -> int:
    from . import channel as _channel

    table = _channel.PerDistanceTable.from_csv(args.table)
    if args.distance_m is not None and args.baud is None:
        raise ConfigError("--baud is required with --distance-m")
    print(f"rows={table.distances_m.size}")
    print(f"bauds={sorted(set(int(b) for b in table.bauds))}")
    if args.out:
        table.to_csv(args.out)
    if args.distance_m is not None:
        print(f"per={_format_float(_channel.per_at(table, args.distance_m, args.baud))}")
    return EXIT_OK


def _add_simulate_arguments(sim: argparse.ArgumentParser) -> None:
    """Every ``simulate`` option but ``--config``; config-file keys name them."""
    sim.add_argument("--baud", type=int)
    sim.add_argument("--mode", choices=[m.value for m in Mode])
    sim.add_argument("--ipd-us", dest="ipd_us", type=float)
    sim.add_argument("--beacon-interval-us", dest="beacon_interval_us", type=float)
    sim.add_argument("--t-proc-us", dest="t_proc_us", type=float)
    sim.add_argument("--guard-us", dest="guard_us", type=float)
    sim.add_argument("--per", type=float, help="iid packet-loss probability")
    sim.add_argument("--process", help="error process spec, e.g. gilbert-elliott:p_gb=...")
    sim.add_argument("--distance-m", dest="distance_m", type=float,
                     help="derive PER from the bundled distance table")
    sim.add_argument("--tilted", action="store_const", const=True, default=None,
                     help="use the tilted-lamp distance table (with --distance-m)")
    sim.add_argument("--n", type=int, help="number of packets (default 10000)")
    sim.add_argument("--seed", dest="seeds", type=int, action="append",
                     help="rng seed; repeat for a multi-seed batch")
    sim.add_argument("--jobs", type=int, help="concurrent seeds (default 1)")
    sim.add_argument("--out", help="trace path (default trace.vlct, binary; a path ending "
                     "in .csv writes the CSV export); several seeds add _seed<s>")
    sim.add_argument("--summary", help="also write the summary to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcrelay",
        description="Simulate and analyze a visible-light decode-and-relay link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a link simulation to a trace file")
    sim.add_argument("--config", help="flat key = value config file")
    _add_simulate_arguments(sim)
    sim.set_defaults(func=cmd_simulate, config=None)

    ana = sub.add_parser("analyze", help="cluster statistics and model fits for a trace")
    ana.add_argument("trace", help="trace file from simulate, binary or CSV")
    ana.add_argument("--targets", help="comma-separated target probabilities")
    ana.add_argument("--clusters-out", dest="clusters_out")
    ana.add_argument("--report-out", dest="report_out")
    ana.set_defaults(func=cmd_analyze)

    sal = sub.add_parser("sal", help="latency-at-target curve over a PER grid")
    sal.add_argument("--models", help="model table CSV (default: bundled)")
    sal.add_argument("--targets", help="comma-separated target probabilities")
    sal.add_argument("--per-grid", dest="per_grid", help="comma-separated PER values")
    sal.add_argument("--baud", type=int)
    sal.add_argument("--ipd-us", dest="ipd_us", type=float)
    sal.add_argument("--out")
    sal.set_defaults(func=cmd_sal)

    saf = sub.add_parser("safety", help="stopping-distance actor comparison")
    saf.add_argument("scenarios", nargs="?", help="scenario CSV (default: bundled)")
    saf.add_argument("--mu", type=float)
    saf.add_argument("--g", type=float)
    saf.add_argument("--baud", type=int)
    saf.add_argument("--target", type=float)
    saf.add_argument("--vlc-reaction-ms", dest="vlc_reaction_ms", type=float)
    saf.add_argument("--out")
    saf.set_defaults(func=cmd_safety)

    ing = sub.add_parser("ingest-per-table", help="validate a PER-vs-distance CSV")
    ing.add_argument("table", help="CSV with header distance_m,baud,per")
    ing.add_argument("--out", help="write the normalized table here")
    ing.add_argument("--distance-m", dest="distance_m", type=float)
    ing.add_argument("--baud", type=int)
    ing.set_defaults(func=cmd_ingest_per_table)

    return parser


def main(argv=None) -> int:
    """Run one command; errors map to exit codes here and nowhere else."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            _fill_from_config_file(args)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage errors and --help
        return int(exc.code) if exc.code else EXIT_OK
    except (TraceFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ChannelError, ClusterStatsError, SafetyError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
