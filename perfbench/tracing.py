"""The traced run: spans around the public calls of each layer.

The spans are recorded here, outside the package, around the calls the CLI
makes for each command, replayed in one interpreter.  They are kept in
memory and written out as JSON lines when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import BAUD, TARGETS, Workload


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    rep: int


class Tracer:
    """Span recorder; a disabled tracer runs the same code without spans."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self.rep = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.workload, self.rep))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self, rep: int) -> dict[str, float]:
        """Self time summed per span name, for one repetition."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.rep == rep:
                totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        for span in self.spans:
            if span.rep == rep and span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] -= span.end - span.start
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def pipeline(tracer: Tracer, workload: Workload, seed: int, out: Path):
    """simulate -> analyze -> sal -> safety through the library calls the
    CLI makes.  Returns the in-process trace of each seed and the number
    of loss clusters the channel drew."""
    from vlcrelay import channel, clusters, safety, sim
    from vlcrelay.node import LinkConfig

    out.mkdir(parents=True, exist_ok=True)
    config = LinkConfig(baud=BAUD, mode=workload.mode)
    process = channel.process_from_spec(workload.spec)
    traces = {}
    paths = []
    n_clusters = 0
    with tracer.span("pipeline"):
        with tracer.span("simulate"):
            for s in workload.seeds(seed):
                with tracer.span("channel.sample_losses"):
                    lost = channel.sample_losses(process, workload.n, np.random.default_rng(s))
                n_clusters += int(np.count_nonzero(np.diff(lost.astype(np.int8)) == 1)
                                  + lost[0])
                with tracer.span("sim.run"):
                    trace = sim.run(config, process, workload.n, s)
                path = out / f"trace_seed{s}.csv"
                with tracer.span("sim.write_trace"):
                    sim.write_trace_csv(trace, path)
                with tracer.span("sim.summarize"):
                    sim.summarize(trace)
                traces[s] = trace
                paths.append(path)
        with tracer.span("analyze"):
            for path in paths:
                with tracer.span("sim.read_trace"):
                    read = sim.read_trace_csv(path)
                with tracer.span("clusters.extract"):
                    dist = clusters.extract_clusters(read)
                fits = []
                for family in clusters.Family:
                    with tracer.span(f"clusters.fit.{family.value}"):
                        fits.append(clusters.fit(dist, family))
                with tracer.span("clusters.select_quantile"):
                    best = clusters.select_best(fits)
                    for t in TARGETS:
                        dist.quantile(t)
                        clusters.quantile(best, t)
        with tracer.span("report"):
            with tracer.span("clusters.model_table"):
                table = clusters.ModelTable.bundled()
            with tracer.span("clusters.sal_curve"):
                clusters.sal_curve([float(p) for p in table.pers], TARGETS, table,
                                   clusters.LatencyParams.from_baud(BAUD))
            with tracer.span("safety.comparison_table"):
                safety.comparison_table(safety.bundled_scenarios())
    return traces, n_clusters, sum(p.stat().st_size for p in paths)
