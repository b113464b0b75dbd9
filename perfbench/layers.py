"""Per-layer metrics of a traced run, from span totals, call counters and
what the output checks measured.

Times suffixed ``_s`` are seconds per iteration, ``_us`` are mean
microseconds per call, counts are per iteration.  A layer the workload
does not reach reads 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracing import LayerTotals, summarize


@dataclass
class IterationTrace:
    layers: dict[str, LayerTotals]
    counts: dict[str, int]
    checked: object  # workloads.Checked
    untraced_s: float  # the same inputs, run untraced just before
    traced_s: float

    @property
    def self_sum_s(self) -> float:
        return sum(a.self_seconds for a in self.layers.values())


def trace_iteration(tracer, checked, untraced_s, traced_s) -> IterationTrace:
    return IterationTrace(summarize(tracer.spans), tracer.counts(), checked, untraced_s, traced_s)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(times: list[float], traced: list[IterationTrace]) -> dict:
    """``times`` holds every untraced iteration's wall time; ``traced``
    the iterations that also ran traced.  Tracing figures are medians
    over iterations of paired (untraced, traced) runs on equal inputs."""
    n = len(traced)

    def seconds(name):
        return sum(t.layers[name].seconds for t in traced if name in t.layers)

    def calls(name):
        return sum(t.layers[name].calls for t in traced if name in t.layers)

    def mean_us(name):
        return _ratio(seconds(name), calls(name)) * 1e6

    def per_iter_s(name):
        return _ratio(seconds(name), n)

    def inside(span, counter):
        return sum(
            t.layers[span].counts.get(counter, 0)
            for t in traced
            if span in t.layers and t.layers[span].counts
        )

    def extra(key):
        return sum(t.checked.extras.get(key, 0) for t in traced)

    def counted(name):
        return _ratio(sum(t.counts.get(name, 0) for t in traced), n)

    chains_s = seconds("chains.run_chains")
    chains_cpu = sum(t.layers["chains.run_chains"].cpu for t in traced if "chains.run_chains" in t.layers)
    steps = extra("mh_steps")
    rates = [t.checked.extras["acceptance_rate"] for t in traced if "acceptance_rate" in t.checked.extras]
    coal_s = seconds("coalescent.sample_topologies")
    draws, events = extra("draws"), extra("events")
    m = {
        # uniform-n20: MH steps
        "chains.run_chains_s": (per_iter_s("chains.run_chains"), "s"),
        "chains.mh_steps": (_ratio(steps, n), "count"),
        "chains.mh_step_us": (_ratio(chains_s, steps) * 1e6, "us"),
        "chains.acceptance_rate": (statistics.fmean(rates) if rates else 0.0, "ratio"),
        "chains.cpu_per_wall": (_ratio(chains_cpu, chains_s), "ratio"),
        "chains.ess_k_per_s": (_ratio(extra("ess_k"), chains_s), "1/s"),
        "shapes.validations_per_step": (_ratio(inside("chains.run_chains", "shapes.validate_string"), steps), "ratio"),
        "lattice.split_counts_per_step": (_ratio(inside("chains.run_chains", "lattice.split_count"), steps), "ratio"),
        # coalescent-n20: topology draws
        "coalescent.sample_s": (per_iter_s("coalescent.sample_topologies"), "s"),
        "coalescent.draws": (_ratio(draws, n), "count"),
        "coalescent.draw_us": (_ratio(coal_s, draws) * 1e6, "us"),
        "coalescent.events": (_ratio(events, n), "count"),
        "coalescent.event_us": (_ratio(coal_s, events) * 1e6, "us"),
        "shapes.validations_per_draw": (_ratio(inside("coalescent.sample_topologies", "shapes.validate_string"), draws), "ratio"),
        # both samplers: text, statistics and the CLI itself
        "shapes.parse_us": (mean_us("shapes.from_text"), "us"),
        "shapes.to_text_us": (mean_us("shapes.to_text"), "us"),
        "treestats.shape_stats_us": (mean_us("treestats.shape_stats"), "us"),
        "treestats.aggregate_s": (per_iter_s("treestats.aggregate"), "s"),
        "cli.self_s": (_ratio(sum(t.layers["cli.main"].self_seconds for t in traced if "cli.main" in t.layers), n), "s"),
        "cli.lines_out": (_ratio(sum(t.checked.lines_out for t in traced), n), "count"),
        # lattice-n50: joins on F-matrices
        "lattice.distance_us": (mean_us("lattice.lattice_distance"), "us"),
        "lattice.lub_us": (mean_us("lattice.lub"), "us"),
        "lattice.lub_fmatrix_us": (mean_us("lattice.lub_fmatrix"), "us"),
        "shapes.fmatrix_us": (mean_us("shapes.fmatrix"), "us"),
        "shapes.from_fmatrix_us": (mean_us("shapes.from_fmatrix"), "us"),
        "shapes.validate_fmatrix_us": (mean_us("shapes.validate_fmatrix"), "us"),
        # exact-n8: enumeration, Hasse graphs, dense kernels
        "lattice.build_hasse_s": (per_iter_s("lattice.build_hasse"), "s"),
        "lattice.covers_s": (per_iter_s("lattice.covers"), "s"),
        "lattice.diameter_s": (per_iter_s("lattice.diameter"), "s"),
        "enumeration.generate_all_s": (per_iter_s("enumeration.generate_all"), "s"),
        "enumeration.shapes_generated": (counted("enumeration.generate_all"), "count"),
        "enumeration.count_space_s": (per_iter_s("enumeration.count_space"), "s"),
        "enumeration.count_shapes_s": (per_iter_s("enumeration.count_shapes"), "s"),
        "chains.exact_kernel_s": (per_iter_s("chains.exact_kernel"), "s"),
        "chains.exact_gap_s": (per_iter_s("chains.exact_gap"), "s"),
        "chains.exact_bottleneck_s": (per_iter_s("chains.exact_bottleneck"), "s"),
        "chains.stationarity_residual": (max((t.checked.extras.get("stationarity_residual", 0.0) for t in traced), default=0.0), "ratio"),
        # every workload: call counts and the tracing itself
        "shapes.validate_string_calls": (counted("shapes.validate_string"), "count"),
        "lattice.split_count_calls": (counted("lattice.split_count"), "count"),
        "trace.untraced_wall_s": (_median([t.untraced_s for t in traced]), "s"),
        "trace.traced_wall_s": (_median([t.traced_s for t in traced]), "s"),
        "trace.overhead_s": (_median([t.traced_s - t.untraced_s for t in traced]), "s"),
        "trace.overhead_frac": (_median([t.traced_s / t.untraced_s - 1 for t in traced]), "ratio"),
        "trace.self_sum_s": (_median([t.self_sum_s for t in traced]), "s"),
        "trace.unaccounted_s": (_median([t.untraced_s - t.self_sum_s for t in traced]), "s"),
        "run.cold_iteration_s": (times[0] if times else 0.0, "s"),
        "run.iterations": (len(times), "count"),
    }
    return m
