"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eca-uqs --seed 1 --seconds 25 --trace 0

Each iteration builds the workload from ``--seed``, drives it through
``repro.runtime.run_concurrent`` to quiescence, and checks the outcome;
iterations repeat until ``--seconds`` is used up.  ``--trace 0`` reports
the end-to-end metrics (medians over iterations); ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
median traced iteration plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (correctness checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
#: Spans and temporary WAL directories go here, inside the checkout.
OUT_DIR = ROOT / ".perfbench-out"

#: Fewest iterations a run makes, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Fewest (untraced, traced) iteration pairs a ``--trace 1`` run makes.
TRACED_PAIRS = 2
#: Extra set-ups before the first iteration, so ``setup_s`` is a median of
#: many short timings rather than of a handful.
EXTRA_SETUPS = 10


def _percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def _loglog_slope(cumulative: Sequence[float], skip_share: float = 0.1) -> float:
    """Least-squares slope of log(cumulative time) against log(events).

    Fitted over the events after the first ``skip_share`` of the run, on
    at most 200 log-spaced points so long runs cost no more to fit.
    """
    n = len(cumulative)
    first = max(1, int(n * skip_share))
    if n - first < 2:
        return 0.0
    points = sorted(
        {
            int(round(math.exp(math.log(first) + (math.log(n) - math.log(first)) * i / 199)))
            for i in range(200)
        }
    )
    xs = [math.log(p) for p in points]
    ys = [math.log(cumulative[p - 1]) for p in points]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var


class Checks:
    """Correctness checks attempted and failed (the ``error_rate`` basis)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _run_options(setup, wal_dir: Optional[str]) -> Dict[str, object]:
    from perfbench.workloads import SCHEDULE_SEED, WIRE_CODEC

    options = dict(setup.options)
    options["seed"] = SCHEDULE_SEED
    options["wire_codec"] = WIRE_CODEC
    options["record_trace"] = False
    if wal_dir is not None:
        options["wal_dir"] = wal_dir
    return options


def run_iteration(name: str, seed: int, checks: Checks, tracer=None) -> Dict[str, object]:
    """Build, run and check the workload once; returns its measurements."""
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS
    from repro.relational.engine import evaluate_view
    from repro.runtime import run_concurrent

    # Start every iteration with no garbage left by the one before it.
    gc.collect()
    started = time.perf_counter()
    setup = WORKLOADS[name](seed)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR) if setup.uses_wal else None
    setup_s = time.perf_counter() - started

    probe = tracing.LagProbe(setup.catalog, setup.relation_views())
    patches = tracing.layer_patches(tracer) if tracer is not None else []
    # The probe wraps outermost, so its bookkeeping is not charged to a layer.
    patches += probe.patches()
    try:
        with tracing.installed(patches):
            begin = time.perf_counter()
            result = run_concurrent(
                setup.sources,
                setup.catalog,
                setup.updates,
                **_run_options(setup, wal_dir),
            )
            wall = time.perf_counter() - begin
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)

    # run_concurrent raises unless the warehouse quiesced; check it anyway.
    checks.check(setup.catalog.is_quiescent(), "quiescent")
    generated = len(setup.updates)
    applied = sum(
        m.events.get("updates_applied", 0)
        for m in result.metrics.values()
        if m.role == "source"
    )
    checks.check(result.updates == generated and applied == generated, "update count")
    final_state: Dict[str, object] = {}
    for source in setup.sources.values():
        final_state.update(source.snapshot())
    for view_name, algorithm in setup.catalog.algorithms.items():
        checks.check(
            algorithm.view_state() == evaluate_view(algorithm.view, final_state),
            f"{view_name} equals its oracle",
        )
    checks.check(probe.pending == 0, "every update installed")
    cache = setup.options.get("cache")
    if cache is not None:
        for results in result.read_results.values():
            for read in results:
                checks.check(read.lag <= cache.staleness_bound, "read lag within bound")

    channels = result.channel_stats.values()
    lags = probe.lags or [0.0]
    out: Dict[str, object] = {
        "setup_s": setup_s,
        "wall_s": wall,
        "updates": generated,
        "updates_per_s": generated / wall,
        "view_lag_p50_ms": _percentile(lags, 0.5) * 1e3,
        "view_lag_p90_ms": _percentile(lags, 0.9) * 1e3,
        "messages": sum(c.sent for c in channels),
        "bytes": sum(c.sent_bytes for c in channels),
        "max_pending": max((c.max_pending for c in channels), default=0),
        "shared": setup.catalog.shared_query_stats(),
        "serving": result.serving,
    }
    return out


def consistency_run(name: str, seed: int, checks: Checks) -> None:
    """One untimed full-trace run; each view must stay strongly consistent.

    Section 7: ECA and ECA-Key applied to each view separately keep each
    view strongly consistent on its own timeline; the catalog's joint
    tagged state is only convergent, so it is not checked here.
    """
    from perfbench.workloads import WORKLOADS
    from repro.consistency import check_trace
    from repro.runtime import run_concurrent

    setup = WORKLOADS[name](seed)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR) if setup.uses_wal else None
    try:
        options = _run_options(setup, wal_dir)
        options["record_trace"] = True
        result = run_concurrent(
            setup.sources, setup.catalog, setup.updates, **options
        )
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)
    for view_name, algorithm in setup.catalog.algorithms.items():
        report = check_trace(
            algorithm.view, setup.catalog.per_view_trace(view_name, result.trace)
        )
        checks.check(
            report.level() == "strongly consistent",
            f"{view_name} strongly consistent (got {report.level()})",
        )


def _extra_setup_times(name: str, seed: int) -> List[float]:
    """Set-up times after one untimed warm-up set-up (lazy imports)."""
    from perfbench.workloads import WORKLOADS

    WORKLOADS[name](seed)
    times = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        started = time.perf_counter()
        WORKLOADS[name](seed)
        times.append(time.perf_counter() - started)
    return times


def _counts_repeat(iterations: Sequence[Dict[str, object]], checks: Checks) -> None:
    keys = ("messages", "bytes", "shared")
    first = iterations[0]
    for other in iterations[1:]:
        checks.check(
            all(other[k] == first[k] for k in keys), "counts repeat within a run"
        )


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark for this process."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    """Peak resident set since the last reset (``VmHWM``), in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _enough(started: float, seconds: float, done: int, least: int = MIN_ITERATIONS) -> bool:
    """Stop once another iteration like the average so far would overrun."""
    if done < least:
        return False
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done > seconds


def end_to_end(name: str, seed: int, seconds: float, checks: Checks) -> Dict[str, float]:
    """Medians over iterations, with times rescaled to the reference host.

    The reference loop is timed before the first iteration and after each
    one; every time below is multiplied by ``REFERENCE_S`` over the median
    reference time (see ``perfbench/reference.py``).
    """
    from perfbench.reference import REFERENCE_S, reference_seconds

    setup_times = _extra_setup_times(name, seed)
    references = [reference_seconds()]
    iterations: List[Dict[str, object]] = []
    started = time.perf_counter()
    peaks: List[float] = []
    while not _enough(started, seconds, len(iterations)):
        # Peak RSS of the iterations alone, not of the reference loop.
        _reset_peak_rss()
        iterations.append(run_iteration(name, seed, checks))
        peaks.append(_peak_rss_mb())
        references.append(reference_seconds())
    _counts_repeat(iterations, checks)
    consistency_run(name, seed, checks)

    first = iterations[0]
    updates = float(first["updates"])
    setup_times += [float(i["setup_s"]) for i in iterations]
    raw = {
        "updates_per_s": statistics.median(float(i["updates_per_s"]) for i in iterations),
        "view_lag_p50_ms": statistics.median(float(i["view_lag_p50_ms"]) for i in iterations),
        "view_lag_p90_ms": statistics.median(float(i["view_lag_p90_ms"]) for i in iterations),
        "setup_s": statistics.median(setup_times),
    }
    scale = REFERENCE_S / statistics.median(references)
    print(
        f"{name}: {len(iterations)} iteration(s), walls "
        + ", ".join(f"{float(i['wall_s']):.3f}s" for i in iterations)
        + f"; reference {statistics.median(references):.4f}s (scale {scale:.3f}); unscaled "
        + ", ".join(f"{key} {value:.6g}" for key, value in raw.items()),
        file=sys.stderr,
    )
    return {
        "updates_per_s": raw["updates_per_s"] / scale,
        "view_lag_p50_ms": raw["view_lag_p50_ms"] * scale,
        "view_lag_p90_ms": raw["view_lag_p90_ms"] * scale,
        "bytes_per_update": float(first["bytes"]) / updates,
        "messages_per_update": float(first["messages"]) / updates,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": max(peaks),
    }


#: Which wrappers each workload must fire (a patch on a binding the
#: program no longer calls would otherwise read as a zero silently).
EXPECTED = {
    "all": (
        "kernel.dispatch",
        "core.on_update",
        "core.on_answer",
        "relational.term",
        "relational.substitute",
        "source.evaluate",
        "source.apply",
        "messaging.encode",
        "warehouse.plan",
    ),
    "eca-batch8": ("core.backdate",),
    "wal-key": ("durability.append", "durability.snapshot"),
    "read-storm": ("relational.signature", "serving.read", "serving.backend_read"),
}


def check_traced(name: str, iteration: Dict[str, object], tracer, checks: Checks) -> None:
    """Every expected wrapper fired, and layer self times fit the wall time."""
    from perfbench.tracing import LAYERS

    for wrapper in EXPECTED["all"] + EXPECTED.get(name, ()):
        checks.check(tracer.calls.get(wrapper, 0) > 0, f"wrapper {wrapper} fired")
    metrics = layer_metrics(tracer, iteration)
    parts = [metrics[f"{layer}.self_s"] for layer in LAYERS if layer != "runtime"]
    parts.append(metrics["runtime.other_s"])
    checks.check(
        min(parts) >= 0.0 and math.isclose(sum(parts), metrics["runtime.wall_s"]),
        "layer self times plus runtime.other_s equal the traced wall time",
    )


def layer_metrics(tracer, iteration: Dict[str, object]) -> Dict[str, float]:
    wall = float(iteration["wall_s"])
    inc = tracer.inclusive_s
    calls = tracer.calls
    counts = tracer.counts
    dispatch = tracer.samples.get("kernel.dispatch", [])
    cumulative: List[float] = []
    total = 0.0
    for duration in dispatch:
        total += duration
        cumulative.append(total)
    depth = tracer.samples.get("core.uqs_depth", [0])
    terms = tracer.samples.get("relational.terms_per_query", [0])
    reads = tracer.samples.get("serving.read", [])
    serving = iteration["serving"] or {}
    issued, saved = iteration["shared"]
    measured = sum(tracer.self_s[layer] for layer in tracer.self_s if layer != "runtime")
    metrics = {
        "kernel.events": len(dispatch),
        "kernel.dispatch_s": inc.get("kernel.dispatch", 0.0),
        "kernel.dispatch_p99_us": _percentile(dispatch, 0.99) * 1e6 if dispatch else 0.0,
        "kernel.cost_exponent": _loglog_slope(cumulative),
        "core.on_update_s": inc.get("core.on_update", 0.0),
        "core.on_answer_s": inc.get("core.on_answer", 0.0),
        "core.uqs_depth_p50": _percentile(depth, 0.5),
        "core.uqs_depth_max": max(depth),
        "core.backdate_calls": calls.get("core.backdate", 0),
        "relational.terms_built": calls.get("relational.term", 0),
        "relational.substitute_s": inc.get("relational.substitute", 0.0),
        "relational.terms_per_query_p50": _percentile(terms, 0.5),
        "relational.terms_per_query_max": max(terms),
        "relational.signature_s": inc.get("relational.signature", 0.0),
        "source.evaluate_s": inc.get("source.evaluate", 0.0),
        "source.evaluate_calls": calls.get("source.evaluate", 0),
        "source.rows_answered": counts.get("source.rows_answered", 0),
        "source.apply_s": inc.get("source.apply", 0.0),
        "messaging.encode_s": inc.get("messaging.encode", 0.0),
        "messaging.frame_bytes": counts.get("messaging.frame_bytes", 0),
        "durability.append_s": inc.get("durability.append", 0.0),
        "durability.records": calls.get("durability.append", 0),
        "durability.snapshot_s": inc.get("durability.snapshot", 0.0),
        "durability.snapshots": calls.get("durability.snapshot", 0),
        "durability.snapshot_bytes": counts.get("durability.snapshot_bytes", 0),
        "warehouse.plan_s": inc.get("warehouse.plan", 0.0),
        "warehouse.queries_issued": issued,
        "warehouse.queries_saved": saved,
        "serving.read_s": inc.get("serving.read", 0.0),
        "serving.read_p50_us": _percentile(reads, 0.5) * 1e6 if reads else 0.0,
        "serving.read_p99_us": _percentile(reads, 0.99) * 1e6 if reads else 0.0,
        "serving.hit_ratio": float(serving.get("hit_rate", 0.0)),
        "serving.backend_reads": int(serving.get("backend_reads", 0)),
        "serving.backend_read_s": inc.get("serving.backend_read", 0.0),
        "serving.invalidations": int(serving.get("invalidations", 0)),
        "serving.evictions": int(serving.get("evictions", 0)),
        "runtime.channel_max_pending": iteration["max_pending"],
        "runtime.other_s": wall - measured,
        "runtime.wall_s": wall,
    }
    for layer, seconds in tracer.self_s.items():
        if layer != "runtime":
            metrics[f"{layer}.self_s"] = seconds
    return metrics


def traced(name: str, seed: int, seconds: float, checks: Checks) -> Dict[str, float]:
    from perfbench.tracing import Tracer

    from perfbench.reference import reference_seconds

    plain: List[Dict[str, object]] = []
    runs: List[tuple] = []
    references = [reference_seconds()]
    started = time.perf_counter()
    while not _enough(started, seconds, len(runs), least=TRACED_PAIRS):
        plain.append(run_iteration(name, seed, checks))
        tracer = Tracer()
        runs.append((run_iteration(name, seed, checks, tracer=tracer), tracer))
        references.append(reference_seconds())
    _counts_repeat(plain + [i for i, _ in runs], checks)
    consistency_run(name, seed, checks)

    for iteration, tracer in runs:
        check_traced(name, iteration, tracer, checks)

    ordered = sorted(runs, key=lambda run: float(run[0]["wall_s"]))
    iteration, tracer = ordered[(len(ordered) - 1) // 2]
    metrics = layer_metrics(tracer, iteration)
    untraced_wall = statistics.median(float(i["wall_s"]) for i in plain)
    traced_wall = statistics.median(float(i["wall_s"]) for i, _ in runs)
    metrics["runtime.tracing_overhead"] = traced_wall / untraced_wall - 1.0
    metrics["runtime.reference_s"] = statistics.median(references)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.tsv"
    written = tracer.write(str(spans_path))
    print(
        f"{name}: {len(runs)} traced + {len(plain)} untraced iteration(s); "
        f"tracing overhead {metrics['runtime.tracing_overhead']:+.1%}; "
        f"{written} span(s) -> {spans_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    return metrics


UNITS = {
    "updates_per_s": "1/s",
    "view_lag_p50_ms": "ms",
    "view_lag_p90_ms": "ms",
    "bytes_per_update": "B",
    "messages_per_update": "count",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def unit(metric: str) -> str:
    """The unit a metric is reported in, from its name's suffix."""
    if metric in UNITS:
        return UNITS[metric]
    for suffix, name in (
        ("_s", "s"),
        ("_us", "us"),
        ("_bytes", "B"),
        ("_ratio", "ratio"),
        ("_overhead", "ratio"),
        ("_exponent", "slope"),
    ):
        if metric.endswith(suffix):
            return name
    return "count"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the repro package from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    checks = Checks()
    measure = traced if args.trace else end_to_end
    values = measure(args.workload, args.seed, args.seconds, checks)
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        f"error_rate: {len(checks.failures)}/{checks.attempted}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": {
                    metric: {"value": value, "unit": unit(metric)}
                    for metric, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
