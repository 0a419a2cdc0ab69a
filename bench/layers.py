"""Per-layer metrics from the spans of traced runs.

A span's self time is its duration minus the time its child spans
cover.  ``scanner.scan`` has no public callee, so a probe splits its
time: it runs ``scan`` and ``count_vt`` on the same range in turn, and
run tracking (``scanner.track_s``) is what scan takes beyond count_vt.

A metric of a layer that the workload's own commands skip (for example
``scanner.format_s`` on run-search) comes from the plan's side commands,
which run that layer on a small seed-derived input, so every metric of
every workload is measured.  The ``scanner.format_*`` metrics come from
whichever of the two formatted more rows: on sweep the census formats
only its four result rows, too few to time.
"""
from __future__ import annotations

from collections import defaultdict
from statistics import median

# name -> (unit, better)
PER_LAYER = {
    "scanner.classify_s": ("s", "lower"),
    "scanner.classify_u64_idx_per_s": ("1/s", "higher"),
    "scanner.classify_big_idx_per_s": ("1/s", "higher"),
    "scanner.track_s": ("s", "lower"),
    "scanner.runs_kept": ("count", "lower"),
    "scanner.runs_kept_ratio": ("ratio", "lower"),
    "scanner.stream_next_s": ("s", "lower"),
    "scanner.format_s": ("s", "lower"),
    "scanner.format_idx_per_s": ("1/s", "higher"),
    "scanner.format_share": ("ratio", "lower"),
    "scanner.checkpoint_save_s": ("s", "lower"),
    "scanner.checkpoint_saves": ("count", "lower"),
    "scanner.checkpoint_resume_s": ("s", "lower"),
    "scanner.pool_speedup": ("ratio", "higher"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "cli.wall_s": ("s", "lower"),
    "cli.idx_per_s": ("1/s", "higher"),
    "analysis.conjecture_s": ("s", "lower"),
    "analysis.conjecture_idx_per_s": ("1/s", "higher"),
    "analysis.census_s": ("s", "lower"),
    "analysis.census_hits": ("count", "higher"),
    "core.is_triangular_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

FORMAT_METRICS = ("scanner.format_s", "scanner.format_idx_per_s", "scanner.format_share")
_SPAN_FIELDS = {"id", "parent", "name", "run", "start", "end"}
U64_INDEX_LIMIT = 1 << 32  # as in reference.py, not imported: it would load numpy here


def totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s, and each count summed."""
    covered: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["run"], s["parent"])] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        duration = _duration(s)
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += duration - covered[(s["run"], s["id"])]
        for key, value in s.items():
            if key not in _SPAN_FIELDS:
                agg[key] += value
    return out


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def cli_metrics(spans: list[dict]) -> dict[str, float]:
    """Metrics of the traced CLI commands whose spans are given; 0 where no span ran."""
    t = totals(spans)
    fmt = t["scanner.format_block"]
    formatting_runs = {s["run"] for s in spans if s["name"] == "scanner.format_block"}
    formatting_dispatch = sum(_duration(s) for s in spans
                              if s["name"] == "cli.dispatch" and s["run"] in formatting_runs)
    conjecture = t["analysis.conjecture_no6"]
    return {
        "dispatch_s": t["cli.dispatch"]["total_s"],
        "format_rows": fmt["rows"],
        "scanner.stream_next_s": t["scanner.stream_next"]["total_s"],
        "scanner.format_s": fmt["self_s"],
        "scanner.format_idx_per_s": _ratio(fmt["rows"], fmt["self_s"]),
        "scanner.format_share": _ratio(fmt["self_s"], formatting_dispatch),
        "scanner.checkpoint_save_s": t["scanner.checkpoint_save"]["total_s"],
        "scanner.checkpoint_saves": t["scanner.checkpoint_save"]["calls"],
        "cli.write_s": t["cli.write"]["total_s"],
        "cli.bytes_out": t["cli.write"]["bytes"],
        "analysis.conjecture_s": conjecture["total_s"],
        "analysis.conjecture_idx_per_s": _ratio(conjecture["swept"], conjecture["total_s"]),
        "analysis.census_s": t["analysis.popcount3_census"]["total_s"],
        "analysis.census_hits": t["analysis.popcount3_census"]["hits"],
    }


def self_times(spans: list[dict], classify_share: float) -> dict[str, float]:
    """Self time per layer for one traced repeat.

    The self time of scanner.scan is split into classification and run
    tracking in the proportion the probe measured (classify_share).
    """
    out = {name: agg["self_s"] for name, agg in totals(spans).items()}
    scan_self = out.pop("scanner.scan", 0.0)
    if scan_self:
        out["scanner.scan: classify"] = scan_self * classify_share
        out["scanner.scan: track"] = scan_self * (1 - classify_share)
    return out


def classify_share(probe_spans: list[dict]) -> float:
    """count_vt time / scan time on the same range, from the track probe."""
    scans = [_duration(s) for s in probe_spans if s["name"] == "probe.scan"]
    counts = [_duration(s) for s in probe_spans if s["name"] == "probe.count_vt"]
    return min(1.0, _ratio(median(counts), median(scans))) if scans else 0.0


def per_layer(
    *,
    indexes: int,
    untraced_walls: list[float],
    traced_walls: list[float],
    traced_spans: list[list[dict]],
    side_spans: list[dict],
    probe_spans: list[dict],
    probes: dict,
) -> dict[str, float]:
    """Every PER_LAYER metric, from the traced repeats, side commands and probes."""
    repeats = [cli_metrics(spans) for spans in traced_spans]
    own = {key: median(r[key] for r in repeats) for key in repeats[0]}
    side = cli_metrics(side_spans)
    m = {key: own[key] or side[key] for key in own}
    if side["format_rows"] > own["format_rows"]:
        m.update((key, side[key]) for key in FORMAT_METRICS)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in probe_spans:
        by_name[s["name"]].append(s)

    def median_s(name: str) -> float:
        return median(_duration(s) for s in by_name[name]) if by_name[name] else 0.0

    scans, counts = by_name["probe.scan"], by_name["probe.count_vt"]
    rates = {}
    for name, (lo, hi) in (("probe.count_vt", probes["range"]),
                           ("probe.count_vt_other_tier", probes["other_tier"])):
        tier = "u64" if hi < U64_INDEX_LIMIT else "big"
        rates[f"scanner.classify_{tier}_idx_per_s"] = _ratio(hi - lo + 1, median_s(name))
    runs_kept = scans[0]["runs_kept"] if scans else 0
    flags = by_name["probe.vt_flags"]
    pool = {s["threads"]: _duration(s) for s in by_name["probe.pool"]}
    tri = by_name["probe.is_triangular"]
    out = {
        **rates,
        "scanner.classify_s": median_s("probe.count_vt"),
        "scanner.track_s": median(
            _duration(s) - _duration(c) for s, c in zip(scans, counts)
        ) if scans else 0.0,
        "scanner.runs_kept": runs_kept,
        "scanner.runs_kept_ratio": _ratio(runs_kept, flags[0]["maximal_runs"] if flags else 0),
        "scanner.checkpoint_resume_s": median_s("probe.checkpoint_resume"),
        "scanner.pool_speedup": _ratio(pool[1], pool[max(pool)]) if pool else 0.0,
        "cli.overhead_s": median(untraced_walls) - own["dispatch_s"],
        "cli.wall_s": median(untraced_walls),
        "cli.idx_per_s": indexes / median(untraced_walls),
        "core.is_triangular_per_s": _ratio(tri[0]["calls"], _duration(tri[0])) if tri else 0.0,
        "trace.overhead_ratio": median(traced_walls) / median(untraced_walls),
    }
    out.update((k, v) for k, v in m.items() if k in PER_LAYER)
    return {name: out[name] for name in PER_LAYER}
