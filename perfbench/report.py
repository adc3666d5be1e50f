"""Turns a raw perfbench result into the benchmark's metrics.

The C++ program (perfbench/src) measures and records; everything derived
from its samples and spans is computed here, so the rules below are
unit-tested in perfbench/tests without running a workload:

* A timing percentile is reported only when at least MIN_TAIL samples lie
  beyond it (p90 needs 100 samples, p50 needs 20).
* p50 is taken over all of a run's ops. p90 and obs_per_s are taken per
  window of at least WINDOW consecutive ops, and the run reports the
  median over its windows, so a host slow-down that covers a minority of
  a run's windows does not decide them.
* A layer's time is the sum of its spans; a layer's self time is each
  span's duration minus the part of it that its child spans cover.
* unattributed.ms is the op spans' wall time (set-up and traced ticks or
  studies) minus the top-level layer spans, i.e. the spans whose parent is
  an op span. The two add up to workload.wall_ms by construction.
"""

import json
import math
import statistics

MIN_TAIL = 10
# Ops per window: a p90 over WINDOW ops has MIN_TAIL samples beyond it.
WINDOW = 100

# Per-layer metrics measured as summed span durations: metric -> span name.
SPAN_METRICS = {
    "core.additivity.ms": "core.additivity",
    "core.dataset.ms": "core.dataset",
    "core.selection.ms": "core.selection",
    "ml.fit.lr.ms": "ml.fit.lr",
    "ml.fit.rf.ms": "ml.fit.rf",
    "ml.fit.nn.ms": "ml.fit.nn",
    "ml.fit.stage_ms": "ml.fit.stage",
    "ml.eval.ms": "ml.eval",
    "core.estimator.train_ms": "core.estimator.train",
    "core.trace.synth_ms": "core.trace.synth",
    "ml.rls.seed_ms": "ml.rls.seed",
    "core.serving.ingest_ms": "core.serving.ingest",
    "core.serving.fold_ms": "core.serving.fold",
    "core.query.ms": "core.query",
}

# Per-layer counters copied from the raw values (0 where the layer is not
# exercised by the workload).
COUNT_METRICS = [
    "core.additivity.verdicts",
    "core.dataset.rows",
    "pmc.collection_runs",
    "ml.models",
    "core.serving.observations",
    "core.serving.epochs",
    "core.serving.batches",
    "core.serving.retrains",
    "core.query.calls",
]

OP_PREFIX = "op."

# Span tuple layout written by perfbench/src/main.cpp.
NAME, SEQ, PARENT, ID, TID, START, END = range(7)


def quantile(values, q):
    """Linear-interpolation quantile (the 'inclusive' method)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_count(n, q):
    """Number of samples beyond the q-quantile of n samples."""
    return math.floor(n * (1.0 - q) + 1e-9)


def reportable(n, q):
    return tail_count(n, q) >= MIN_TAIL


def percentile_metric(values, q):
    """The q-quantile of values, or ValueError when too few samples lie
    beyond it to report it."""
    if not reportable(len(values), q):
        raise ValueError(
            f"p{round(q * 100)} of {len(values)} samples has "
            f"{tail_count(len(values), q)} beyond it; {MIN_TAIL} needed")
    return quantile(values, q)


def windows(values):
    """values cut into len(values) // WINDOW consecutive windows of
    near-equal length (one window when there are fewer ops)."""
    k = max(1, len(values) // WINDOW)
    cuts = [round(i * len(values) / k) for i in range(k + 1)]
    return [values[a:b] for a, b in zip(cuts, cuts[1:])]


def windowed_p90(values):
    """Median over windows of each window's p90."""
    percentile_metric(values, 0.9)
    return statistics.median(quantile(w, 0.9) for w in windows(values))


def windowed_rate(counts, ms):
    """Median over windows of sum(counts) per second of sum(ms)."""
    if len(counts) != len(ms) or not ms:
        raise ValueError("rate needs one count per op time")
    return statistics.median(
        sum(c) / (sum(m) / 1e3)
        for c, m in zip(windows(counts), windows(ms)))


def span_ms(span):
    return (span[END] - span[START]) / 1e6


def layer_times(spans):
    """Summed duration (ms) per span name."""
    out = {}
    for s in spans:
        out[s[NAME]] = out.get(s[NAME], 0.0) + span_ms(s)
    return out


def _covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time (ms) per span name: each span minus what its children
    cover. Children may overlap (parallel tasks); the union counts once."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        covered = _covered_ns(s[START], s[END], children.get(s[SEQ], []))
        out[s[NAME]] = out.get(s[NAME], 0.0) + (
            s[END] - s[START] - covered) / 1e6
    return out


def wall_and_unattributed(spans):
    """(workload wall ms, unattributed ms) from the op spans and their
    direct children."""
    ops = {s[SEQ] for s in spans if s[NAME].startswith(OP_PREFIX)}
    wall = sum(span_ms(s) for s in spans if s[SEQ] in ops)
    top = sum(span_ms(s) for s in spans
              if s[PARENT] in ops and not s[NAME].startswith(OP_PREFIX))
    return wall, wall - top


def end_to_end(raw):
    series, values = raw["series"], raw["values"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "study_ms.p50": percentile_metric(series["study_ms"], 0.5),
        "study_ms.p90": windowed_p90(series["study_ms"]),
        "tick_ms.p50": percentile_metric(series["tick_ms"], 0.5),
        "tick_ms.p90": windowed_p90(series["tick_ms"]),
        "obs_per_s": windowed_rate(series["op_obs"], series["op_ms"]),
        "model_err_pct": values["model_err_pct"],
        "staleness_err": values["staleness_err"],
    }


def per_layer(raw):
    spans, values, series = raw["spans"], raw["values"], raw["series"]
    times = layer_times(spans)
    out = {m: times.get(s, 0.0) for m, s in SPAN_METRICS.items()}
    for m in COUNT_METRICS:
        out[m] = values.get(m, 0.0)
    batches = out["core.serving.batches"]
    out["core.serving.rows_per_batch"] = (
        out["core.serving.observations"] / batches if batches else 0.0)
    folds = series.get("fold_ms", [])
    out["core.serving.fold_ms.p50"] = (
        percentile_metric(folds, 0.5) if folds else 0.0)
    out["core.serving.fold_ms.p90"] = (
        percentile_metric(folds, 0.9) if folds else 0.0)
    wall, unattributed = wall_and_unattributed(spans)
    out["workload.wall_ms"] = wall
    out["unattributed.ms"] = unattributed
    ops = list(zip(series["op_ms"], series["op_traced"]))
    traced = statistics.median(ms for ms, t in ops if t)
    untraced = statistics.median(ms for ms, t in ops if not t)
    out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return out


def sample_counts(raw):
    return {name: len(v) for name, v in sorted(raw["series"].items())}


def chrome_trace(raw):
    """Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
    Every span is a complete event; args carry the study/tick id and the
    parent span, so one op's spans can be selected together."""
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": "perfbench " + raw["fingerprint"]["workload"]}}]
    for s in sorted(raw["spans"], key=lambda s: s[START]):
        events.append({
            "name": s[NAME],
            "cat": s[NAME].split(".")[0],
            "ph": "X",
            "pid": 1,
            "tid": s[TID],
            "ts": s[START] / 1e3,
            "dur": (s[END] - s[START]) / 1e3,
            "args": {"id": s[ID], "seq": s[SEQ], "parent": s[PARENT]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": raw["fingerprint"]}


def declared_metrics(bench, trace):
    """{name: unit} of the metrics BENCHMARK.json declares for a run."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_names(metrics, bench, trace):
    """Raises ValueError unless metrics has exactly the declared names."""
    declared = declared_metrics(bench, trace)
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")


def result_line(raw, bench, trace):
    """The benchmark's final output line, as a dict."""
    metrics = per_layer(raw) if trace else end_to_end(raw)
    check_names(metrics, bench, trace)
    units = declared_metrics(bench, trace)
    for name, value in metrics.items():
        if value is None or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number")
    correct = (raw["failed"] == 0 and raw["attempted"] >= 1 and
               all(c["ok"] for c in raw["checks"]))
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def load(path):
    with open(path) as f:
        return json.load(f)
