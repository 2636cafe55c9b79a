"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from the recorded spans.

A span is a dict with `id`, `name`, `parent` (the id of the span that was
open when it started, or None), `pid`, `start` and `end` (seconds on the
monotonic clock that `time.perf_counter` reads on Linux, so spans from
forked pool workers line up with the driver's), plus layer attributes such
as `epochs` or `n_jobs`.

Wrappers are installed on module attributes and on the `attempt` method of
the process classes. Pool workers fork from the driver, so wrappers
installed before a pool starts are active in its workers too. Workers exit
without running `atexit` hooks, so a worker appends each span to its own
file the moment the span ends; the driver keeps its spans in memory.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

ATTEMPT_SUFFIX = ".attempt"


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.owner_pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> dict:
        self._count += 1
        pid = os.getpid()
        span = {
            "id": f"{pid}:{self._count}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pid": pid,
            "start": time.perf_counter(),
        }
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        pid = os.getpid()
        if pid == self.owner_pid:
            self.spans.append(span)
            return
        with open(self.span_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def wrap(self, owner: object, attr: str, name: str, describe=None) -> None:
        """Replace `owner.attr` by a traced wrapper until `unwrap_all`.

        `describe(args, kwargs, result)` returns extra span attributes; it
        is called with result None when the call raises.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if describe is not None:
                    span.update(describe(args, kwargs, result))
                tracer.end(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def drain(self) -> list[dict]:
        """All spans recorded so far, driver and workers; clears them."""
        spans, self.spans = self.spans, []
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return spans


def install(tracer: Tracer) -> None:
    """Wrap the layers `restartkit.cli` calls into, and both attempt methods."""
    from restartkit import dataset, mlp, runner, strategies, synth, tailstats

    def record_attrs(args, kwargs, rec):
        if rec is None:
            return {"epochs": 0, "converged": False, "diverged": True}
        return {
            "seed": rec.seed,
            "epochs": rec.epochs,
            "converged": rec.converged,
            "diverged": rec.diverged,
        }

    def sample_attrs(sample):
        if sample is None:
            return {}
        return {
            "records": sample.n_runs,
            "support": len({r.epochs for r in sample.records if r.converged}),
        }

    def collect_attrs(args, kwargs, sample):
        return {"n_jobs": kwargs.get("n_jobs", args[3] if len(args) > 3 else 1)} | (
            sample_attrs(sample)
        )

    def file_attrs(path):
        return {"bytes": os.path.getsize(path)} if os.path.exists(path) else {}

    def save_attrs(args, kwargs, _):
        return file_attrs(args[1]) | {"records": args[0].n_runs}

    def load_attrs(args, kwargs, sample):
        return file_attrs(args[0]) | sample_attrs(sample)

    def ecdf_attrs(args, kwargs, ecdf):
        return {} if ecdf is None else {"support": len(ecdf.support)}

    def mc_attrs(args, kwargs, res):
        n_trials = args[2]
        return {
            "n_jobs": kwargs.get("n_jobs", args[5] if len(args) > 5 else 1),
            "n_trials": n_trials,
            "n_succeeded": 0 if res is None else res.n_succeeded,
        }

    tracer.wrap(mlp.MlpProcess, "attempt", "mlp.attempt", record_attrs)
    tracer.wrap(synth.SyntheticProcess, "attempt", "synth.attempt", record_attrs)
    tracer.wrap(runner, "collect_runs", "runner.collect_runs", collect_attrs)
    tracer.wrap(runner, "save_runs", "runner.save_runs", save_attrs)
    tracer.wrap(runner, "load_runs", "runner.load_runs", load_attrs)
    tracer.wrap(runner, "summary_stats", "runner.summary_stats")
    tracer.wrap(strategies, "evaluate_strategy_mc", "strategies.evaluate_strategy_mc", mc_attrs)
    tracer.wrap(strategies, "expected_time_curve", "strategies.expected_time_curve")
    tracer.wrap(strategies, "optimal_cutoff", "strategies.optimal_cutoff")
    tracer.wrap(strategies, "parse_schedule", "strategies.parse_schedule")
    tracer.wrap(tailstats, "empirical_cdf", "tailstats.empirical_cdf", ecdf_attrs)
    tracer.wrap(tailstats, "remaining_time_profile", "tailstats.remaining_time_profile")
    tracer.wrap(tailstats, "restart_profitable", "tailstats.restart_profitable")
    tracer.wrap(tailstats, "hill_estimator", "tailstats.hill_estimator")
    tracer.wrap(tailstats, "loglog_tail_slope", "tailstats.loglog_tail_slope")
    tracer.wrap(tailstats, "survival_table", "tailstats.survival_table")
    tracer.wrap(dataset, "load_thyroid", "dataset.load_thyroid")
    tracer.wrap(dataset, "scale_min_max", "dataset.scale_min_max")
    tracer.wrap(dataset, "kfold_split", "dataset.kfold_split")
    tracer.wrap(synth, "parse_law", "synth.parse_law")


# ---------------------------------------------------------------- derived


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _children(spans: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault(s["parent"], []).append(s)
    return out


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children may overlap one another (pool workers run side by side), so
    the union of their intervals is subtracted, not their sum.
    """
    kids = _children(spans)
    return {
        s["id"]: duration(s)
        - _covered(s["start"], s["end"], [(c["start"], c["end"]) for c in kids.get(s["id"], [])])
        for s in spans
    }


def _root_of(span: dict, by_id: dict[str, dict]) -> str:
    while span["parent"] is not None and span["parent"] in by_id:
        span = by_id[span["parent"]]
    return span["id"]


def prefix_repeat(spans: list[dict], name: str = "mlp.attempt") -> tuple[int, int]:
    """(repeated epochs, trained epochs) over the attempt spans `name`.

    An attempt on seed s trains epochs 1..e. Epochs that an earlier attempt
    (by start time) in the same pass, the same root span, already trained
    on s are repeats: min(e, longest earlier prefix of s).
    """
    by_id = {s["id"]: s for s in spans}
    attempts = sorted((s for s in spans if s["name"] == name), key=lambda s: s["start"])
    longest: dict[tuple[str, int], int] = {}
    repeated = trained = 0
    for a in attempts:
        key = (_root_of(a, by_id), a.get("seed"))
        prev = longest.get(key, 0)
        repeated += min(a["epochs"], prev)
        trained += a["epochs"]
        longest[key] = max(prev, a["epochs"])
    return repeated, trained


def _attempts_by_pool(spans: list[dict], pool_name: str) -> list[tuple[dict, list[dict]]]:
    kids = _children(spans)
    return [
        (p, [c for c in kids.get(p["id"], []) if c["name"].endswith(ATTEMPT_SUFFIX)])
        for p in spans
        if p["name"] == pool_name
    ]


def pool_efficiency(spans: list[dict], pool_name: str) -> float:
    """Attempt busy time over (jobs x pool wall time), summed over pools."""
    busy = capacity = 0.0
    for pool, attempts in _attempts_by_pool(spans, pool_name):
        busy += sum(duration(a) for a in attempts)
        capacity += pool.get("n_jobs", 1) * duration(pool)
    return busy / capacity if capacity > 0 else 0.0


def straggler_s(spans: list[dict], pool_name: str) -> float:
    """Per pool, the last worker's final attempt end minus the first
    worker's final attempt end; summed over pools."""
    total = 0.0
    for _, attempts in _attempts_by_pool(spans, pool_name):
        last_end: dict[int, float] = {}
        for a in attempts:
            last_end[a["pid"]] = max(last_end.get(a["pid"], a["end"]), a["end"])
        if last_end:
            total += max(last_end.values()) - min(last_end.values())
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], n_iterations: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass of `n_iterations` iterations.

    Times and counts are per iteration; ratios are ratios of totals. A
    layer the workload never reaches reads 0.
    """
    per = 1.0 / n_iterations

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total_s(name):
        return sum(duration(s) for s in named(name))

    mlp = named("mlp.attempt")
    mlp_epochs = sum(a["epochs"] for a in mlp)
    repeated, _ = prefix_repeat(spans)
    synth = named("synth.attempt")
    mc = named("strategies.evaluate_strategy_mc")
    mc_ids = {s["id"] for s in mc}
    mc_attempts = sum(1 for s in spans if s["name"].endswith(ATTEMPT_SUFFIX) and s["parent"] in mc_ids)
    mc_trials = sum(s["n_trials"] for s in mc)
    logs = named("runner.save_runs") + named("runner.load_runs")
    samples = named("runner.collect_runs") + named("runner.load_runs")
    selfs = self_times(spans)
    return {
        "mlp.attempts": len(mlp) * per,
        "mlp.epochs_trained": mlp_epochs * per,
        "mlp.epoch_us": 1e6 * _ratio(sum(duration(a) for a in mlp), mlp_epochs),
        "mlp.useful_epoch_share": _ratio(sum(a["epochs"] for a in mlp if a["converged"]), mlp_epochs),
        "mlp.prefix_repeat_share": _ratio(repeated, mlp_epochs),
        "mlp.diverged": sum(1 for a in mlp if a["diverged"]) * per,
        "runner.collect_s": total_s("runner.collect_runs") * per,
        "runner.pool_efficiency": pool_efficiency(spans, "runner.collect_runs"),
        "runner.straggler_s": straggler_s(spans, "runner.collect_runs") * per,
        "runner.save_s": total_s("runner.save_runs") * per,
        "runner.load_s": total_s("runner.load_runs") * per,
        "runner.log_bytes": sum(s.get("bytes", 0) for s in logs) * per,
        "runner.records": sum(s.get("records", 0) for s in logs) * per,
        "strategies.mc_s": total_s("strategies.evaluate_strategy_mc") * per,
        "strategies.pool_efficiency": pool_efficiency(spans, "strategies.evaluate_strategy_mc"),
        "strategies.attempts_per_trial": _ratio(mc_attempts, mc_trials),
        "strategies.failed_trials": sum(s["n_trials"] - s["n_succeeded"] for s in mc) * per,
        "strategies.curve_s": total_s("strategies.expected_time_curve") * per,
        "strategies.optimal_s": total_s("strategies.optimal_cutoff") * per,
        "tailstats.support": _ratio(sum(s.get("support", 0) for s in samples), len(samples)),
        "tailstats.profile_s": total_s("tailstats.remaining_time_profile") * per,
        "tailstats.profile_calls": len(named("tailstats.remaining_time_profile")) * per,
        "tailstats.ecdf_s": total_s("tailstats.empirical_cdf") * per,
        "tailstats.hill_s": total_s("tailstats.hill_estimator") * per,
        "tailstats.loglog_s": total_s("tailstats.loglog_tail_slope") * per,
        "synth.attempts": len(synth) * per,
        "synth.attempt_us": 1e6 * _ratio(sum(duration(a) for a in synth), len(synth)),
        "dataset.load_s": (total_s("dataset.load_thyroid") + total_s("dataset.scale_min_max")) * per,
        "cli.self_s": sum(selfs[s["id"]] for s in named("cli.main")) * per,
    }
