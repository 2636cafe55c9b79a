#!/usr/bin/env python3
"""restartkit benchmark: drives `restartkit.cli.main` in a closed loop.

    python3 perfbench/run.py --workload collect-casestudy --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ./src). One
client issues a workload's CLI command sequence, waits for it, checks its
outputs and issues the next: a closed loop. A run is a fixed number of
such iterations, as many as take about --seconds on a 2-CPU x86 box.
Before them, the reference inputs run once as a warm-up and their outputs
are compared with `reference.json`.

Inputs. analyze-stub derives each iteration's base seed from --seed. The
two MLP workloads replay the default seed's n base seeds for every
--seed, and --seed only rotates their order: a case-study run's length is heavy-tailed (a censored
run trains 20000 epochs, the median run about 700), so seed-dependent MLP
inputs would move every timing by more than the benchmark's bounds.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first half
of the same iterations twice each, untraced and with span wrappers
installed (see spans.py), and prints the per-layer metrics. The last stdout line is the
JSON result; the lines before it, prefixed with '#', give machine facts
and the full breakdown.

--write-reference regenerates reference.json from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import spans  # noqa: E402

CASE_DATA = "data/thyroidlike-train.data"
CASE_CAP = 20000
STUB = "discrete-pareto:0.5:50"
STUB_LAW = (0.5, 50)
STUB_CAP = 5000
SWEEP_FLAGS = ["--gammas", "2,4", "--luby-unit", "500", "--fixed", "900"]
SWEEP_SCHEDULES = ["walsh:2", "walsh:4", "luby:500", "fixed:900"]


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """One CLI command sequence, sized by `size` (runs or trials).

    `commands(base_seed, size, workdir)` gives the argv lists and
    `check(outputs, base_seed, size)` the problems found per output.
    `units` counts the work of one iteration in `unit`s.
    """

    name: str
    size: int
    reference_size: int
    iteration_s: float
    seed_varies_inputs: bool
    unit: str
    units: Callable[[int], int]
    setup_code: str
    commands: Callable[[int, int, Path], list[list[str]]]
    check: Callable[[dict[str, str], int, int], dict[str, list[str]]]


def _collect_casestudy_commands(base: int, size: int, work: Path) -> list[list[str]]:
    return [
        ["collect", "--data", CASE_DATA, "--runs", str(size), "--seed", str(base),
         "--jobs", "2", "--out", str(work / "runs.jsonl")],
    ]


def _collect_casestudy_check(out: dict[str, str], base: int, size: int) -> dict[str, list[str]]:
    _, recs = check.read_log(out["runs.jsonl"])
    return {
        "runs.jsonl": check.check_log(out["runs.jsonl"], base, size, CASE_CAP),
        "collect.stdout": check.check_collect_stdout(out["collect.stdout"], recs),
    }


def _sweep_commands(base: int, size: int, work: Path) -> list[list[str]]:
    return [
        ["sweep", "--data", CASE_DATA, *SWEEP_FLAGS, "--trials", str(size),
         "--seed", str(base), "--jobs", "2"],
    ]


def _sweep_check(out: dict[str, str], base: int, size: int) -> dict[str, list[str]]:
    return {"sweep.stdout": check.check_sweep(out["sweep.stdout"], SWEEP_SCHEDULES)}


def _analyze_commands(base: int, size: int, work: Path) -> list[list[str]]:
    log = str(work / "runs.jsonl")
    return [
        ["collect", "--stub", STUB, "--stub-cap", str(STUB_CAP), "--runs", str(size),
         "--seed", str(base), "--out", log],
        ["tail", "--runs-file", log, "--survival-out", str(work / "survival.tsv"),
         "--loglog-out", str(work / "loglog.tsv"), "--remaining-out", str(work / "remaining.tsv")],
        ["optimize", "--runs-file", log, "--curve-out", str(work / "curve.tsv")],
    ]


def _analyze_check(out: dict[str, str], base: int, size: int) -> dict[str, list[str]]:
    _, recs = check.read_log(out["runs.jsonl"])
    return {
        "runs.jsonl": check.check_log(out["runs.jsonl"], base, size, STUB_CAP, STUB_LAW),
        "collect.stdout": check.check_collect_stdout(out["collect.stdout"], recs),
        **check.check_tail(out["tail.stdout"], out, recs),
        **check.check_optimize(out["optimize.stdout"], out["curve.tsv"], recs),
    }


_LOAD_DATA = (
    "import restartkit\nfrom restartkit import dataset as ds\n"
    f"ds.scale_min_max(ds.load_thyroid({CASE_DATA!r}))\n"
)

# `iteration_s` is the rough wall time of one iteration on a 2-CPU x86
# box; it sets how many iterations make a run. The reference inputs are
# smaller, because they run once per run as the warm-up.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="collect-casestudy", size=24, reference_size=4, iteration_s=7.5,
            seed_varies_inputs=False, unit="run", units=lambda size: size,
            setup_code=_LOAD_DATA,
            commands=_collect_casestudy_commands, check=_collect_casestudy_check,
        ),
        Workload(
            # A unit is one trial of one schedule; the baseline counts as one.
            name="sweep-casestudy", size=8, reference_size=4, iteration_s=8.0,
            seed_varies_inputs=False, unit="trial",
            units=lambda size: size * (1 + len(SWEEP_SCHEDULES)),
            setup_code=_LOAD_DATA, commands=_sweep_commands, check=_sweep_check,
        ),
        Workload(
            name="analyze-stub", size=20000, reference_size=1000, iteration_s=4.5,
            seed_varies_inputs=True, unit="record", units=lambda size: size,
            setup_code=f"import restartkit\nfrom restartkit import synth\nsynth.parse_law({STUB!r})\n",
            commands=_analyze_commands, check=_analyze_check,
        ),
    )
}


def iteration_seeds(w: Workload, seed: int, n: int) -> list[int]:
    """CLI base seeds of the n iterations of a run seeded with `seed`.

    Base seeds are mixed, not consecutive: the CLI derives run i's seed
    from base ^ i, so small bases would share their runs.
    """
    def derived(s: int, k: int) -> int:
        return check.mix64((s << 20) + k) % (1 << 31)

    if w.seed_varies_inputs:
        return [derived(seed, k) for k in range(n)]
    return [derived(DEFAULT_SEED, (seed + k) % n) for k in range(n)]


# ---------------------------------------------------------------- running


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_commands(cli_main, argvs: list[list[str]], tracer=None) -> tuple[list[str], float, float]:
    stdouts = []
    cpu0, t0 = _cpu_now(), time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        span = tracer.begin("cli.main") if tracer else None
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        if span is not None:
            tracer.end(span)
        stdouts.append(buf.getvalue() if code == 0 else f"# exit {code}\n")
    return stdouts, time.perf_counter() - t0, _cpu_now() - cpu0


def _outputs(argvs: list[list[str]], stdouts: list[str], work: Path) -> dict[str, str]:
    out = {f"{argv[0]}.stdout": text for argv, text in zip(argvs, stdouts)}
    for path in sorted(work.iterdir()):
        if path.is_file() and path.suffix in (".jsonl", ".tsv"):
            out[path.name] = path.read_text(encoding="utf-8")
            path.unlink()
    return out


class Tally:
    """Outputs checked and outputs that failed, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, problems: dict[str, list[str]]) -> None:
        for name, found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(f"{name}: {'; '.join(found[:3])}")


def run_iteration(w: Workload, cli_main, base: int, size: int, work: Path, tally: Tally, tracer=None) -> Iteration:
    argvs = w.commands(base, size, work)
    stdouts, wall, cpu = _run_commands(cli_main, argvs, tracer)
    out = _outputs(argvs, stdouts, work)
    try:
        problems = w.check(out, base, size)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems = {"iteration": [f"unreadable outputs: {exc!r}"]}
    tally.add(problems)
    return Iteration(wall, cpu)


def reference_check(w: Workload, cli_main, work: Path, tally: Tally) -> None:
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))[w.name]
    argvs = w.commands(stored["base_seed"], stored["size"], work)
    stdouts, _, _ = _run_commands(cli_main, argvs)
    out = _outputs(argvs, stdouts, work)
    tally.add(
        {
            f"reference {name}": check.compare_output(name, ref, out.get(name, ""))
            for name, ref in stored["outputs"].items()
        }
    )


def write_reference(cli_main, work: Path) -> None:
    data = {}
    for w in WORKLOADS.values():
        base = iteration_seeds(w, DEFAULT_SEED, 1)[0]
        argvs = w.commands(base, w.reference_size, work)
        stdouts, _, _ = _run_commands(cli_main, argvs)
        data[w.name] = {"base_seed": base, "size": w.reference_size, "outputs": _outputs(argvs, stdouts, work)}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def measure_setup(w: Workload) -> list[float]:
    """Seconds from starting a fresh interpreter to the process being ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", w.setup_code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# ---------------------------------------------------------------- facts


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "unknown",
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": "unknown",
        "source_sha256": "",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        facts["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    if (ROOT / ".git").exists():
        try:
            facts["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    facts["source_sha256"] = digest.hexdigest()
    return facts


# ---------------------------------------------------------------- modes


def measure(w: Workload, cli_main, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    iters = []
    start = time.perf_counter()
    for base in iteration_seeds(w, seed, max(1, round(seconds / w.iteration_s))):
        # Only on a machine far slower than the sizing assumes: stop early
        # rather than overrun the run's time budget.
        if iters and time.perf_counter() - start > 2 * seconds:
            break
        iters.append(run_iteration(w, cli_main, base, w.size, work, tally))
    n = len(iters)
    rss = peak_rss_mb()
    setup = measure_setup(w)
    walls = [it.wall_s for it in iters]
    tail = tail_percentile(walls)
    detail = {
        "iterations": n,
        "size": w.size,
        "unit": w.unit,
        "setup_s": setup,
        "wall_s": walls,
        "wall_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "cpu_s": [it.cpu_s for it in iters],
        "error_rate": tally.failed / tally.attempted,
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "units_per_s": (statistics.median(w.units(w.size) / t for t in walls), "1/s"),
        "cpu_s": (statistics.median(it.cpu_s for it in iters), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {"detail": detail, "metrics": metrics}


def trace(w: Workload, cli_main, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """The first half of the run's iterations, each untraced and traced.

    The iterations are the first ones `measure` runs, so counts such as
    epochs trained repeat exactly between runs with the same seed.
    """
    tracer = spans.Tracer(work / "spans")
    tracer.span_dir.mkdir()
    untraced, traced, recorded = [], [], []
    bases = iteration_seeds(w, seed, max(1, round(seconds / w.iteration_s)))
    bases = bases[: (len(bases) + 1) // 2]
    for k, base in enumerate(bases):
        # Alternate which of the pair runs first, so that drift in the
        # machine's speed does not land on one side of the overhead.
        for traced_now in (k % 2 == 1, k % 2 == 0):
            if not traced_now:
                untraced.append(run_iteration(w, cli_main, base, w.size, work, tally).wall_s)
                continue
            spans.install(tracer)
            try:
                traced.append(run_iteration(w, cli_main, base, w.size, work, tally, tracer).wall_s)
            finally:
                tracer.unwrap_all()
            recorded.extend(tracer.drain())
    metrics = spans.layer_metrics(recorded, len(bases))
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    units = _per_layer_units()
    return {
        "detail": {"iterations": len(bases), "size": w.size, "spans": len(recorded)},
        "metrics": {k: (v, units[k]) for k, v in metrics.items()},
    }


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "restartkit" / "cli.py").is_file() or not (ROOT / CASE_DATA).is_file():
        print(f"perfbench: no restartkit sources under {ROOT}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from restartkit.cli import main as cli_main

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            write_reference(cli_main, work)
            return 0
        w = WORKLOADS[args.workload]
        tally = Tally()
        reference_check(w, cli_main, work, tally)
        mode = trace if args.trace else measure
        result = mode(w, cli_main, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    print("# detail " + json.dumps({"workload": w.name, "seed": args.seed, **result["detail"]}, sort_keys=True))
    for note in tally.notes:
        print(f"# check failed: {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"# {w.name:18s} {name:28s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
