"""Output checks for the benchmark.

Two kinds:

* Reference comparison. Outputs of the reference inputs are compared with
  the values stored in `reference.json`. TSV tables are compared by header
  name, so a column the program adds later is not a failure; a table
  whose first column is `statistic` is matched by that key, so added
  statistics are not failures either. Integers must match exactly, floats
  to a relative 1e-9, other cells as text. Run-log records must match line
  for line; the log header must carry the reference's keys and values.
* Recomputation. Outputs of the timed inputs are recomputed from their run
  log here, in plain Python and independently of the program: the seed
  mixer, the stub draws, the summary line, the survival, log-log,
  remaining-time and expected-time tables.

Every function returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import math
import re
import statistics

_INT = re.compile(r"-?\d+")
_MASK64 = (1 << 64) - 1
REL_TOL = 1e-9


# ---------------------------------------------------------------- parsing


def parse_tsv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def _as_number(cell: str):
    if _INT.fullmatch(cell):
        return int(cell)
    try:
        return float(cell)
    except ValueError:
        return None


def cells_match(ref: str, out: str) -> bool:
    a, b = _as_number(ref), _as_number(out)
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if a is None or b is None or isinstance(a, int) != isinstance(b, int):
        return ref == out
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# ---------------------------------------------------------------- reference


def compare_table(ref_text: str, out_text: str) -> list[str]:
    ref_head, ref_rows = parse_tsv(ref_text)
    out_head, out_rows = parse_tsv(out_text)
    missing = [h for h in ref_head if h not in out_head]
    if missing:
        return [f"missing columns {missing}"]
    col = {h: out_head.index(h) for h in ref_head}
    if ref_head and ref_head[0] == "statistic":
        by_key = {row[col["statistic"]]: row for row in out_rows}
        pairs = [(r, by_key.get(r[0])) for r in ref_rows]
    elif len(ref_rows) != len(out_rows):
        return [f"{len(out_rows)} rows, reference has {len(ref_rows)}"]
    else:
        pairs = list(zip(ref_rows, out_rows))
    problems = []
    for ref_row, out_row in pairs:
        if out_row is None:
            problems.append(f"missing row {ref_row[0]!r}")
            continue
        for i, h in enumerate(ref_head):
            if not cells_match(ref_row[i], out_row[col[h]]):
                problems.append(f"row {ref_row[0]!r} column {h!r}: {out_row[col[h]]!r} != {ref_row[i]!r}")
    return problems


def compare_log(ref_text: str, out_text: str) -> list[str]:
    ref_lines, out_lines = ref_text.splitlines(), out_text.splitlines()
    if not out_lines:
        return ["empty run log"]
    ref_header, out_header = json.loads(ref_lines[0]), json.loads(out_lines[0])
    problems = [f"header {k!r}" for k, v in ref_header.items() if out_header.get(k) != v]
    if ref_lines[1:] != out_lines[1:]:
        problems.append("run-log records differ")
    return problems


def compare_output(name: str, ref_text: str, out_text: str) -> list[str]:
    if name.endswith(".jsonl"):
        return compare_log(ref_text, out_text)
    return compare_table(ref_text, out_text)


# ---------------------------------------------------------------- recomputation


def mix64(x: int) -> int:
    """SplitMix64 finalizer, the seed derivation the run-log format pins."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def pareto_draw(seed: int, alpha: float, x_min: int) -> int:
    """Inverse-CDF discrete Pareto draw for one seed, as the stub defines it."""
    u = mix64(seed) / float(2**64)
    return math.ceil(x_min * (1.0 - u) ** (-1.0 / alpha))


def _close(printed: str, value: float) -> bool:
    """`printed` equals `value` up to the rounding of its last digit."""
    digits = len(printed.split(".")[1]) if "." in printed else 0
    return abs(float(printed) - value) <= 0.5 * 10.0**-digits + REL_TOL * abs(value)


def read_log(text: str) -> tuple[dict, list[dict]]:
    lines = text.splitlines()
    return json.loads(lines[0]), [json.loads(ln) for ln in lines[1:] if ln.strip()]


def check_log(text: str, base_seed: int, n_runs: int, cap: int, pareto=None) -> list[str]:
    """Seeds, censoring and (for the Pareto stub) every drawn epoch count."""
    header, recs = read_log(text)
    problems = []
    if header.get("cap") != cap:
        problems.append(f"cap {header.get('cap')} != {cap}")
    if len(recs) != n_runs:
        return problems + [f"{len(recs)} records, expected {n_runs}"]
    for i, r in enumerate(recs):
        seed = mix64(base_seed ^ i)
        if r["seed"] != seed:
            problems.append(f"record {i}: seed {r['seed']} != {seed}")
        elif not r["converged"] and not r.get("diverged") and r["epochs"] != cap:
            problems.append(f"record {i}: censored at {r['epochs']} != cap")
        elif not 1 <= r["epochs"] <= cap:
            problems.append(f"record {i}: epochs {r['epochs']} out of range")
        elif pareto is not None:
            t = pareto_draw(seed, *pareto)
            expect = (t, True) if t <= cap else (cap, False)
            if (r["epochs"], r["converged"]) != expect:
                problems.append(f"record {i}: {r['epochs']} != draw {t}")
        if len(problems) > 5:
            break
    return problems


def _converged(recs: list[dict]) -> list[int]:
    return [r["epochs"] for r in recs if r["converged"]]


def check_collect_stdout(stdout: str, recs: list[dict]) -> list[str]:
    head, rows = parse_tsv(stdout)
    if head != ["n_runs", "converged", "censored", "mean", "stddev", "ratio"] or len(rows) != 1:
        return ["unexpected collect report layout"]
    n, conv, cens, mean, sd, ratio = rows[0]
    eps = _converged(recs)
    m = statistics.fmean(eps)
    s = statistics.stdev(eps)
    problems = []
    if (int(n), int(conv), int(cens)) != (len(recs), len(eps), len(recs) - len(eps)):
        problems.append("run counts differ from the log")
    if not (_close(mean, m) and _close(sd, s) and _close(ratio.rstrip("%"), 100.0 * s / m)):
        problems.append("summary statistics differ from the log")
    return problems


def cdf_rows(recs: list[dict]) -> list[tuple[int, float]]:
    """(t, q(t)) at each distinct converged time, censored runs in the denominator."""
    counts: dict[int, int] = {}
    for t in _converged(recs):
        counts[t] = counts.get(t, 0) + 1
    rows, cum = [], 0
    for t in sorted(counts):
        cum += counts[t]
        rows.append((t, cum / len(recs)))
    return rows


def check_tail(stdout: str, files: dict[str, str], recs: list[dict]) -> dict[str, list[str]]:
    """Problems per output of `tail` with all three plot outputs."""
    surv = [(t, 1.0 - q) for t, q in cdf_rows(recs)]
    eps = sorted(_converged(recs))
    out: dict[str, list[str]] = {}

    expect = "t\tsurvival\n" + "".join(f"{t}\t{s:.10g}\n" for t, s in surv)
    out["survival.tsv"] = [] if files["survival.tsv"] == expect else ["survival table differs"]
    expect = "log_t\tlog_survival\n" + "".join(
        f"{math.log(t):.10g}\t{math.log(s):.10g}\n" for t, s in surv if s > 0.0
    )
    out["loglog.tsv"] = [] if files["loglog.tsv"] == expect else ["log-log table differs"]

    # Exact conditional means: sums of integers divided once.
    total, n_conv = sum(eps), len(eps)
    profile = []
    j = 0
    for tau in [0] + [t for t, _ in surv[:-1]]:
        while j < n_conv and eps[j] <= tau:
            total -= eps[j]
            j += 1
        n = n_conv - j
        profile.append((tau, (total - tau * n) / n, n))
    head, rows = parse_tsv(files["remaining.tsv"])
    problems = []
    if head[:3] != ["tau", "expected_remaining", "n"] or len(rows) != len(profile):
        problems.append("remaining-time table layout differs")
    else:
        for row, (tau, mean, n) in zip(rows, profile):
            if int(row[0]) != tau or int(row[2]) != n or row[1] != f"{mean:.6f}":
                problems.append(f"remaining-time row tau={tau} differs")
                break
    out["remaining.tsv"] = problems

    stats = dict(row[:2] for row in parse_tsv(stdout)[1])
    profitable = [tau for tau, mean, _ in profile[1:] if mean > profile[0][1]]
    problems = []
    if stats.get("converged") != str(n_conv) or stats.get("censored") != str(len(recs) - n_conv):
        problems.append("run counts differ from the log")
    if profitable:
        if stats.get("first_profitable_tau") != str(profitable[0]) or not stats.get(
            "restart_profitable", ""
        ).startswith(f"yes ({len(profitable)} tau"):
            problems.append("profitability verdict differs")
    elif not stats.get("restart_profitable", "").startswith("no"):
        problems.append("profitability verdict differs")
    r = max(2, int(0.1 * n_conv))
    if eps[-1] == eps[n_conv - r - 1]:
        hill_ok = stats.get("hill_alpha", "").startswith("n/a")
    else:
        h = statistics.fmean(math.log(v) for v in eps[n_conv - r :]) - math.log(eps[n_conv - r - 1])
        hill_ok = _close(stats.get("hill_alpha", "nan"), 1.0 / h)
    if stats.get("hill_r") != str(r) or not hill_ok:
        problems.append("Hill estimate differs")
    n_tail = math.ceil(0.1 * n_conv)
    pts = [(math.log(t), math.log(s)) for t, s in surv if t >= eps[n_conv - n_tail] and s > 0.0]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
    if not _close(stats.get("loglog_tail_slope", "nan"), slope):
        problems.append("log-log tail slope differs")
    out["tail.stdout"] = problems
    return out


def check_optimize(stdout: str, curve: str, recs: list[dict]) -> dict[str, list[str]]:
    """Problems per output of `optimize --curve-out`.

    E[S_t] = (t - sum_{t'<t} q(t')) / q(t), accumulated over the support in
    the same order as the program, so the printed digits must agree.
    """
    rows_q = cdf_rows(recs)
    lines, running = [], 0.0
    best_t, best_e = rows_q[0][0], math.inf
    for j, (t, q) in enumerate(rows_q):
        e = (t - running) / q
        lines.append(f"{t}\t{e:.6f}\n")
        if e < best_e:
            best_t, best_e = t, e
        if j + 1 < len(rows_q):
            running += q * (rows_q[j + 1][0] - t)
    out = {"curve.tsv": [] if curve == "t\texpected_epochs\n" + "".join(lines) else ["curve differs"]}
    _, rows = parse_tsv(stdout)
    eps = _converged(recs)
    mean = sum(eps) / len(eps)
    expect = [str(best_t), f"{best_e:.3f}", f"{mean:.3f}", f"{100.0 * (mean - best_e) / mean:.1f}%"]
    out["optimize.stdout"] = [] if rows and rows[0][:4] == expect else ["optimum differs"]
    return out


def check_sweep(stdout: str, schedules: list[str]) -> list[str]:
    """Layout and internal consistency of a `sweep` report."""
    head, rows = parse_tsv(stdout)
    if head[:5] != ["schedule", "mean_epochs", "stderr", "failure_rate", "reduction"]:
        return ["unexpected sweep report layout"]
    if [r[0] for r in rows] != ["none"] + schedules:
        return [f"schedules {[r[0] for r in rows]} != {['none'] + schedules}"]
    base = float(rows[0][1])
    problems = []
    for r in rows:
        mean, fr = float(r[1]), float(r[3])
        if not (mean > 0 and float(r[2]) >= 0 and 0.0 <= fr < 1.0):
            problems.append(f"{r[0]}: implausible row {r}")
        elif not _close(r[4].rstrip("%"), 100.0 * (base - mean) / base):
            problems.append(f"{r[0]}: reduction inconsistent with means")
    return problems
