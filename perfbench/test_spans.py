"""Derived per-layer metrics on hand-made span lists.

These tests start no processes and train no network.
"""

import pytest

import spans as sp


def span(id_, name, start, end, parent=None, pid=1, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "pid": pid, **attrs}


def attempt(id_, parent, start, end, seed, epochs, pid=1, converged=True):
    return span(id_, "mlp.attempt", start, end, parent, pid, seed=seed, epochs=epochs,
                converged=converged, diverged=False)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span("root", "cli.main", 0.0, 10.0),
        span("a", "runner.collect_runs", 1.0, 4.0, "root"),
        span("b", "runner.save_runs", 3.0, 6.0, "root"),  # overlaps a by 1 s
        span("c", "x", 8.0, 12.0, "root"),  # runs past the parent's end
        span("a1", "mlp.attempt", 1.5, 2.0, "a"),
    ]
    selfs = sp.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["a"] == pytest.approx(3.0 - 0.5)
    assert selfs["a1"] == pytest.approx(0.5)


def test_prefix_repeat_counts_retraced_epochs_within_a_pass():
    spans = [
        span("p1", "cli.main", 0.0, 100.0),
        span("mc", "strategies.evaluate_strategy_mc", 0.0, 100.0, "p1", n_jobs=2, n_trials=2, n_succeeded=2),
        attempt("1", "mc", 1.0, 2.0, seed=7, epochs=10, converged=False),
        attempt("2", "mc", 3.0, 4.0, seed=7, epochs=40, pid=2),  # 10 repeated
        attempt("3", "mc", 5.0, 6.0, seed=7, epochs=25),  # all 25 repeated
        attempt("4", "mc", 7.0, 8.0, seed=9, epochs=5),  # new seed
        # A second pass starts from nothing.
        span("p2", "cli.main", 200.0, 300.0),
        attempt("5", "p2", 201.0, 202.0, seed=7, epochs=30),
    ]
    repeated, trained = sp.prefix_repeat(spans)
    assert (repeated, trained) == (35, 110)
    assert sp.layer_metrics(spans, 1)["mlp.prefix_repeat_share"] == pytest.approx(35 / 110)


def test_prefix_repeat_is_zero_for_distinct_seeds():
    spans = [span("p", "cli.main", 0.0, 9.0)] + [
        attempt(str(i), "p", i, i + 0.5, seed=100 + i, epochs=50) for i in range(5)
    ]
    assert sp.prefix_repeat(spans) == (0, 250)


def test_pool_efficiency_and_straggler():
    # Two workers in a 10 s pool with 2 jobs: worker 1 busy 0-4 and 4-9,
    # worker 2 busy 0-6; busy 15 s of a 20 s capacity.
    spans = [
        span("c", "runner.collect_runs", 0.0, 10.0, n_jobs=2),
        attempt("1", "c", 0.0, 4.0, seed=1, epochs=1, pid=11),
        attempt("2", "c", 4.0, 9.0, seed=2, epochs=1, pid=11),
        attempt("3", "c", 0.0, 6.0, seed=3, epochs=1, pid=12),
        span("other", "runner.save_runs", 10.0, 11.0),
    ]
    assert sp.pool_efficiency(spans, "runner.collect_runs") == pytest.approx(0.75)
    assert sp.straggler_s(spans, "runner.collect_runs") == pytest.approx(3.0)


def test_pool_metrics_sum_over_pools_and_handle_serial():
    spans = [
        span("c1", "runner.collect_runs", 0.0, 2.0, n_jobs=1),
        attempt("1", "c1", 0.0, 1.0, seed=1, epochs=1),
        span("c2", "runner.collect_runs", 5.0, 9.0, n_jobs=2),
        attempt("2", "c2", 5.0, 9.0, seed=2, epochs=1, pid=3),
        attempt("3", "c2", 5.0, 7.0, seed=3, epochs=1, pid=4),
    ]
    # busy 1 + 6 over capacity 1*2 + 2*4
    assert sp.pool_efficiency(spans, "runner.collect_runs") == pytest.approx(0.7)
    assert sp.straggler_s(spans, "runner.collect_runs") == pytest.approx(2.0)
    assert sp.pool_efficiency([], "runner.collect_runs") == 0.0


def test_layer_metrics_per_iteration_and_absent_layers():
    spans = [
        span("m", "cli.main", 0.0, 4.0),
        span("c", "runner.collect_runs", 0.0, 3.0, "m", n_jobs=1, records=2, support=2),
        attempt("1", "c", 0.0, 1.0, seed=1, epochs=100),
        attempt("2", "c", 1.0, 3.0, seed=2, epochs=300, converged=False),
    ]
    m = sp.layer_metrics(spans, 2)
    assert m["mlp.attempts"] == 1.0
    assert m["mlp.epochs_trained"] == 200.0
    assert m["mlp.epoch_us"] == pytest.approx(1e6 * 3.0 / 400)
    assert m["mlp.useful_epoch_share"] == pytest.approx(0.25)
    assert m["cli.self_s"] == pytest.approx(0.5)
    assert m["synth.attempt_us"] == 0.0
    assert m["strategies.attempts_per_trial"] == 0.0
