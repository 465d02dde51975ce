"""Tests of the benchmark's own machinery: seeded generators, span self-time
arithmetic, and failure accounting."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _stats():
    return {"attempted": 0, "correct": 0, "failed": 0, "errors": [],
            "max_rel_gap": 0.0, "bytes_written": 0}


@pytest.mark.parametrize("name,count", [("sweep", 24), ("np-oracle", 20), ("xcheck", 4)])
def test_generator_is_deterministic_per_seed(tmp_path, name, count):
    wl = workloads.make(name, tmp_path)
    first = wl.generate(7, count)
    assert len(first) == count
    assert wl.generate(7, count) == first
    assert wl.generate(8, count) != first


def test_sweep_draws_stay_in_distribution(tmp_path):
    for cfg in workloads.make("sweep", tmp_path).generate(3, 64):
        rho = cfg.r_i / cfg.r_e
        ratio = cfg.r_s / np.sqrt(cfg.r_e**3 / cfg.r_i)
        assert 0.4 <= rho <= 0.6
        assert (0.80 <= ratio <= 0.92) if cfg.resonant else (1.10 <= ratio <= 1.30)
        assert -0.6 * cfg.mu <= cfg.lam <= 3 * cfg.mu


def test_xcheck_pool_holds_resolved_pairs_from_the_sweep_distribution():
    import xcheck_pool

    records = json.loads(workloads.XCHECK_POOL.read_text())
    assert len(records) == xcheck_pool.POOL_SIZE
    for rec in records:
        cfg = workloads.xcheck_input(rec).config
        ratio = cfg.r_s / np.sqrt(cfg.r_e**3 / cfg.r_i)
        assert 0.4 <= cfg.r_i / cfg.r_e <= 0.6
        assert (0.80 <= ratio <= 0.89) if cfg.resonant else (1.10 <= ratio <= 1.30)
        assert 1.12 <= cfg.r_e <= 2.41
        assert rec["delta"] in workloads.DELTA_GRID
        assert rec["modes"] <= xcheck_pool.XCHECK_MAX_MODES


def test_rqmc_prefixes_cover_every_axis_evenly():
    seq = workloads.rqmc(np.random.default_rng(0), 6)
    u = np.array([next(seq) for _ in range(64)])
    for k in (16, 32, 64):
        counts = np.array([np.bincount((u[:k, axis] * 4).astype(int), minlength=4)
                           for axis in range(6)])
        assert np.all(np.abs(counts - k / 4) <= 2)


def test_sweep_cells_visit_every_cell_once_expensive_and_cheap_alternating():
    cells = workloads.sweep_cells(5)
    assert sorted(cells) == [(i, j) for i in range(5) for j in range(5)]
    cost_rank = [j - i for i, j in cells]
    assert cost_rank[:4] == [-4, 4, -3, 3]


def test_self_times_of_a_nested_span_tree():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].  Spans are
    # recorded when they end, so children come before their parents.
    sid = np.array([1, 3, 2, 0])
    t0 = np.array([1.0, 6.0, 5.0, 0.0])
    t1 = np.array([4.0, 7.0, 9.0, 10.0])
    parent = np.array([0, 2, 0, -1])
    assert self_times(sid, t0, t1, parent).tolist() == [3.0, 1.0, 3.0, 3.0]


def test_tracer_self_times_cover_the_traced_wall_time():
    from npshell import harmonics

    original = harmonics.grad_solid_harmonic
    tracer = Tracer()
    pts = np.random.default_rng(1).normal(size=(20000, 3))
    with tracer.active(0):
        assert harmonics.grad_solid_harmonic is not original
        t0 = run.time.perf_counter()
        harmonics.grad_solid_harmonic(3, 1, pts)
        wall = run.time.perf_counter() - t0
    assert harmonics.grad_solid_harmonic is original
    sp = tracer.arrays()
    names = [tracer.names[i] for i in sp["name"]]
    assert names.count("harmonics.grad_solid_harmonic") == 1
    assert names.count("harmonics.eval_ylm") == names.count("harmonics._norm_legendre") == 3
    own = self_times(sp["sid"], sp["t0"], sp["t1"], sp["parent"])
    top = (sp["t1"] - sp["t0"])[sp["parent"] < 0].sum()
    assert own.min() >= 0
    assert own.sum() == pytest.approx(top, rel=1e-9)
    out = metrics.per_layer(tracer, [wall], [wall], 0, 0.0)
    assert out["harmonics.ladder_calls"] == 1
    assert out["harmonics.ylm_calls"] == 3
    assert out["harmonics.ylm_points"] == 3 * 20000
    assert out["harmonics.self_s"] == pytest.approx(top)
    assert metrics.COVERED_MIN <= out["trace.covered_frac"] <= 1.0
    # An op that spends as long again outside every span is not accounted for.
    gap = metrics.per_layer(tracer, [wall + top], [wall], 0, 0.0)
    assert gap["trace.covered_frac"] < metrics.COVERED_MIN
    assert gap["trace.bench_self_s"] == pytest.approx(wall)


def test_corrupted_reference_eigenvalue_is_counted_as_failed(tmp_path):
    wl = workloads.make("np-oracle", tmp_path)
    inp = workloads.NPInput("T", 1, 0, lam=1.0, mu=1.0)
    stats = _stats()
    run.run_one(wl, inp, stats)
    assert (stats["correct"], stats["failed"]) == (1, 0)
    exact = wl.reference
    wl.reference = lambda i: 1.01 * exact(i)
    run.run_one(wl, inp, stats)
    assert (stats["attempted"], stats["correct"], stats["failed"]) == (2, 1, 1)
    assert "relative error" in stats["errors"][0]


def test_an_op_that_raises_is_counted_and_the_run_goes_on(tmp_path):
    wl = workloads.make("sweep", tmp_path)
    cfg = wl.generate(1, 1)[0]
    calls = []

    def overflow(inp):
        calls.append(inp)
        raise OverflowError("(34, 'Numerical result out of range')")

    wl.op = overflow
    stats = _stats()
    for _ in range(3):
        run.run_one(wl, cfg, stats)
    assert len(calls) == 3
    assert (stats["attempted"], stats["failed"]) == (3, 3)
    assert stats["errors"][0].endswith("OverflowError: (34, 'Numerical result out of range')")


def test_sweep_check_rejects_a_wrong_verdict(tmp_path):
    wl = workloads.make("sweep", tmp_path)
    cfg = next(c for c in wl.generate(2, 8) if c.resonant)
    assert wl.check(cfg, wl.op(cfg)).error is None
    flipped = workloads.ShellConfig(cfg.r_i, cfg.r_e, cfg.r_s, cfg.lam, cfg.mu, resonant=False)
    assert "verdict" in wl.check(flipped, 0).error
    assert wl.check(cfg, 2).error == "exit code 2"
    wl.cleanup()


def test_timings_are_scaled_to_the_reference_host_speed():
    lat, setups = [0.4, 0.1, 0.2], [0.2, 0.1, 0.3]
    base = metrics.end_to_end(setups, [1.0] * 3, lat, [1.0] * 3, 3, 1.5, 40.0)
    assert base == pytest.approx(
        {"setup_s": 0.2, "ops_per_s": 2.0, "op_p50_ms": 200.0, "peak_rss_mb": 40.0})
    fast = metrics.end_to_end(setups, [2.0] * 3, lat, [2.0] * 3, 3, 1.5, 40.0)
    assert (fast["setup_s"], fast["ops_per_s"], fast["op_p50_ms"]) == pytest.approx(
        (0.4, 1.0, 400.0))
    mixed = metrics.end_to_end(setups, [1.0, 1.0, 0.1], lat, [1.0, 4.0, 0.5], 3, 1.5, 40.0)
    assert mixed["op_p50_ms"] == pytest.approx(400.0)  # scaled latencies 0.4, 0.4, 0.1
    assert mixed["setup_s"] == pytest.approx(0.1)  # scaled set-ups 0.2, 0.1, 0.03


def test_host_speed_of_an_op_uses_the_samples_on_both_sides():
    import hostspeed

    host = hostspeed.HostSpeed()
    host.batches = [[0.007], [0.014, 0.014], [0.0035]]
    assert host.op_speeds() == pytest.approx([0.5, 0.5])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    pct, value, beyond = metrics.tail([float(i) for i in range(1, 41)])
    assert (pct, value, beyond) == (75.0, 30.0, 10)
    assert np.isnan(metrics.tail([1.0] * 10)[1])
