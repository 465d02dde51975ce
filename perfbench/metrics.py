"""Metric definitions and their arithmetic: end-to-end figures from op
latencies, per-layer figures from the traced run's spans."""

from __future__ import annotations

import math
import statistics

import numpy as np

from spans import LAYERS, Tracer, self_times

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "transmission.synth_s": "s/op",
    "transmission.solve_s": "s/op",
    "transmission.modal_energy_s": "s/op",
    "transmission.farfield_s": "s/op",
    "transmission.self_s": "s/op",
    "transmission.modes_solved": "count/op",
    "transmission.modes_kept": "count/op",
    "transmission.solve_useful_ratio": "ratio",
    "potentials.calls": "count/op",
    "potentials.self_s": "s/op",
    "harmonics.self_s": "s/op",
    "harmonics.legendre_s": "s/op",
    "harmonics.ylm_calls": "count/op",
    "harmonics.ylm_points": "count/op",
    "harmonics.ladder_calls": "count/op",
    "harmonics.bytes_computed": "B/op",
    "kelvin.self_s": "s/op",
    "kelvin.kernel_blocks": "count/op",
    "kelvin.bytes_computed": "B/op",
    "oracle.energy_quad_s": "s/op",
    "oracle.np_quad_s": "s/op",
    "oracle.node_builds": "count/op",
    "oracle.node_reuse_ratio": "ratio",
    "oracle.fsum_s": "s/op",
    "oracle.fsum_values": "count/op",
    "oracle.self_s": "s/op",
    "oracle.max_rel_gap": "1",
    "trace.wall_s": "s/op",
    "trace.bench_self_s": "s/op",
    "trace.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count/op",
}

# Inclusive stage times: the summed duration of every span of that function.
STAGES = {
    "transmission.synth_s": ("transmission.synth_source",),
    "transmission.solve_s": ("transmission.solve_source",),
    "transmission.modal_energy_s": ("transmission.mode_energy",),
    "transmission.farfield_s": ("transmission.farfield_sample",),
    "harmonics.legendre_s": ("harmonics._norm_legendre",),
    "oracle.energy_quad_s": ("oracle.quad_energy_shell",),
    "oracle.np_quad_s": ("oracle.quad_np_apply",),
    "oracle.fsum_s": ("oracle.fsum_c",),
}
LADDERS = tuple(
    f"harmonics.{k}_{kind}solid_harmonic" for k in ("grad", "hess") for kind in ("", "irregular_")
)
KERNELS = tuple(f"kelvin.{f}" for f in (
    "gamma_laplace", "kelvin_matrix", "k1_kernel", "k2_kernel", "traction_kernel"))
NODE_BUILDS = ("oracle.QuadratureRule.surface_nodes", "oracle.QuadratureRule.polar_nodes")
COMPLEX_BYTES = 16
# The layers' self times account for a traced op when they cover at least
# this share of its wall time; the rest is the benchmark's own time
# (`trace.bench_self_s`), or library work the tracer does not see.
COVERED_MIN = 0.99


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile with at least `beyond` ops above it.

    Returns (percentile, value, ops beyond); (nan, nan, 0) when there are
    too few ops for any percentile to have `beyond` ops above it.
    """
    n = len(latencies)
    if n <= beyond:
        return math.nan, math.nan, 0
    rank = n - beyond  # 1-based rank of the reported op
    ordered = sorted(latencies)
    return 100.0 * rank / n, ordered[rank - 1], beyond


def end_to_end(setups: list[float], setup_speeds: list[float], latencies: list[float],
               speeds: list[float], correct: int, op_wall: float,
               peak_rss_mb: float) -> dict[str, float]:
    """Each set-up sample and op latency is scaled by the host speed measured
    next to it (see hostspeed.py); op_wall is the timed phase less the
    reference kernel."""
    scaled = [t * s for t, s in zip(latencies, speeds)]
    return {
        "setup_s": statistics.median(t * s for t, s in zip(setups, setup_speeds)),
        "ops_per_s": correct / (op_wall * sum(scaled) / sum(latencies)),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float],
              bytes_written: int, max_rel_gap: float) -> dict[str, float]:
    """Per-op means of the per-layer metrics over the traced ops."""
    sp = tracer.arrays()
    names = np.array(tracer.names + [""])
    layer_of = np.array(tracer.layer_of + [-1])
    ops = max(len(traced_walls), 1)
    selft = self_times(sp["sid"], sp["t0"], sp["t1"], sp["parent"])
    dur = sp["t1"] - sp["t0"]
    span_names = names[sp["name"]] if len(sp["name"]) else np.array([], dtype=str)
    span_layers = layer_of[sp["name"]] if len(sp["name"]) else np.array([], dtype=int)

    def where(qualnames) -> np.ndarray:
        return np.isin(span_names, list(qualnames))

    def count(qualnames) -> float:
        return float(np.count_nonzero(where(qualnames))) / ops

    def total(values, mask) -> float:
        return float(values[mask].sum()) / ops

    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = total(selft, span_layers == i)
    for metric, fns in STAGES.items():
        out[metric] = total(dur, where(fns))
    out["cli.bytes_written"] = bytes_written / ops
    solved = count(("transmission.solve_mode",))
    kept = total(sp["size"], where(("transmission.energy",)))
    out["transmission.modes_solved"] = solved
    out["transmission.modes_kept"] = kept
    out["transmission.solve_useful_ratio"] = kept / solved if solved else 0.0
    out["potentials.calls"] = total(np.ones_like(dur), span_layers == LAYERS.index("potentials"))
    ylm = where(("harmonics.eval_ylm",))
    harm = span_layers == LAYERS.index("harmonics")
    out["harmonics.ylm_calls"] = count(("harmonics.eval_ylm",))
    out["harmonics.ylm_points"] = total(sp["size"], ylm)
    out["harmonics.ladder_calls"] = count(LADDERS)
    out["harmonics.bytes_computed"] = (total(sp["size"], harm & ~ylm)
                                       + COMPLEX_BYTES * out["harmonics.ylm_points"])
    out["kelvin.kernel_blocks"] = count(KERNELS)
    out["kelvin.bytes_computed"] = total(sp["size"], span_layers == LAYERS.index("kelvin"))
    builds = sum(tracer.node_sets.values())
    out["oracle.node_builds"] = count(NODE_BUILDS)
    out["oracle.node_reuse_ratio"] = len(tracer.node_sets) / builds if builds else 0.0
    out["oracle.fsum_values"] = total(sp["size"], where(("oracle.fsum_c",)))
    out["oracle.max_rel_gap"] = max_rel_gap
    wall = sum(traced_walls)
    top = total(dur, sp["parent"] < 0) * ops
    out["trace.wall_s"] = wall / ops
    out["trace.bench_self_s"] = (wall - top) / ops
    layers_self = sum(out[f"{layer}.self_s"] for layer in LAYERS) * ops
    out["trace.covered_frac"] = layers_self / wall if wall else 0.0
    base = sum(untraced_walls)
    out["trace.overhead_frac"] = (wall - base) / base if base else 0.0
    out["trace.spans"] = len(dur) / ops
    return {k: out[k] for k in PER_LAYER}
