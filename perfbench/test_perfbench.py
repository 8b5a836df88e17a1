"""Tests of the benchmark's own machinery.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ssattn import blocks as ss_blocks  # noqa: E402
from ssattn import layer as ss_layer  # noqa: E402
from ssattn import model as ss_model  # noqa: E402
from ssattn.tensor import Rng  # noqa: E402

TINY = ss_model.ModelConfig("tiny", (1, 1, 1, 1), (8, 16, 24, 32), (2, 2, 2, 2), classes=5)


def _tiny_state():
    return TINY, ss_model.build_model(TINY, Rng(3))


def _image(H=32, W=36, seed=0):
    return np.random.default_rng(seed).standard_normal((3, H, W), dtype=np.float32)


@pytest.mark.parametrize("perturb", [
    lambda y: np.where(np.arange(y.size) == 2, np.nan, y).astype(np.float32),
    lambda y: np.where(np.arange(y.size) == 0, np.inf, y).astype(np.float32),
    lambda y: y.astype(np.float64),
    lambda y: y[:-1],
    lambda y: y.tolist(),
])
def test_perturbed_logits_fail_the_op_check(perturb):
    state = _tiny_state()
    x = _image()
    wl = workloads.Classify("classify-224", 0, HERE, mixed=False)
    logits = wl.op(state, x)
    assert wl.check(state, x, logits)
    assert not wl.check(state, x, perturb(logits))


def test_perturbed_gradients_fail_the_op_check():
    wl = workloads.TrainStep(0)
    params = wl.setup()
    x, cot = wl.make_input(1)
    grads = {"grad_x": np.zeros_like(x)}
    for field in ("w_qkv", "b_qkv", "w_out", "b_out", "lce_filt", "lce_bias"):
        grads[f"grad_{field}"] = np.zeros_like(getattr(params, field))
    y = np.zeros_like(x)
    assert wl.check(params, (x, cot), (y, grads))
    bad = dict(grads, grad_w_out=np.full_like(grads["grad_w_out"], np.nan))
    assert not wl.check(params, (x, cot), (y, bad))
    missing = {k: v for k, v in grads.items() if k != "grad_lce_bias"}
    assert not wl.check(params, (x, cot), (y, missing))


class _Stub:
    """A workload whose output is corrupted (or raises) on chosen ops."""

    name = "stub"

    def __init__(self, corrupt, raises=()):
        self.corrupt, self.raises = set(corrupt), set(raises)

    def make_input(self, i):
        return i

    def op(self, state, i):
        if i in self.raises:
            raise FloatingPointError("boom")
        out = np.ones(4, dtype=np.float32)
        if i in self.corrupt:
            out[1] = np.nan
        return out

    def check(self, state, i, out):
        return workloads.finite_f32(out, (4,))

    def macs(self, state, i):
        return 10

    def digest(self, out):
        return out.tobytes()


def test_loop_counts_perturbed_and_raising_ops_as_failed():
    loop = run.Loop(_Stub(corrupt={1, 3}, raises={4}), None)
    for i in range(6):
        loop.run_op(i, keep_digest=True)
    assert loop.failed == 3
    assert len(loop.times) == 6 and loop.macs == 60
    assert loop.digests[1] == b"" and loop.digests[0] != b""


def test_sampled_oracle_check_catches_a_perturbed_layer(monkeypatch):
    state = _tiny_state()
    wl = workloads.Classify("classify-mixed", 0, HERE, mixed=True)
    good = wl.sampled_check(state, _image())
    assert good["passed"] and good["input_shape"] == [8, 8, 9]  # the largest map
    original = ss_blocks.s3a_forward

    def off_by_a_bit(x, params, cfg):
        out, saved = original(x, params, cfg)
        return out + np.float32(1e-3), saved

    monkeypatch.setattr(ss_blocks, "s3a_forward", off_by_a_bit)
    assert not wl.sampled_check(state, _image())["passed"]


def test_directional_check_catches_a_perturbed_gradient(monkeypatch):
    wl = workloads.TrainStep(0)
    params = wl.setup()
    inp = wl.make_input(0)
    assert wl.sampled_check(params, inp)["passed"]
    original = ss_layer.s3a_backward

    def scaled(grad_out, saved):
        grads = original(grad_out, saved)
        return dict(grads, grad_x=grads["grad_x"] * 1.001)

    monkeypatch.setattr(ss_layer, "s3a_backward", scaled)
    assert not wl.sampled_check(params, inp)["passed"]


@pytest.mark.parametrize("field, factor", [("grad_x", 1.05), ("y", 1.001)])
def test_directional_check_catches_a_perturbed_float32_op(monkeypatch, field, factor):
    wl = workloads.TrainStep(0)
    params = wl.setup()
    inp = wl.make_input(1)
    original = wl.op

    def perturbed(state, x):
        y, grads = original(state, x)
        if field == "y":
            return y * np.float32(factor), grads
        return y, dict(grads, grad_x=grads["grad_x"] * np.float32(factor))

    monkeypatch.setattr(wl, "op", perturbed)
    result = wl.sampled_check(params, inp)
    assert result["rel_err_f64"] <= workloads.DIRECTIONAL_TOL
    assert not result["passed"]


def test_traced_forward_is_bitwise_equal_and_covers_count_flops():
    cfg, params = _tiny_state()
    x = _image()
    plain = ss_model.model_forward(x, params, cfg)
    original_conv = ss_blocks.conv2d
    with spans.Tracer() as tracer:
        tracer.op = 1
        traced = ss_model.model_forward(x, params, cfg)
    assert ss_blocks.conv2d is original_conv
    assert plain.tobytes() == traced.tobytes()
    assert tracer.absent == [] and tracer.meter_errors == []
    assert spans.op_macs(tracer.spans) == {1: ss_model.count_flops(cfg, 32, 36).total()}
    wall = max(s.end for s in tracer.spans) - min(s.start for s in tracer.spans)
    m = spans.layer_metrics(tracer.spans, [1], wall, [])
    assert m["kernel.index_map.calls"]["value"] == 4 * 2 * 2  # blocks x sweeps x (scores, aggregate)
    assert m["trace.coverage"]["value"] == pytest.approx(1.0)
    assert m["kernel.local.backward_s"]["value"] == 0.0


def test_index_map_repeats_within_and_across_ops():
    cfg, params = _tiny_state()
    original_conv = ss_blocks.conv2d
    tracer = spans.Tracer()
    for op in (1, 2):  # entered once per op, as the traced run does
        with tracer:
            tracer.op = op
            ss_model.model_forward(_image(), params, cfg)
        assert ss_blocks.conv2d is original_conv
    flops = ss_model.count_flops(cfg, 32, 36).total()
    assert spans.op_macs(tracer.spans) == {1: flops, 2: flops}
    # per op: 4 stages x 2 sweeps distinct geometries, each asked for by scores and aggregate
    assert spans.index_map_repeats(tracer.spans, [1]) == (0.5, 0.5)
    assert spans.index_map_repeats(tracer.spans, [1, 2]) == (0.5, 0.75)


def test_alloc_mode_keeps_the_enclosing_peak_across_nested_calls(monkeypatch):
    mod = types.ModuleType("perfbench_alloc_probe")

    def inner():
        np.ones(1_000_000, dtype=np.float32)  # 4 MB allocated and dropped
        return np.zeros(10, dtype=np.float32)

    def outer():
        return mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    points = [(mod.__name__, f, spans._static(f), None) for f in ("outer", "inner")]
    with spans.Tracer(points, alloc=True) as tracer:
        mod.outer()
    by_name = {s.name: s.counts for s in tracer.spans}
    for name in ("outer", "inner"):
        assert by_name[name]["peak_alloc_bytes"] >= 4_000_000
        assert by_name[name]["result_bytes"] == 40


def test_alloc_pass_measures_the_kernel_gathers():
    cfg, params = _tiny_state()
    with spans.Tracer(alloc=True) as alloc:
        alloc.op = 0
        ss_model.model_forward(_image(), params, cfg)
    m = spans.layer_metrics([], [], 0.0, alloc.spans)
    for sweep in spans.SWEEPS:
        assert m[f"kernel.{sweep}.gather_mb"]["value"] > 0
        assert m[f"kernel.{sweep}.mac_per_byte"]["value"] > 0
    assert m["layer.s3a_fwd.peak_alloc_mb"]["value"] > 0


def test_train_step_spans_name_sweeps_by_position():
    params = ss_layer.init_s3a_params(ss_layer.S3AConfig(channels=8, heads=2), Rng(0))
    x = np.random.default_rng(0).standard_normal((8, 9, 10), dtype=np.float32)
    cfg = ss_layer.S3AConfig(channels=8, heads=2)
    with spans.Tracer() as tracer:
        tracer.op = 1
        y, saved = ss_layer.s3a_forward(x, params, cfg)
        ss_layer.s3a_backward(y, saved)
    names = [s.name for s in tracer.spans if s.name.endswith((".forward", ".backward"))]
    assert names == ["kernel.local.forward", "kernel.anchor.forward",
                     "kernel.anchor.backward", "kernel.local.backward"]
    assert spans.op_macs(tracer.spans) == {1: ss_layer.s3a_flops(cfg, 9, 10)}


def test_absent_names_are_reported_not_fatal():
    points = [
        ("ssattn.kernel", "no_such_function", spans._static("x"), None),
        ("ssattn.no_such_module", "f", spans._static("y"), None),
    ]
    with spans.Tracer(points) as tracer:
        pass
    assert tracer.absent == ["ssattn.kernel.no_such_function", "ssattn.no_such_module.f"]


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    value, pct = run.tail(samples)
    assert pct == 66
    assert sum(s > value for s in samples) >= 10
    assert run.tail([1.0, 2.0]) == (2.0, 100)


def test_mixed_geometry_is_seeded_and_covers_every_side_per_cycle():
    wl = workloads.Classify("classify-mixed", 7, HERE, mixed=True)
    n = len(workloads.MIXED_SIDES)
    assert wl.geometry(0) == workloads.MIXED_WARMUP
    sides = [wl.geometry(i) for i in range(1, n + 1)]
    assert sorted(h for h, _ in sides) == list(workloads.MIXED_SIDES)
    assert sorted(w for _, w in sides) == list(workloads.MIXED_SIDES)
    assert sides == [workloads.Classify("classify-mixed", 7, HERE, True).geometry(i) for i in range(1, n + 1)]
    assert sides != [workloads.Classify("classify-mixed", 8, HERE, True).geometry(i) for i in range(1, n + 1)]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section, capsys):
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    argv = ["--workload", "train-step-56", "--seed", "4", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
