"""The three benchmark workloads and their output checks.

Each workload generates its inputs from the benchmark seed; the library
only ever sees the generated arrays. Every call into the library goes
through a module attribute (`ss_model.model_forward`, ...) so that the
span tracer can wrap it.

  classify-224    ssvit-t f32 forward on distinct 3x224x224 images: the
                  paper's headline geometry, one geometry for every op.
  classify-mixed  the same model on images whose sides are drawn from
                  32..160 (step 4) per op, so small, non-square maps
                  dominate. The input geometry changes from op to op, but
                  the blocks of a stage share one map size, so most index
                  maps repeat within an op (`kernel.index_map.repeat_*`).
  train-step-56   one S3A layer at stage-1 geometry (C=64, 2 heads, 56x56)
                  forward plus analytic backward with a seeded cotangent.
"""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
from ssattn import blocks as ss_blocks
from ssattn import io as ss_io
from ssattn import layer as ss_layer
from ssattn import model as ss_model
from ssattn import oracle as ss_oracle
from ssattn.tensor import Rng

MODEL = "ssvit-t"
MIXED_SIDES = tuple(range(32, 161, 4))
# a fixed mid-range warm-up geometry keeps `setup_s` independent of the seed
MIXED_WARMUP = (96, 96)
# width shift of the first cycle and its step per cycle (coprime to the 33
# sides, so 33 cycles use 33 different pairings)
MIXED_SHIFT0, MIXED_SHIFT_STEP = 7, 13
TRAIN_CFG = ss_layer.S3AConfig(channels=64, heads=2)
TRAIN_SIDE = 56

# float32 absolute tolerance of the `oracle` check suite. The benchmark's
# initialised model gives S3A outputs of 0.02-0.4, so the tolerance is
# also scaled by the reference's largest magnitude when that is below 1.
ORACLE_TOL_F32 = 1e-4
# float64 and float32 relative tolerances of the `gradients` check suite
DIRECTIONAL_TOL = 1e-6
DIRECTIONAL_TOL_F32 = 1e-2
DIRECTIONAL_STEP = 1e-5


def scaled_max_err(out, ref) -> tuple[float, float]:
    """(largest absolute error, tolerance scaled to the reference's magnitude)."""
    err = float(np.max(np.abs(out.astype(np.float64) - ref)))
    return err, ORACLE_TOL_F32 * min(1.0, float(np.max(np.abs(ref))))


def finite_f32(arr, shape) -> bool:
    """The per-op output contract: expected shape, float32, all finite."""
    return (
        isinstance(arr, np.ndarray)
        and arr.shape == tuple(shape)
        and arr.dtype == np.float32
        and bool(np.isfinite(arr).all())
    )


class Classify:
    """`model_forward` of a checkpoint-loaded ssvit-t on seeded images."""

    mac_reference = "count_flops"

    def __init__(self, name: str, seed: int, workdir: str, mixed: bool):
        self.name, self.seed, self.mixed = name, seed, mixed
        self.ckpt = os.path.join(workdir, f"ckpt-{name}-{seed}-{os.getpid()}.ssc")
        self._macs: dict[tuple[int, int], int] = {}

    def prepare(self, runner: str) -> None:
        """Write the checkpoint from a child process (keeps peak RSS honest)."""
        subprocess.run(
            [sys.executable, runner, "--write-checkpoint", self.ckpt, "--seed", str(self.seed)],
            check=True, timeout=170,
        )

    def cleanup(self) -> None:
        if os.path.exists(self.ckpt):
            os.unlink(self.ckpt)

    def setup(self):
        return ss_io.load_model_checkpoint(self.ckpt)

    def geometry(self, i: int) -> tuple[int, int]:
        """Input sides of op i; op 0 is the warm-up op timed in `setup_s`."""
        if not self.mixed:
            return (224, 224)
        if i == 0:
            return MIXED_WARMUP
        # Cycles of len(MIXED_SIDES) ops: every side appears once per cycle on
        # each axis, paired with a width a fixed, per-cycle shift away. So every
        # seed runs the same geometries in a cycle and per-run work does not
        # depend on the seed; the seed orders them (and makes the images).
        n = len(MIXED_SIDES)
        cycle, pos = divmod(i - 1, n)
        k = np.random.default_rng([self.seed, 1, cycle]).permutation(n)[pos]
        shift = (MIXED_SHIFT0 + MIXED_SHIFT_STEP * cycle) % n
        return MIXED_SIDES[k], MIXED_SIDES[(k + shift) % n]

    def make_input(self, i: int):
        H, W = self.geometry(i)
        rng = np.random.default_rng([self.seed, 2, i])
        return rng.standard_normal((3, H, W), dtype=np.float32)

    def op(self, state, x):
        cfg, params = state
        return ss_model.model_forward(x, params, cfg)

    def check(self, state, x, out) -> bool:
        return finite_f32(out, (state[0].classes,))

    def digest(self, out) -> bytes:
        return out.tobytes()

    def macs(self, state, x) -> int:
        key = x.shape[1:]
        if key not in self._macs:
            self._macs[key] = int(ss_model.count_flops(state[0], *key).total())
        return self._macs[key]

    def sampled_check(self, state, x) -> dict:
        """One seeded S3A call at this op's largest map against `oracle.oracle_s3a`.

        The largest map (stage 1) carries most of the op's kernel work; the
        brute-force reference takes about 7 s at 56x56.
        """
        calls = []
        original = ss_blocks.s3a_forward

        def capture(inp, params, cfg):
            out, saved = original(inp, params, cfg)
            calls.append((inp, params, cfg, out))
            return out, saved

        ss_blocks.s3a_forward = capture
        try:
            self.op(state, x)
        finally:
            ss_blocks.s3a_forward = original
        largest = max(c[0].shape[1] * c[0].shape[2] for c in calls)
        eligible = [c for c in calls if c[0].shape[1] * c[0].shape[2] == largest]
        inp, params, cfg, out = eligible[np.random.default_rng([self.seed, 4]).integers(len(eligible))]
        err, tol = scaled_max_err(out, ss_oracle.oracle_s3a(inp, params, cfg))
        return {
            "kind": "oracle_s3a", "input_shape": list(inp.shape), "heads": cfg.heads,
            "dtype": str(out.dtype), "max_abs_err": err, "tol": tol, "passed": err <= tol,
        }


class TrainStep:
    """`s3a_forward` then `s3a_backward` of one layer at stage-1 geometry."""

    name = "train-step-56"
    mac_reference = "s3a_flops"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, runner: str) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def setup(self):
        return ss_layer.init_s3a_params(TRAIN_CFG, Rng(self.seed))

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, 3, i])
        shape = (TRAIN_CFG.channels, TRAIN_SIDE, TRAIN_SIDE)
        return rng.standard_normal(shape, dtype=np.float32), rng.standard_normal(shape, dtype=np.float32)

    def op(self, params, inp):
        x, cot = inp
        y, saved = ss_layer.s3a_forward(x, params, TRAIN_CFG)
        return y, ss_layer.s3a_backward(cot, saved)

    def check(self, params, inp, out) -> bool:
        y, grads = out
        expected = {"grad_x": inp[0].shape}
        for field in ("w_qkv", "b_qkv", "w_out", "b_out", "lce_filt", "lce_bias"):
            expected[f"grad_{field}"] = getattr(params, field).shape
        return finite_f32(y, inp[0].shape) and set(grads) == set(expected) and all(
            finite_f32(grads[k], shape) for k, shape in expected.items()
        )

    def digest(self, out) -> bytes:
        y, grads = out
        return b"".join([y.tobytes()] + [grads[k].tobytes() for k in sorted(grads)])

    def macs(self, params, inp) -> int:
        return ss_layer.s3a_flops(TRAIN_CFG, TRAIN_SIDE, TRAIN_SIDE)

    def sampled_check(self, params, inp) -> dict:
        """Directional derivative <grad_x, d> against a float64 central difference of <y, cot>.

        Checked for the float64 layer and for the float32 op as timed; the
        float32 output is also compared with the float64 one.
        """
        y32, grads32 = self.op(params, inp)
        x, cot = (a.astype(np.float64) for a in inp)
        p64 = ss_layer.S3AParams(**{k: v.astype(np.float64) for k, v in vars(params).items()})
        delta = np.random.default_rng([self.seed, 5]).standard_normal(x.shape)

        def objective(t):
            return float((ss_layer.s3a_forward(t, p64, TRAIN_CFG)[0] * cot).sum())

        y64, saved = ss_layer.s3a_forward(x, p64, TRAIN_CFG)
        h = DIRECTIONAL_STEP
        numeric = (objective(x + h * delta) - objective(x - h * delta)) / (2 * h)

        def rel_err(grad_x):
            analytic = float((grad_x.astype(np.float64) * delta).sum())
            return abs(analytic - numeric) / max(abs(numeric), 1e-12)

        rel64 = rel_err(ss_layer.s3a_backward(cot, saved)["grad_x"])
        rel32 = rel_err(grads32["grad_x"])
        y_err, y_tol = scaled_max_err(y32, y64)
        return {
            "kind": "directional_derivative", "central_difference_f64": numeric,
            "rel_err_f64": rel64, "tol_f64": DIRECTIONAL_TOL,
            "rel_err_f32": rel32, "tol_f32": DIRECTIONAL_TOL_F32,
            "y_f32_max_abs_err": y_err, "y_tol": y_tol,
            "passed": rel64 <= DIRECTIONAL_TOL and rel32 <= DIRECTIONAL_TOL_F32 and y_err <= y_tol,
        }


def make_workload(name: str, seed: int, workdir: str):
    if name == "train-step-56":
        return TrainStep(seed)
    return Classify(name, seed, workdir, mixed=name == "classify-mixed")


def write_checkpoint(path: str, seed: int) -> None:
    cfg = ss_model.get_config(MODEL)
    ss_io.save_model_checkpoint(path, cfg, ss_model.build_model(cfg, Rng(seed)))
