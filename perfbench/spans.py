"""Outside-in span tracing of the ssattn layers.

The tracer times calls into the public functions of `io`, `model`,
`blocks`, `layer` and `kernel` by replacing module attributes for the
duration of a `with Tracer()` block and putting the originals back
afterwards; no library source changes. Because `from .x import f` binds `f` once per
importing module, each function is wrapped in the module that *calls*
it (`blocks.conv2d` is patched in `ssattn.blocks`, `build_model` in
`ssattn.io`, and so on).

A span records name, start, end, parent span and op id. Spans stay in
memory until the run ends. A span's self time is its duration minus the
time its direct children cover, so the self times of one op partition
the op's root span. Where a span does arithmetic, a meter derives its
multiply-accumulate count from the argument and result array shapes
(computed, not measured); `flat_index_map` spans record the geometry
they were asked for, so repeated index maps can be counted.

With `alloc=True` the tracer also records, per span, the peak traced
allocation (tracemalloc) above the level at entry and the bytes of the
returned arrays. The difference is what the call allocated and dropped:
for the kernel sweeps, the gathered key/value blocks and index maps.
tracemalloc slows every allocation, so that pass is separate and untimed.

A wrapped name that no longer exists (after a refactor) is listed in
`Tracer.absent` and simply not traced.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

# Sweep order inside the parent S3A span: the forward runs the local
# sweep first, the backward unwinds the anchor sweep first.
_SWEEP_ORDER = {"layer.s3a_fwd": ("local", "anchor"), "layer.s3a_bwd": ("anchor", "local")}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "kernels")

    def __init__(self, name: str, parent: "Span | None", op):
        self.name = name
        self.parent = parent
        self.op = op
        self.counts: dict = {}
        self.kernels = 0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# span names


def _static(name):
    return lambda parent: name


def _conv_name(parent):
    where = parent.name.rsplit(".", 1)[-1] if parent is not None else "other"
    return f"blocks.conv2d.{where}"


def _kernel_call_name(kind):
    """Name a kernel_forward/kernel_backward call by its position in the S3A span."""

    def name(parent):
        order = _SWEEP_ORDER.get(parent.name) if parent is not None else None
        if order is None:
            return f"kernel.unknown.{kind}"
        sweep = order[min(parent.kernels, 1)]
        parent.kernels += 1
        return f"kernel.{sweep}.{kind}"

    return name


def _kernel_part_name(part):
    """scores/softmax/aggregate inherit the sweep of their kernel_forward span."""

    def name(parent):
        if parent is not None and parent.name.startswith("kernel."):
            return f"kernel.{parent.name.split('.')[1]}.{part}"
        return f"kernel.unknown.{part}"

    return name


# ---------------------------------------------------------------------------
# meters: computed work from array shapes


def _conv_meter(args, kwargs, out):
    w = args[1]
    return {"macs": w.shape[0] * w.shape[1] * w.shape[2] * w.shape[3] * out.shape[1] * out.shape[2]}


def _depthwise_meter(args, kwargs, out):
    x, filt = args[0], args[1]
    return {"macs": filt.shape[0] * filt.shape[1] * filt.shape[2] * x.shape[1] * x.shape[2]}


def _ffn_meter(args, kwargs, out):
    x, p = args[0], args[1]
    return {"macs": (p.w1.size + p.w2.size) * x.shape[1] * x.shape[2]}


def _s3a_fwd_meter(args, kwargs, out):
    x, p = args[0], args[1]
    return {"macs": (p.w_qkv.size + p.w_out.size) * x.shape[1] * x.shape[2]}


def _head_meter(args, kwargs, out):
    return {"macs": args[1].head.w.size}


def _scores_meter(args, kwargs, scores):
    return {"macs": scores.size * args[0].shape[-1]}


def _aggregate_meter(args, kwargs, out):
    attn, v = args[0], args[1]
    return {"macs": attn.size * v.shape[-1]}


def _index_map_meter(args, kwargs, out):
    H, W, spec = args[:3]
    return {"geometry": f"{H}x{W} k{spec.kernel} d{spec.dilation}"}


def _result_bytes(result) -> int:
    """Bytes of the arrays a call returns, alone or in a tuple or dict."""
    if isinstance(result, dict):
        result = tuple(result.values())
    if isinstance(result, tuple):
        return sum(_result_bytes(v) for v in result)
    return int(getattr(result, "nbytes", 0))


def _file_meter(args, kwargs, out):
    return {"bytes_read": os.path.getsize(args[0])}


# (module, attribute, span name, meter). The module is the one whose
# namespace the library looks the function up in at call time.
POINTS = [
    ("ssattn.io", "load_model_checkpoint", _static("io.load_model_checkpoint"), None),
    ("ssattn.io", "load_checkpoint", _static("io.load_checkpoint"), _file_meter),
    ("ssattn.io", "build_model", _static("io.build_model"), None),
    ("ssattn.io", "load_state", _static("io.load_state"), None),
    ("ssattn.model", "model_forward", _static("model.forward"), _head_meter),
    ("ssattn.model", "stem_forward", _static("blocks.stem"), None),
    ("ssattn.model", "ssvit_block", _static("blocks.block"), None),
    ("ssattn.model", "downsample_forward", _static("blocks.downsample"), None),
    ("ssattn.model", "layernorm", _static("blocks.layernorm"), None),
    ("ssattn.blocks", "conv2d", _conv_name, _conv_meter),
    ("ssattn.blocks", "gelu", _static("blocks.gelu"), None),
    ("ssattn.blocks", "layernorm", _static("blocks.layernorm"), None),
    ("ssattn.blocks", "depthwise_forward", _static("blocks.cpe_dw"), _depthwise_meter),
    ("ssattn.blocks", "ffn_forward", _static("blocks.ffn"), _ffn_meter),
    ("ssattn.blocks", "s3a_forward", _static("layer.s3a_fwd"), _s3a_fwd_meter),
    ("ssattn.layer", "s3a_forward", _static("layer.s3a_fwd"), _s3a_fwd_meter),
    ("ssattn.layer", "s3a_backward", _static("layer.s3a_bwd"), None),
    ("ssattn.layer", "depthwise_forward", _static("layer.lce_dw"), _depthwise_meter),
    ("ssattn.layer", "depthwise_backward", _static("layer.lce_dw_bwd"), None),
    ("ssattn.layer", "kernel_forward", _kernel_call_name("forward"), None),
    ("ssattn.layer", "kernel_backward", _kernel_call_name("backward"), None),
    ("ssattn.kernel", "neighborhood_scores", _kernel_part_name("scores"), _scores_meter),
    ("ssattn.kernel", "softmax_rows", _kernel_part_name("softmax"), None),
    ("ssattn.kernel", "neighborhood_aggregate", _kernel_part_name("aggregate"), _aggregate_meter),
    ("ssattn.kernel", "flat_index_map", _static("kernel.index_map"), _index_map_meter),
]


class Tracer:
    """Record one span per call of every function in `points`.

    The functions are wrapped on entry to a `with` block and restored on
    exit. A tracer may be entered again; its spans keep accumulating.
    """

    def __init__(self, points=POINTS, alloc: bool = False):
        self.points = points
        self.alloc = alloc
        self.spans: list[Span] = []
        self.op = None
        self.absent: list[str] = []
        self.meter_errors: list[str] = []
        self._stack: list[Span] = []
        # alloc mode: [level at entry, highest peak seen] per open span
        self._peaks: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.absent = []
        for module_name, attr, namer, meter in self.points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, functools.wraps(fn)(self._wrapper(fn, namer, meter)))
        if self.alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.alloc:
            tracemalloc.stop()
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def _enter_alloc(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:  # keep the enclosing span's peak before resetting
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _exit_alloc(self) -> int:
        base, seen = self._peaks.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        return peak - base

    def _wrapper(self, fn, namer, meter):
        stack, clock, alloc = self._stack, time.perf_counter, self.alloc

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(namer(parent), parent, self.op)
            self.spans.append(span)
            stack.append(span)
            if alloc:
                self._enter_alloc()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if alloc:
                    span.counts["peak_alloc_bytes"] = self._exit_alloc()
            if alloc:
                span.counts["result_bytes"] = _result_bytes(result)
            if meter is not None:
                try:
                    span.counts.update(meter(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, ValueError, OSError) as exc:
                    self.meter_errors.append(f"{span.name}: {exc!r}")
            return result

        return traced

    def to_records(self) -> list[dict]:
        """Spans as plain dicts, parents referenced by list index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name, "start": s.start, "end": s.end, "op": s.op,
                "parent": index.get(id(s.parent)), **s.counts,
            }
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by id): duration minus direct children."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
    return {id(s): s.duration - child.get(id(s), 0.0) for s in spans}


def op_macs(spans: list[Span]) -> dict:
    """Summed computed MACs per op id."""
    total: dict = {}
    for s in spans:
        if "macs" in s.counts:
            total[s.op] = total.get(s.op, 0) + s.counts["macs"]
    return total


SWEEPS = ("local", "anchor")


def index_map_repeats(spans: list[Span], ops) -> tuple[float, float]:
    """Share of `flat_index_map` calls in `ops` whose geometry was already seen.

    Returns (seen earlier in the same op, seen earlier in the run): what
    a per-op and a run-wide geometry cache would save.
    """
    ops = set(ops)
    seen_run, seen_op = set(), {}
    total = in_op = in_run = 0
    for s in spans:  # spans are appended in call order
        key = s.counts.get("geometry")
        if key is None or s.op not in ops:
            continue
        op_seen = seen_op.setdefault(s.op, set())
        total += 1
        in_op += key in op_seen
        in_run += key in seen_run
        op_seen.add(key)
        seen_run.add(key)
    return (in_op / total, in_run / total) if total else (0.0, 0.0)


def layer_metrics(spans: list[Span], ops, op_wall_s: float, alloc_spans: list[Span]) -> dict:
    """Per-layer metrics: self seconds per op unless the unit says otherwise.

    `io.*` come from the traced set-up (one checkpoint load); the
    allocation metrics come from `alloc_spans`, one op traced with
    `alloc=True`; every other metric averages the spans of `ops`
    (`kernel.*.macs` rounds down). A layer the workload does not reach
    reads 0.
    """
    ops = set(ops)
    n = max(1, len(ops))
    own = self_times(spans)
    self_s, dur_s, calls, counts = {}, {}, {}, {}
    setup_self, setup_counts = {}, {}
    for s in spans:
        numeric = {k: v for k, v in s.counts.items() if k != "geometry"}
        if s.op == "setup":
            setup_self[s.name] = setup_self.get(s.name, 0.0) + own[id(s)]
            for k, v in numeric.items():
                setup_counts[k] = setup_counts.get(k, 0) + v
        elif s.op in ops:
            self_s[s.name] = self_s.get(s.name, 0.0) + own[id(s)]
            dur_s[s.name] = dur_s.get(s.name, 0.0) + s.duration
            calls[s.name] = calls.get(s.name, 0) + 1
            bucket = counts.setdefault(s.name, {})
            for k, v in numeric.items():
                bucket[k] = bucket.get(k, 0) + v

    def per_op(name):
        return self_s.get(name, 0.0) / n

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def rate(macs, seconds):
        return macs / seconds / 1e9 if seconds > 0 else 0.0

    def peak_alloc(names):
        return max((s.counts.get("peak_alloc_bytes", 0) for s in alloc_spans if s.name in names), default=0)

    def dropped_alloc(names):
        """Bytes the calls allocated above their entry level but did not return."""
        return sum(
            max(0, s.counts.get("peak_alloc_bytes", 0) - s.counts.get("result_bytes", 0))
            for s in alloc_spans if s.name in names
        )

    m = {
        "io.load_checkpoint_s": (setup_self.get("io.load_checkpoint", 0.0), "s"),
        "io.build_model_s": (setup_self.get("io.build_model", 0.0), "s"),
        "io.load_state_s": (setup_self.get("io.load_state", 0.0), "s"),
        "io.load_self_s": (setup_self.get("io.load_model_checkpoint", 0.0), "s"),
        "io.bytes_read": (setup_counts.get("bytes_read", 0), "count"),
        "model.forward_self_s": (per_op("model.forward"), "s"),
    }
    convs = ("blocks.conv2d.stem", "blocks.conv2d.downsample")
    m["blocks.conv2d.stem_s"] = (per_op(convs[0]), "s")
    m["blocks.conv2d.downsample_s"] = (per_op(convs[1]), "s")
    m["blocks.conv2d.gmac_per_s"] = (
        rate(sum(count(c, "macs") for c in convs), sum(dur_s.get(c, 0.0) for c in convs)), "GMAC/s")
    for name in ("cpe_dw", "layernorm", "gelu", "ffn"):
        m[f"blocks.{name}_s"] = (per_op(f"blocks.{name}"), "s")
    m["blocks.block_self_s"] = (per_op("blocks.block"), "s")
    m["blocks.stem_self_s"] = (per_op("blocks.stem"), "s")
    m["blocks.downsample_self_s"] = (per_op("blocks.downsample"), "s")

    m["layer.s3a_fwd_self_s"] = (per_op("layer.s3a_fwd"), "s")
    m["layer.lce_dw_s"] = (per_op("layer.lce_dw"), "s")
    m["layer.s3a_bwd_self_s"] = (per_op("layer.s3a_bwd"), "s")
    m["layer.lce_dw_bwd_s"] = (per_op("layer.lce_dw_bwd"), "s")
    s3a_macs = count("layer.s3a_fwd", "macs") + count("layer.lce_dw", "macs") + sum(
        count(f"kernel.{w}.{p}", "macs") for w in SWEEPS for p in ("scores", "aggregate"))
    m["layer.s3a.gmac_per_s"] = (rate(s3a_macs, dur_s.get("layer.s3a_fwd", 0.0)), "GMAC/s")
    m["layer.s3a_fwd.peak_alloc_mb"] = (peak_alloc({"layer.s3a_fwd"}) / 1e6, "MB")

    for w in SWEEPS:
        k = f"kernel.{w}"
        for part in ("scores", "softmax", "aggregate", "backward"):
            m[f"{k}.{part}_s"] = (per_op(f"{k}.{part}"), "s")
        macs = count(f"{k}.scores", "macs") + count(f"{k}.aggregate", "macs")
        fwd = {f"{k}.scores", f"{k}.aggregate"}
        fwd_macs = sum(s.counts.get("macs", 0) for s in alloc_spans if s.name in fwd)
        fwd_bytes = dropped_alloc(fwd)
        m[f"{k}.macs"] = (macs // n, "count")
        m[f"{k}.gmac_per_s"] = (rate(macs, dur_s.get(f"{k}.forward", 0.0)), "GMAC/s")
        m[f"{k}.gather_mb"] = ((fwd_bytes + dropped_alloc({f"{k}.backward"})) / 1e6, "MB")
        m[f"{k}.mac_per_byte"] = (fwd_macs / fwd_bytes if fwd_bytes else 0.0, "MAC/B")
    m["kernel.index_map_s"] = (per_op("kernel.index_map"), "s")
    m["kernel.index_map.calls"] = (calls.get("kernel.index_map", 0) / n, "count")
    in_op, in_run = index_map_repeats(spans, ops)
    m["kernel.index_map.repeat_in_op"] = (in_op, "ratio")
    m["kernel.index_map.repeat_in_run"] = (in_run, "ratio")
    m["kernel.backward.peak_alloc_mb"] = (
        peak_alloc({f"kernel.{w}.backward" for w in SWEEPS}) / 1e6, "MB")

    covered = sum(own[id(s)] for s in spans if s.op in ops)
    m["trace.coverage"] = (covered / op_wall_s if op_wall_s > 0 else 0.0, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}
