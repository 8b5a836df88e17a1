"""Command-line interface: describe, check, bench, infer.

Machine-readable output (one JSON document per run) goes to standard
output; human-oriented tables and progress lines go to standard error,
so `ssattn ... | jq .` always works. Exit status is 0 on success, 1 on
a failed check or a validation error, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

from .bench import run_bench
from .checks import BUDGETS, CHECKS, run_checks
from .errors import SSAttnError
from .io import atomic_write_bytes, load_model_checkpoint, load_tensor, save_tensor
from .model import (
    MODEL_PRESETS,
    config_from_dict,
    config_hash,
    config_to_dict,
    count_flops,
    count_params,
    model_forward,
)
from .tensor import DTYPES

MAC_CONVENTION = (
    "1 MAC = 1 FLOP; softmax, GELU, normalization and bias additions are excluded"
)


def _stride_arg(value: str):
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"stride must be 'auto' or an integer, got {value!r}")


def _tol_arg(value: str):
    name, sep, num = value.partition("=")
    if not sep or name not in CHECKS:
        raise argparse.ArgumentTypeError(f"expected CHECK=VALUE with CHECK in {sorted(CHECKS)}")
    try:
        return name, float(num)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance for {name!r} is not a number: {num!r}")


def _resolve_config(args, parser: argparse.ArgumentParser):
    requested = [v for v in (args.config_pos, args.config) if v is not None]
    if len(requested) > 1 and requested[0] != requested[1]:
        parser.error("config given twice (positionally and with --config)")
    name = requested[0] if requested else "ssvit-t"
    if name in MODEL_PRESETS:
        cfg = MODEL_PRESETS[name]
    elif os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            try:
                cfg = config_from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                parser.error(f"config file {name!r} is not valid JSON: {exc}")
    else:
        parser.error(
            f"unknown config {name!r}: not a preset ({', '.join(sorted(MODEL_PRESETS))}) "
            "and not a readable file"
        )
    overrides = {}
    if getattr(args, "window", None) is not None:
        overrides["window"] = args.window
    if getattr(args, "anchors", None) is not None:
        overrides["anchors"] = args.anchors
    if getattr(args, "stride", None) is not None:
        overrides["stride"] = args.stride
    if getattr(args, "no_lce", False):
        overrides["lce"] = False
    return replace(cfg, **overrides) if overrides else cfg


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if out_path:
        atomic_write_bytes(out_path, (text + "\n").encode())


def _cmd_describe(args, parser) -> int:
    cfg = _resolve_config(args, parser)
    res = args.resolution
    params_tree = count_params(cfg)
    flops_tree = count_flops(cfg, res, res)
    doc = {
        "command": "describe",
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "resolution": res,
        "mac_convention": MAC_CONVENTION,
        "params_total": int(params_tree.total()),
        "flops_total": int(flops_tree.total()),
        "params": params_tree.to_dict(),
        "flops": flops_tree.to_dict(),
    }
    _emit(doc, args.out)
    print(f"parameters ({cfg.name})", file=sys.stderr)
    print(params_tree.table(), file=sys.stderr)
    print(f"\nMACs ({cfg.name} @ {res}x{res}; {MAC_CONVENTION})", file=sys.stderr)
    print(flops_tree.table(max_depth=1), file=sys.stderr)
    return 0


def _cmd_check(args, parser) -> int:
    if args.cases is not None and args.cases < 1:
        parser.error(f"--cases must be >= 1, got {args.cases}")
    names = args.suite or list(CHECKS)
    tols = dict(args.tol or [])
    results = run_checks(names, seed=args.seed, cases=args.cases, tols=tols)
    all_passed = all(r.passed for r in results)
    doc = {
        "command": "check",
        "seed": args.seed,
        "suites": names,
        "results": [r.to_dict() for r in results],
        "budgets_s": {n: BUDGETS[n] for n in names},
        "passed": all_passed,
    }
    _emit(doc, args.out)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        err = "n/a" if r.max_err is None else f"{r.max_err:.3e}"
        tol = "n/a" if r.tol is None else f"{r.tol:.0e}"
        print(
            f"[{status}] {r.name}: max_err {err} tol {tol} ({r.cases} cases, {r.seconds:.2f}s)",
            file=sys.stderr,
        )
    return 0 if all_passed else 1


def _cmd_bench(args, parser) -> int:
    if args.repeats < 3:
        parser.error(f"--repeats must be >= 3, got {args.repeats}")
    cfg = _resolve_config(args, parser)
    res = args.resolution
    doc = {
        "command": "bench",
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "resolution": res,
        "repeats": args.repeats,
        "seed": args.seed,
        "dtype": args.dtype,
        "mac_convention": MAC_CONVENTION,
    }
    doc.update(run_bench(cfg, res, res, args.repeats, args.seed, DTYPES[args.dtype]))
    _emit(doc, args.out)
    fwd = doc["model_forward"]
    print(
        f"{cfg.name} @ {res}x{res} ({args.dtype}): forward median {fwd['median_s']:.4f}s, "
        f"{fwd['macs_per_s'] / 1e9:.2f} GMAC/s",
        file=sys.stderr,
    )
    sc = doc["scaling"]
    print(
        f"scaling envelope {sc['per_token_envelope']:.3f} (bound {sc['envelope_bound']}): "
        + ("within" if sc["within_envelope"] else "EXCEEDED"),
        file=sys.stderr,
    )
    return 0 if sc["within_envelope"] else 1


def _cmd_infer(args, parser) -> int:
    cfg, params = load_model_checkpoint(args.checkpoint)
    x = load_tensor(args.input)
    logits = model_forward(x, params, cfg)
    save_tensor(args.out, logits)
    doc = {
        "command": "infer",
        "checkpoint": args.checkpoint,
        "config_hash": config_hash(cfg),
        "input": args.input,
        "input_shape": list(x.shape),
        "out": args.out,
        "logits_shape": list(logits.shape),
        "logits_sha256": hashlib.sha256(logits.tobytes()).hexdigest(),
    }
    _emit(doc, None)
    print(f"wrote {logits.shape[0]} logits to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssattn",
        description="Sparse-scan self-attention: model accounting, validation suites, benchmarks, inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def neighborhood_flags(p):
        p.add_argument("--window", type=int, default=None, help="override window extent (odd)")
        p.add_argument("--anchors", type=int, default=None, help="override anchor extent (odd)")
        p.add_argument("--stride", type=_stride_arg, default=None, help="anchor stride: auto or N")
        p.add_argument("--no-lce", action="store_true", help="disable the local context branch")

    p_desc = sub.add_parser("describe", help="parameter and MAC accounting for a configuration")
    p_desc.add_argument("config_pos", nargs="?", metavar="CONFIG", default=None,
                        help="preset name or config JSON path (same as --config)")
    p_desc.add_argument("--config", default=None)
    p_desc.add_argument("--resolution", type=int, default=224)
    neighborhood_flags(p_desc)
    p_desc.add_argument("--out", default=None, help="also write the JSON document here")

    p_check = sub.add_parser("check", help="run the numerical validation suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--suite", action="append", choices=sorted(CHECKS), default=None,
                         help="suite to run (repeatable; default: all)")
    p_check.add_argument("--cases", type=int, default=None,
                         help="override per-suite case counts (smaller = faster)")
    p_check.add_argument("--tol", action="append", type=_tol_arg, default=None,
                         metavar="CHECK=VALUE", help="override a suite tolerance")
    p_check.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="wall-clock timing with analytic MAC context")
    p_bench.add_argument("config_pos", nargs="?", metavar="CONFIG", default=None)
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--resolution", type=int, default=224)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--dtype", choices=sorted(DTYPES), default="f32")
    neighborhood_flags(p_bench)
    p_bench.add_argument("--out", default=None)

    p_infer = sub.add_parser("infer", help="run a checkpoint on a tensor file")
    p_infer.add_argument("checkpoint", help="model checkpoint path")
    p_infer.add_argument("input", help="input tensor file path")
    p_infer.add_argument("--out", required=True, help="where to write the logits tensor file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "describe": _cmd_describe,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "infer": _cmd_infer,
    }
    try:
        return handlers[args.command](args, parser)
    except (SSAttnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
