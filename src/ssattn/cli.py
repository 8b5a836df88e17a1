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

from .bench import SCOPE_NOTE, bench_scaling
from .checks import BUDGETS, CHECKS, run_checks
from .errors import ConfigError, ShapeError, SSAttnError
from .io import atomic_write_bytes, load_model_checkpoint, load_tensor, save_tensor
from .model import (
    MODEL_PRESETS,
    check_input_sides,
    config_from_dict,
    config_hash,
    config_to_dict,
    count_flops,
    count_params,
    model_forward,
)
from .tensor import check_int

MAC_CONVENTION = (
    "1 MAC = 1 FLOP; softmax, GELU, normalization and bias additions are excluded"
)


def _resolution_arg(value: str) -> int:
    try:
        res = int(value)
        check_input_sides(res, res)
    except (ValueError, ShapeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return res


def _int_arg(name: str, minimum: int):
    """An argparse type for an integer option, refused by `check_int`'s rule and message."""

    def parse(value: str) -> int:
        try:
            return check_int(int(value), name, minimum)
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _resolve_config(name: str, parser: argparse.ArgumentParser):
    if name in MODEL_PRESETS:
        return MODEL_PRESETS[name]
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
                parser.error(f"config file {name!r} is not valid JSON: {exc}")
        return config_from_dict(doc)
    parser.error(
        f"unknown config {name!r}: not a preset ({', '.join(sorted(MODEL_PRESETS))}) "
        "and not a readable file"
    )


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if out_path:
        atomic_write_bytes(out_path, (text + "\n").encode())


def _cmd_describe(args, parser) -> int:
    cfg = _resolve_config(args.config, parser)
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
    names = args.suite or list(CHECKS)
    results = run_checks(names, seed=args.seed, cases=args.cases)
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
        bounds = ", ".join(f"{k} {b['max_err']:.3g} tol {b['tol']:g}" for k, b in r.bounds.items())
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {bounds} ({r.cases} cases, {r.seconds:.2f}s)", file=sys.stderr)
    return 0 if all_passed else 1


def _cmd_bench(args, parser) -> int:
    sc = bench_scaling()
    doc = {"command": "bench", "scaling": sc, "note": SCOPE_NOTE}
    _emit(doc, args.out)
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
        description="Sparse-scan self-attention: model accounting, validation suites, a scaling check, inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("describe", help="parameter and MAC accounting for a configuration")
    p_desc.add_argument("config", nargs="?", metavar="CONFIG", default="ssvit-t",
                        help="preset name or config JSON path (default: ssvit-t)")
    p_desc.add_argument("--resolution", type=_resolution_arg, default=224)
    p_desc.add_argument("--out", default=None, help="also write the JSON document here")

    p_check = sub.add_parser("check", help="run the numerical validation suites")
    p_check.add_argument("--seed", type=_int_arg("seed", 0), default=0)
    p_check.add_argument("--suite", action="append", choices=sorted(CHECKS), default=None,
                         help="suite to run (repeatable; default: all)")
    p_check.add_argument("--cases", type=_int_arg("cases", 1), default=None,
                         help="work per suite, not the same unit in each: oracle, gradients and "
                              "lattice run N cases and io N tensors; normalization and equivariance "
                              "check at least N rows or queries; degeneracy runs N//2 (min 1) per "
                              "family; params, flops and identity ignore it")
    p_check.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="the per-token scaling envelope of one S3A layer")
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
