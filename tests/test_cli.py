"""End-to-end command-line behavior: describe, check, bench, infer."""
import hashlib
import json

import numpy as np
import pytest

import ssattn.kernel as kernel_mod
from ssattn.bench import SCOPE_NOTE, bench_model
from ssattn.checks import run_checks, tiny_config
from ssattn.cli import main
from ssattn.errors import ConfigError
from ssattn.io import save_checkpoint, save_model_checkpoint, save_tensor, load_tensor
from ssattn.model import build_model, config_to_dict, model_forward, param_items
from ssattn.tensor import Rng


def run_cli(capsys, argv, expect_rc=0):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == expect_rc, captured.err
    return json.loads(captured.out), captured.err


def write_tiny_config(tmp_path, **overrides):
    cfg = tiny_config(**overrides)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return cfg, str(path)


# ---------------------------------------------------------------------------
# describe


def test_describe_default_config(capsys):
    doc, err = run_cli(capsys, ["describe"])
    assert doc["command"] == "describe"
    assert doc["config"]["name"] == "ssvit-t"
    assert doc["resolution"] == 224
    assert doc["params_total"] == 13_831_944
    assert abs(doc["params_total"] - 15e6) <= 1.5e6
    assert doc["flops_total"] == 2_566_111_232
    assert abs(doc["flops_total"] - 2.4e9) <= 0.15 * 2.4e9
    assert len(doc["config_hash"]) == 16
    assert "MAC" in doc["mac_convention"]
    # per-stage itemization is part of the document
    flop_children = {c["name"] for c in doc["flops"]["children"]}
    assert {"stem", "stage1", "stage2", "stage3", "stage4", "head"} <= flop_children
    # human tables go to stderr, never stdout
    assert "parameters" in err


def test_describe_largest_preset(capsys):
    doc, _ = run_cli(capsys, ["describe", "ssvit-l"])
    assert doc["params_total"] == 97_460_576
    assert abs(doc["params_total"] - 100e6) <= 10e6


def test_describe_resolution_scaling(capsys):
    d224, _ = run_cli(capsys, ["describe", "ssvit-t", "--resolution", "224"])
    d448, _ = run_cli(capsys, ["describe", "ssvit-t", "--resolution", "448"])
    head = 512 * 1000
    assert d448["flops_total"] == 4 * (d224["flops_total"] - head) + head


def test_describe_config_file_with_overrides(tmp_path, capsys):
    _, path = write_tiny_config(tmp_path)
    doc, _ = run_cli(
        capsys, ["describe", "--config", path, "--window", "5", "--no-lce"]
    )
    assert doc["config"]["window"] == 5
    assert doc["config"]["lce"] is False
    assert doc["config"]["name"] == "tiny"


def test_describe_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    doc, _ = run_cli(capsys, ["describe", "--out", str(out)])
    assert json.loads(out.read_text()) == doc


def test_describe_unknown_config_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "ssvit-xxl"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_conflicting_config_flags_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "ssvit-t", "--config", "ssvit-s"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check


def test_check_single_suite_json_shape(capsys):
    doc, err = run_cli(capsys, ["check", "--suite", "lattice", "--seed", "3"])
    assert doc["command"] == "check"
    assert doc["suites"] == ["lattice"]
    assert doc["passed"] is True
    (result,) = doc["results"]
    assert result["name"] == "lattice"
    assert result["passed"] is True
    assert result["cases"] >= 500
    assert "budgets_s" in doc
    assert "[PASS] lattice" in err


def test_check_is_deterministic_for_a_seed(capsys):
    argv = ["check", "--suite", "lattice", "--suite", "normalization", "--seed", "7"]
    first, _ = run_cli(capsys, argv)
    second, _ = run_cli(capsys, argv)

    def strip(doc):
        for r in doc["results"]:
            r.pop("seconds")
        return doc

    assert strip(first) == strip(second)


def test_check_tolerance_override(capsys):
    doc, _ = run_cli(capsys, ["check", "--suite", "params", "--tol", "params=0.5"])
    assert doc["results"][0]["tol"] == 0.5
    with pytest.raises(SystemExit) as exc:
        main(["check", "--tol", "nosuch=0.5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_rejects_nonpositive_cases(capsys):
    for cases in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "params", "--cases", cases])
        assert exc.value.code == 2
        assert "--cases" in capsys.readouterr().err
    for cases in (0, -3):
        with pytest.raises(ConfigError):
            run_checks(["params"], cases=cases)


def test_check_detects_mutated_lattice(monkeypatch, capsys):
    # a deliberate off-by-one in the fast path must trip the oracle suite
    orig = kernel_mod.clamped_lattice

    def skewed(center, side, k, d=1):
        lat = orig(center, side, k, d)
        if side > 1:
            lat = np.minimum(lat + d, side - 1)
        return lat

    monkeypatch.setattr(kernel_mod, "clamped_lattice", skewed)
    rc = main(["check", "--suite", "oracle", "--cases", "8"])
    captured = capsys.readouterr()
    assert rc == 1
    doc = json.loads(captured.out)
    assert doc["passed"] is False
    (result,) = doc["results"]
    assert result["name"] == "oracle"
    assert result["passed"] is False
    assert "[FAIL] oracle" in captured.err


# ---------------------------------------------------------------------------
# bench


def test_bench_emits_well_formed_report(tmp_path, capsys):
    _, path = write_tiny_config(tmp_path)
    doc, err = run_cli(
        capsys,
        ["bench", "--config", path, "--resolution", "64", "--repeats", "3", "--seed", "1"],
    )
    assert doc["command"] == "bench"
    assert doc["repeats"] == 3
    assert doc["dtype"] == "f32"
    fwd = doc["model_forward"]
    assert len(fwd["samples_s"]) == 3
    assert fwd["min_s"] <= fwd["median_s"] <= max(fwd["samples_s"])
    assert fwd["flops"] > 0
    assert fwd["macs_per_s"] > 0
    assert set(doc) == {
        "command", "config", "config_hash", "resolution", "repeats", "seed",
        "dtype", "mac_convention", "model_forward", "scaling", "note",
    }
    scaling = doc["scaling"]
    assert [p["side"] for p in scaling["points"]] == [56, 28, 14]
    for p in scaling["points"]:
        assert p["per_token_s"] > 0
    assert scaling["envelope_bound"] == 2.0
    assert scaling["per_token_envelope"] >= 1.0
    assert doc["note"] == SCOPE_NOTE
    assert "envelope" in err


def test_bench_rejects_too_few_repeats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--repeats", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bench_model_scales_with_resolution():
    cfg = tiny_config()
    small = bench_model(cfg, 32, 32, 3, 0, np.dtype(np.float32))
    big = bench_model(cfg, 96, 96, 3, 0, np.dtype(np.float32))
    assert big["median_s"] > small["median_s"]
    assert big["flops"] > small["flops"]
    with pytest.raises(ConfigError):
        bench_model(cfg, 32, 32, 2, 0, np.dtype(np.float32))


# ---------------------------------------------------------------------------
# infer


def test_infer_round_trip(tmp_path, capsys):
    cfg = tiny_config()
    params = build_model(cfg, Rng(3))
    ckpt = tmp_path / "model.ssc"
    save_model_checkpoint(str(ckpt), cfg, params)
    x = Rng(99).normal((3, 32, 32))
    inp = tmp_path / "input.ssa"
    save_tensor(str(inp), x)
    out = tmp_path / "logits.ssa"

    doc, _ = run_cli(capsys, ["infer", str(ckpt), str(inp), "--out", str(out)])
    assert doc["command"] == "infer"
    assert doc["logits_shape"] == [cfg.classes]
    logits = load_tensor(str(out))
    ref = model_forward(x, params, cfg)
    assert logits.tobytes() == ref.tobytes()
    assert doc["logits_sha256"] == hashlib.sha256(ref.tobytes()).hexdigest()

    # a second run is bitwise identical
    doc2, _ = run_cli(capsys, ["infer", str(ckpt), str(inp), "--out", str(out)])
    assert doc2["logits_sha256"] == doc["logits_sha256"]
    assert load_tensor(str(out)).tobytes() == ref.tobytes()


def test_infer_missing_parameter_fails_cleanly(tmp_path, capsys):
    cfg = tiny_config()
    params = build_model(cfg, Rng(4))
    items = [(n, a) for n, a in param_items(params) if n != "head.w"]
    ckpt = tmp_path / "broken.ssc"
    save_checkpoint(str(ckpt), items, meta={"config": config_to_dict(cfg), "dtype": "f32"})
    x = Rng(1).normal((3, 32, 32))
    inp = tmp_path / "input.ssa"
    save_tensor(str(inp), x)

    rc = main(["infer", str(ckpt), str(inp), "--out", str(tmp_path / "o.ssa")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "head.w" in captured.err


def test_infer_geometry_error_fails_cleanly(tmp_path, capsys):
    cfg = tiny_config()
    params = build_model(cfg, Rng(5))
    ckpt = tmp_path / "model.ssc"
    save_model_checkpoint(str(ckpt), cfg, params)
    inp = tmp_path / "small.ssa"
    save_tensor(str(inp), Rng(2).normal((3, 16, 16)))

    rc = main(["infer", str(ckpt), str(inp), "--out", str(tmp_path / "o.ssa")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_infer_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main(
        [
            "infer",
            str(tmp_path / "no_such.ssc"),
            str(tmp_path / "no_such.ssa"),
            "--out",
            str(tmp_path / "o.ssa"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "no_such.ssc" in captured.err
