"""End-to-end command-line behavior: describe, check, bench, infer."""
import contextlib
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssattn.kernel as kernel_mod
from ssattn.bench import SCOPE_NOTE
from ssattn.checks import CHECKS, run_checks, tiny_config
from ssattn.cli import build_parser, main
from ssattn.errors import ConfigError
from ssattn.io import save_checkpoint, save_model_checkpoint, save_tensor, load_tensor, tensor_to_bytes
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


@pytest.mark.parametrize("argv", [
    ["describe", "--resolution", "3"],
    ["describe", "--resolution", "-4"],
    ["describe", "--resolution", "34"],
    ["bench", "--seed", "-1"],
    ["bench", "--resolution", "64"],
    ["bench", "--dtype", "f64"],
    ["check", "--suite", "oracle", "--seed", "-5"],
])
def test_resolution_or_seed_the_model_cannot_use_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "Traceback" not in err


def test_describe_of_a_config_naming_stage_overrides_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps({**config_to_dict(tiny_config()), "stage_overrides": [None, {"window": 5}, None, None]}))
    assert main(["describe", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config keys ['stage_overrides']" in captured.err and "Traceback" not in captured.err


def test_describe_of_an_unaddressable_stage_is_size_error(tmp_path, capsys):
    _, path = write_tiny_config(tmp_path, channels=(8, 16, 32, 2**33))
    assert main(["describe", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the address space" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff\xfe{}"], ids=["deep", "not-utf8"])
def test_describe_of_undecodable_config_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["describe", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


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


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_check_nan_or_negative_tolerance_is_rejected(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "params", "--tol", f"params={value}"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="must be >= 0"):
        run_checks(["params"], tols={"params": float(value)})


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
    with pytest.raises(ConfigError):
        run_checks(["nope"])


@pytest.fixture
def skew_lattice(monkeypatch):
    """Installer of an off-by-one in the fast path's lattice builder.

    The kernel builds each geometry's index plan once and caches it, so
    the plans are cleared when the skew goes in (plans built from the
    true lattice would hide it) and again when it comes out (skewed
    plans would fail later, clean runs).
    """
    orig = kernel_mod.clamped_lattice

    def skewed(center, side, k, d=1):
        lat = orig(center, side, k, d)
        if side > 1:
            lat = np.minimum(lat + d, side - 1)
        return lat

    def install():
        monkeypatch.setattr(kernel_mod, "clamped_lattice", skewed)
        kernel_mod._plan.cache_clear()

    yield install
    monkeypatch.undo()
    kernel_mod._plan.cache_clear()


def assert_oracle_check_fails(capsys):
    rc = main(["check", "--suite", "oracle", "--cases", "8"])
    captured = capsys.readouterr()
    assert rc == 1
    doc = json.loads(captured.out)
    assert doc["passed"] is False
    (result,) = doc["results"]
    assert result["name"] == "oracle"
    assert result["passed"] is False
    assert "[FAIL] oracle" in captured.err


def test_check_detects_mutated_lattice(skew_lattice, capsys):
    # a deliberate off-by-one in the fast path must trip the oracle suite
    skew_lattice()
    assert_oracle_check_fails(capsys)


def test_check_detects_mutated_lattice_after_the_same_run_warmed_the_cache(skew_lattice, capsys):
    # the clean run caches the plans of every geometry the skewed run asks for
    run_cli(capsys, ["check", "--suite", "oracle", "--cases", "8"])
    skew_lattice()
    assert_oracle_check_fails(capsys)


# ---------------------------------------------------------------------------
# bench


def test_bench_emits_well_formed_report(capsys):
    doc, err = run_cli(capsys, ["bench", "--repeats", "3", "--seed", "1"])
    assert doc["command"] == "bench"
    assert doc["repeats"] == 3
    assert set(doc) == {"command", "repeats", "seed", "scaling", "note"}
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infer_of_a_checkpoint_whose_logits_overflow_names_the_head(tmp_path, capsys):
    cfg = tiny_config()
    params = build_model(cfg, Rng(6))
    params.head.ln.scale = np.full_like(params.head.ln.scale, 3e38)  # finite, so the checkpoint round-trips
    ckpt, inp, out = tmp_path / "model.ssc", tmp_path / "input.ssa", tmp_path / "o.ssa"
    save_model_checkpoint(str(ckpt), cfg, params)
    save_tensor(str(inp), Rng(2).normal((3, 32, 32)))

    assert main(["infer", str(ckpt), str(inp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: head: the output holds NaN or Inf" in err and "Traceback" not in err
    assert not out.exists()


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


def test_infer_of_deeply_nested_manifest_fails_cleanly(tmp_path, capsys):
    ckpt, inp = tmp_path / "deep.ssc", tmp_path / "x.ssa"
    manifest = b"[" * 100_000
    ckpt.write_bytes(b"SSC1" + manifest + len(manifest).to_bytes(8, "little"))
    save_tensor(str(inp), Rng(2).normal((3, 32, 32)))
    assert main(["infer", str(ckpt), str(inp), "--out", str(tmp_path / "o.ssa")]) == 1
    err = capsys.readouterr().err
    assert "manifest is not valid JSON" in err and "Traceback" not in err


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


# ---------------------------------------------------------------------------
# any cheap argv


_FAST_SUITES = [name for name in CHECKS if name != "gradients"]
_CONFIG_TEXTS = st.sampled_from([
    json.dumps({**config_to_dict(tiny_config()), "classes": -1}).encode(), b"[" * 5000, b"\xff\xfe",
    b"", b"{", b"[]", b"{}", b'{"name": 3}', b'{"blocks": [1, 1, 1, 1], "heads": [0, 1, 1, 1]}',
])
_JUNK = st.binary(max_size=48)


def _maybe(draw, flag, values):
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []


@st.composite
def _cheap_argv(draw):
    """(argv, files): argv names file f of the test directory as '@f'; files maps names to bytes.

    Only cheap commands: describe, check on the fast suites with 0-3 cases,
    and infer on missing, junk or small files. bench is left out, since its
    exit code carries a wall-clock envelope.
    """
    files = {}
    command = draw(st.sampled_from(["describe", "check", "infer"]))
    if command == "describe":
        argv = ["describe"]
        config = draw(st.sampled_from(["@config.json", None, "ssvit-s", "nosuch"]))
        if config is not None:
            argv += draw(st.sampled_from([[config], ["--config", config]]))
        if config == "@config.json":
            files["config.json"] = draw(_CONFIG_TEXTS)
        argv += _maybe(draw, "--resolution", ["32", "64", "30", "0", "-8", "x"])
        argv += _maybe(draw, "--window", ["1", "3", "4", "0", "-3", "x"])
        argv += _maybe(draw, "--anchors", ["1", "7", "2", "0", "x"])
        argv += _maybe(draw, "--stride", ["auto", "1", "3", "0", "-2", "x"])
        argv += ["--no-lce"] if draw(st.booleans()) else []
    elif command == "check":
        argv = ["check", "--cases", str(draw(st.integers(0, 3)))]
        for name in draw(st.lists(st.sampled_from(_FAST_SUITES), min_size=1, max_size=2)):
            argv += ["--suite", name]
        argv += _maybe(draw, "--seed", ["0", "5", "-1", "x"])
        argv += _maybe(draw, "--tol", ["params=0.5", "oracle=nan", "io=-1", "lattice=x", "nosuch=1", "flops"])
    else:
        ckpt = draw(st.sampled_from(["@missing.ssc", "@junk.ssc", "@tiny.ssc"]))
        image = draw(st.sampled_from(["@missing.ssa", "@junk.ssa", "@image.ssa"]))
        if ckpt == "@junk.ssc":
            files["junk.ssc"] = draw(_JUNK)
        if image == "@junk.ssa":
            files["junk.ssa"] = draw(_JUNK)
        if image == "@image.ssa":
            shape = draw(st.sampled_from([(3, 32, 32), (3, 36, 32), (3, 16, 16), (1, 32, 32), (3,), ()]))
            fill = draw(st.sampled_from([0.0, 1.0, float("nan")]))
            dtype = draw(st.sampled_from([np.float32, np.float64]))
            files["image.ssa"] = tensor_to_bytes(np.full(shape, fill, dtype=dtype))
        out = draw(st.sampled_from(["@out.ssa", "@nodir/out.ssa", "@"]))
        argv = ["infer", ckpt, image, "--out", out]
    return argv, files


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    cfg = tiny_config()
    save_model_checkpoint(str(path / "tiny.ssc"), cfg, build_model(cfg, Rng(6)))
    return path


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=_cheap_argv())
def test_any_cheap_argv_exits_0_1_or_2_without_a_traceback(argv_dir, case):
    argv, files = case
    for name, data in files.items():
        (argv_dir / name).write_bytes(data)
    argv = [str(argv_dir / token[1:]) if token.startswith("@") else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# README


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("ssattn ")]


def test_every_readme_cli_example_parses(capsys):
    lines = _readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == {"describe", "check", "bench", "infer"}
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"{line!r}: {capsys.readouterr().err}")
