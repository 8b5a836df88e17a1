"""End-to-end command-line behavior: describe, check, bench, infer."""
import contextlib
import hashlib
import inspect
import io
import json
import re
import shlex
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssattn.kernel as kernel_mod
from ssattn import bench, checks
from ssattn.bench import SCOPE_NOTE
from ssattn.checks import CHECKS, run_checks, tiny_config
from ssattn.cli import build_parser, main
from ssattn.errors import ConfigError, ShapeError
from ssattn.io import save_checkpoint, save_model_checkpoint, save_tensor, load_tensor, tensor_to_bytes
from ssattn.model import build_model, config_to_dict, model_forward, param_items
from ssattn.tensor import Rng


def strict_json(text):
    """Parse text as strict JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in JSON output")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, argv, expect_rc=0):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == expect_rc, captured.err
    return strict_json(captured.out), captured.err


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
    _, path = write_tiny_config(tmp_path, blocks=(2, 1, 1, 1), classes=5)
    doc, _ = run_cli(capsys, ["describe", path])
    assert doc["config"] == {"name": "tiny", "blocks": [2, 1, 1, 1], "channels": [8, 16, 32, 64],
                             "heads": [1, 2, 4, 8], "classes": 5}


@pytest.mark.parametrize("key, value", [
    ("ffn_ratio", 3), ("window", 3), ("anchors", 7), ("stride", "auto"), ("lce", True), ("in_channels", 3),
])
def test_describe_of_a_config_naming_a_removed_setting_fails_cleanly(tmp_path, capsys, key, value):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**config_to_dict(tiny_config()), key: value}))
    assert main(["describe", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown config keys ['{key}']" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["describe", "--resolution", "3"],
    ["describe", "--resolution", "-4"],
    ["describe", "--resolution", "34"],
    ["bench", "--seed", "1"],
    ["bench", "--repeats", "3"],
    ["bench", "--resolution", "64"],
    ["bench", "--dtype", "f64"],
    ["check", "--suite", "oracle", "--seed", "-5"],
    ["check", "--tol", "params=0.5"],
    ["describe", "--config", "ssvit-t"],
    ["describe", "--window", "5"],
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
    for names in ("oracle", "", 5):  # a string is not a list of names
        with pytest.raises(ConfigError, match=f"got {names!r}$"):
            run_checks(names)


def skew(lattice, center, side, k, d):
    """An irregular fault: every tap one step on, clipped at the far border, where
    the clipped taps pile onto the last key."""
    lat = lattice(center, side, k, d)
    return np.minimum(lat + d, side - 1) if side > 1 else lat


def neighbour(lattice, center, side, k, d):
    """A regular fault: each query takes its next neighbour's clamped lattice."""
    return lattice(np.minimum(center + 1, side - 1), side, k, d)


@pytest.fixture
def fault_lattice(monkeypatch):
    """Installer of a fault into the fast path's lattice builder.

    The kernel builds each geometry's index plan once and caches it, so
    the plans are cleared when the fault goes in (plans built from the
    true lattice would hide it) and again when it comes out (faulty
    plans would fail later, clean runs).
    """
    orig = kernel_mod.clamped_lattice

    def install(fault):
        def faulty(center, side, k, d=1):
            return fault(orig, center, side, k, d)

        monkeypatch.setattr(kernel_mod, "clamped_lattice", faulty)
        kernel_mod._plan.cache_clear()

    yield install
    monkeypatch.undo()
    kernel_mod._plan.cache_clear()


def assert_oracle_check_fails(capsys):
    """Run the oracle suite through the CLI, expect it to fail, and return
    the labels of the bounds its FAIL line shows over their tolerance."""
    rc = main(["check", "--suite", "oracle", "--cases", "8"])
    captured = capsys.readouterr()
    assert rc == 1
    doc = strict_json(captured.out)
    assert doc["passed"] is False
    (result,) = doc["results"]
    assert result["name"] == "oracle"
    assert result["passed"] is False
    (line,) = [ln for ln in captured.err.splitlines() if ln.startswith("[FAIL] oracle: ")]
    over = {k for k, err, tol in re.findall(r"(\w+) (\S+) tol ([^,\s]+)", line) if not float(err) <= float(tol)}
    assert over, line
    assert over == {k for k, b in result["bounds"].items() if not float(b["max_err"]) <= b["tol"]}
    return over


def test_check_detects_mutated_lattice(fault_lattice, capsys):
    # a deliberate off-by-one in the fast path must trip the oracle suite
    fault_lattice(neighbour)
    assert_oracle_check_fails(capsys)


def test_an_irregular_lattice_is_a_shape_error_before_any_product(fault_lattice, capsys):
    # the plan's strided views assume evenly spaced taps; a lattice without them is refused
    fault_lattice(skew)
    with pytest.raises(ShapeError, match="not evenly spaced"):
        run_checks(["oracle"], cases=8)
    rc = main(["check", "--suite", "oracle", "--cases", "8"])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(r"^error: lattice on an axis of extent \d+ is not evenly spaced$", err, re.M), err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault, over", [
    (lambda out: out + np.float32(1e-3) if out.dtype == np.float32 else out, {"f32"}),
    (lambda out: np.full_like(out, np.nan), {"f64", "f32"}),
])
def test_check_fail_line_shows_the_bound_a_fault_breaks(monkeypatch, capsys, fault, over):
    # an f32-only offset must show the f32 error, and a NaN must fail and still print strict JSON
    forward = checks.s3a_forward

    def faulty(*args):
        out, saved = forward(*args)
        return fault(out), saved

    monkeypatch.setattr(checks, "s3a_forward", faulty)
    assert assert_oracle_check_fails(capsys) == over


def test_check_detects_mutated_lattice_after_the_same_run_warmed_the_cache(fault_lattice, capsys):
    # the clean run caches the plans of every geometry the faulty run asks for
    run_cli(capsys, ["check", "--suite", "oracle", "--cases", "8"])
    fault_lattice(neighbour)
    assert_oracle_check_fails(capsys)


# ---------------------------------------------------------------------------
# bench


def test_bench_emits_well_formed_report(capsys):
    # the exit code only has to agree with the envelope: criterion 9 is the one wall-clock gate
    rc = main(["bench"])
    captured = capsys.readouterr()
    doc, err = json.loads(captured.out), captured.err
    assert rc == (0 if doc["scaling"]["within_envelope"] else 1), err
    assert set(doc) == {"command", "scaling", "note"}
    assert doc["command"] == "bench"
    scaling = doc["scaling"]
    assert [p["side"] for p in scaling["points"]] == [56, 28, 14]
    for p in scaling["points"]:
        assert p["per_token_s"] > 0 and 0 < p["min_s"] <= p["median_s"] <= p["max_s"]
    assert scaling["envelope_bound"] == 2.0
    assert scaling["per_token_envelope"] >= 1.0
    assert doc["note"] == SCOPE_NOTE
    assert "envelope" in err


def _stub_gate(monkeypatch, per_token, slow=lambda side, rnd: 1.0):
    """Stub the gate's layer and clock, so no wall clock is read.

    A forward on a side x side map advances the clock by per_token[side]
    seconds per token, times slow(side, rnd) in timed round rnd.
    """
    clock, calls = [0.0], dict.fromkeys(bench.SCALING_SIDES, 0)

    def forward(x, params, cfg):
        side = x.shape[-1]
        rnd = calls[side] - bench.SCALING_ROUNDS  # negative in the untimed rounds
        calls[side] += 1
        clock[0] += per_token[side] * side * side * (slow(side, rnd) if rnd >= 0 else 1.0)

    monkeypatch.setattr(bench, "s3a_forward", forward)
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    return calls


EVEN = dict.fromkeys(bench.SCALING_SIDES, 1e-6)


@pytest.mark.parametrize("side", bench.SCALING_SIDES)
def test_a_burst_over_4_of_the_9_timed_rounds_leaves_the_envelope(monkeypatch, side):
    calls = _stub_gate(monkeypatch, EVEN)
    calm = bench.bench_scaling()
    assert calls == dict.fromkeys(bench.SCALING_SIDES, 2 * 9)  # 9 untimed rounds, then 9 timed
    _stub_gate(monkeypatch, EVEN, slow=lambda s, rnd: 3.0 if s == side and rnd < 4 else 1.0)
    burst = bench.bench_scaling()
    assert burst["within_envelope"]
    assert burst["per_token_envelope"] == calm["per_token_envelope"] == 1.0
    i = bench.SCALING_SIDES.index(side)
    hit, calm_hit = burst["points"][i], calm["points"][i]
    assert hit["median_s"] == calm_hit["median_s"] and hit["max_s"] == pytest.approx(3 * calm_hit["max_s"])


@pytest.mark.parametrize("side", bench.SCALING_SIDES)
def test_a_burst_over_5_of_the_9_timed_rounds_moves_the_median(monkeypatch, side):
    # the statistic's limit: a majority of the timed rounds is the layer's time
    _stub_gate(monkeypatch, EVEN, slow=lambda s, rnd: 3.0 if s == side and rnd % 2 == 0 else 1.0)
    burst = bench.bench_scaling()
    assert not burst["within_envelope"] and burst["per_token_envelope"] == pytest.approx(3.0)
    hit = burst["points"][bench.SCALING_SIDES.index(side)]
    assert hit["min_s"] * 3 == pytest.approx(hit["median_s"]) == hit["max_s"]


@pytest.mark.parametrize("side", bench.SCALING_SIDES)
def test_a_layer_slower_per_token_at_one_size_fails_the_gate(monkeypatch, capsys, side):
    _stub_gate(monkeypatch, {**EVEN, side: 2.5e-6})
    assert main(["bench"]) == 1
    captured = capsys.readouterr()
    scaling = json.loads(captured.out)["scaling"]
    assert not scaling["within_envelope"] and scaling["per_token_envelope"] == pytest.approx(2.5)
    assert "EXCEEDED" in captured.err


@pytest.mark.parametrize("ratio, rc", [(2.0, 0), (2.0 + 2.0**-9, 1)])
def test_the_gate_holds_an_envelope_of_exactly_the_bound(monkeypatch, capsys, ratio, rc):
    # per-token times of powers of two keep the stubbed clock exact
    _stub_gate(monkeypatch, {**dict.fromkeys(bench.SCALING_SIDES, 2.0**-20), 28: ratio * 2.0**-20})
    assert main(["bench"]) == rc
    scaling = json.loads(capsys.readouterr().out)["scaling"]
    assert scaling["within_envelope"] == (rc == 0) and scaling["per_token_envelope"] == round(ratio, 4)


def test_bench_options_are_out_only(capsys):
    assert not inspect.signature(bench.bench_scaling).parameters
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help", "--out"}


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
            argv.append(config)
        if config == "@config.json":
            files["config.json"] = draw(_CONFIG_TEXTS)
        argv += _maybe(draw, "--resolution", ["32", "64", "30", "0", "-8", "x"])
    elif command == "check":
        argv = ["check", "--cases", str(draw(st.integers(0, 3)))]
        for name in draw(st.lists(st.sampled_from(_FAST_SUITES), min_size=1, max_size=2)):
            argv += ["--suite", name]
        argv += _maybe(draw, "--seed", ["0", "5", "-1", "x"])
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
