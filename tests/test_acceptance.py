"""Top-level acceptance gate.

Each test exercises one numbered criterion end to end at its stated
tolerance and runtime budget, then records a single [PASS]/[FAIL] line
(the terminal summary prints them all).
"""
import json
import time

import conftest

from ssattn.bench import SCOPE_NOTE
from ssattn.checks import (
    check_degeneracy,
    check_equivariance,
    check_flops,
    check_gradients,
    check_identity,
    check_io,
    check_lattice,
    check_normalization,
    check_oracle,
    check_params,
)
from ssattn.cli import main


def record(num, title, passed, seconds, budget, detail):
    status = "PASS" if passed else "FAIL"
    line = (
        f"[{status}] criterion {num} ({title}): {detail} -- {seconds:.2f}s"
        f" within {budget:.0f}s budget"
    )
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line
    assert seconds < budget, line


def bounds(r) -> str:
    """Each of a suite's bounds as `label err tol t`, read from its result."""
    return ", ".join(f"{k} {b['max_err']:.3g} tol {b['tol']:g}" for k, b in r.bounds.items())


def test_criterion_1_parameter_reproduction():
    r = check_params()
    counts = ", ".join(
        f"{k}={v['total']:,}" for k, v in r.detail.items() if isinstance(v, dict)
    )
    record(
        1,
        "parameter reproduction",
        r.passed and r.bounds["rel_dev"]["max_err"] <= 0.10,
        r.seconds,
        1.0,
        f"all four presets within 10% of 15M/27M/57M/100M ({counts}); {bounds(r)}",
    )


def test_criterion_2_flop_reproduction():
    r = check_flops()
    tiny = r.detail["ssvit-t@224"]
    itemized = set(tiny["breakdown"]) >= {"stem", "stage1", "stage2", "stage3", "stage4", "head"}
    record(
        2,
        "MAC reproduction",
        r.passed and itemized and tiny["rel_dev"] <= 0.15,
        r.seconds,
        1.0,
        f"ssvit-t@224 = {tiny['total']:,} MACs, {tiny['rel_dev']:.1%} from 2.4e9, itemized per stage",
    )


def test_criterion_3_oracle_equivalence():
    r = check_oracle()
    record(
        3,
        "oracle equivalence",
        r.passed and r.cases >= 200,
        r.seconds,
        120.0,
        f"{r.cases} randomized configs, max err {bounds(r)}",
    )


def test_criterion_4_degenerate_equivalences():
    r = check_degeneracy()
    record(
        4,
        "degenerate equivalences",
        r.passed and r.cases >= 40,
        r.seconds,
        30.0,
        f"max err {bounds(r)}, {r.cases} instances",
    )


def test_criterion_5_gradient_fidelity():
    r = check_gradients()
    record(
        5,
        "gradient fidelity",
        r.passed and r.cases >= 25,
        r.seconds,
        180.0,
        f"{r.cases} configs, rel err {bounds(r)}, step {r.detail['fd_step']:g}",
    )


def test_criterion_6_lattice_property_suite():
    lat = check_lattice()
    norm = check_normalization()
    eq = check_equivariance()
    passed = (
        lat.passed
        and norm.passed
        and eq.passed
        and lat.cases >= 500
        and norm.cases >= 500
        and eq.cases >= 500
    )
    seconds = lat.seconds + norm.seconds + eq.seconds
    record(
        6,
        "lattice/stochasticity properties",
        passed,
        seconds,
        60.0,
        f"lattice {lat.cases} cases ({bounds(lat)}), {norm.cases} rows ({bounds(norm)}), "
        f"{eq.cases} queries ({bounds(eq)})",
    )


def test_criterion_7_identity_and_shape_contract():
    r = check_identity()
    record(
        7,
        "residual identity and shape contract",
        r.passed and r.detail["geometries"] >= 10,
        r.seconds,
        30.0,
        f"zero-parameter blocks exact identity; {r.detail['geometries']} forward geometries",
    )


def test_criterion_8_format_round_trip():
    r = check_io()
    named = r.detail["corruption_errors"]
    expected = {
        "magic": "MagicError",
        "truncated": "TruncatedPayloadError",
        "oversized": "PayloadSizeError",
        "manifest": "ManifestError",
        "inflated": "TruncatedPayloadError",
    }
    record(
        8,
        "format round trip",
        r.passed and r.detail["tensor_round_trips"] >= 100
        and r.detail["checkpoint_round_trips"] >= 2 and named == expected,
        r.seconds,
        30.0,
        f"{r.detail['tensor_round_trips']} tensors + {r.detail['checkpoint_round_trips']}"
        f" checkpoints bitwise; corruptions raise {', '.join(sorted(named.values()))}",
    )


def test_criterion_9_scope_and_scaling(capsys):
    # published training-scale results are out of scope by construction;
    # the statement must say so explicitly and the bench report must be
    # well-formed with the per-token envelope inside its 2x bound
    for fragment in ["83.0", "84.4", "85.3", "85.7", "COCO", "ADE20K", "robustness",
                     "throughput", "cannot be reproduced"]:
        assert fragment in SCOPE_NOTE, fragment

    t0 = time.perf_counter()
    rc = main(["bench"])
    seconds = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    scaling = doc["scaling"]
    well_formed = (
        rc == 0
        and doc["note"] == SCOPE_NOTE
        and scaling["envelope_bound"] == 2.0
        and len(scaling["points"]) == 3
        and all(p["per_token_s"] > 0 for p in scaling["points"])
        and "speed_target" not in doc
    )
    spread = ", ".join(
        f"{p['side']}^2 {1e6 * p['min_s'] / p['tokens']:.3f}-{1e6 * p['max_s'] / p['tokens']:.3f}"
        for p in scaling["points"]
    )
    record(
        9,
        "scope statement and scaling envelope",
        well_formed and scaling["within_envelope"],
        seconds,
        60.0,
        f"non-reproducibility statement present; per-token envelope "
        f"{scaling['per_token_envelope']:.2f} within {scaling['envelope_bound']:.0f}x"
        f" (no absolute speed target); per-token us min-max over the timed rounds: {spread}",
    )
