"""Front-end tests: config schema enforcement, exit codes, file round-trips,
CSV/JSON output contracts, and rerun determinism."""

import csv
import dataclasses
import importlib.util
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import typing
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

import cslr
from cslr import cli, giraf
from cslr.baselines import IRLSConfig
from cslr.cli import main
from cslr.giraf import SolverConfig
from cslr.grids import ComplexGrid, IndexBox, load_grid, save_grid


def _write_config(path, **overrides):
    config = {
        "name": "dirac63",
        "data_box": {"offset": [-31], "extent": [63]},
        "filter_box": {"offset": [-7], "extent": [15]},
        "weighting": "identity",
        "signal": {"kind": "dirac", "r": 4, "seed": 3, "min_separation": 0.1333},
        "sampling": {"usf": 0.6, "seed": 11},
        "timing": "none",
        "solver": {"algorithm": "giraf", "p": 0, "outer_iters": 25,
                   "ls_solver": "admm", "inner_iters": 30, "oversample": True},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def _read_csv(path):
    with path.open() as f:
        return list(csv.DictReader(f))


def test_gen_roundtrip_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    for d in ("a", "b"):
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / d)]) == 0
    names = ["truth.cslr", "mask.cslr", "measured.cslr", "manifest.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    truth = load_grid(tmp_path / "a" / "truth.cslr")
    mask = load_grid(tmp_path / "a" / "mask.cslr")
    measured = load_grid(tmp_path / "a" / "measured.cslr")
    assert truth.box == mask.box == measured.box
    assert set(np.unique(mask.values)) <= {0, 1}
    keep = mask.values.real > 0.5
    assert np.array_equal(measured.values, np.where(keep, truth.values, 0))
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["sampling"]["seed"] == 11


def test_seed_shift_changes_instance(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "s0")]) == 0
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "s5"),
                 "--seed", "5"]) == 0
    a = load_grid(tmp_path / "s0" / "truth.cslr")
    b = load_grid(tmp_path / "s5" / "truth.cslr")
    assert not np.allclose(a.values, b.values)
    # the shift lands in the manifest so the run can be reproduced
    manifest = json.loads((tmp_path / "s5" / "manifest.json").read_text())
    assert manifest["config"]["signal"]["seed"] == 3 + 5
    assert manifest["seed_shift"] == 5


def test_recover_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "rec"
    assert main(["recover", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "giraf0"
    assert summary["final_nmse"] < 1e-3
    assert summary["final_snr_db"] > 30.0
    assert summary["wall_seconds"] == 0.0  # timing: none
    rows = _read_csv(out / "trace.csv")
    assert list(rows[0]) == ["iter", "eps", "nmse", "cost", "sigma_min",
                             "sigma_max", "seconds"]
    assert len(rows) == summary["iterations"] == 25
    eps = [float(r["eps"]) for r in rows]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    assert all(r["seconds"] == "0" for r in rows)
    recovered = load_grid(out / "recovered.cslr")
    assert recovered.box.extent == (63,)


def test_p0_trace_csv_leaves_sigma_empty_before_the_last_row(tmp_path):
    # p = 0 takes eigenvalues only at the first and the closing iterate, so
    # only the last row has a singular-value range; every row has a cost
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "rec"
    assert main(["recover", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "trace.csv")
    for row in rows[:-1]:
        assert row["sigma_min"] == row["sigma_max"] == ""
    assert 0.0 <= float(rows[-1]["sigma_min"]) <= float(rows[-1]["sigma_max"])
    assert all(np.isfinite(float(row["cost"])) for row in rows)


def test_recover_from_files_without_truth(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    gen = tmp_path / "gen"
    assert main(["gen", "--config", str(cfg), "--out", str(gen)]) == 0
    file_cfg = tmp_path / "file_cfg.json"
    _write_config(file_cfg, signal={
        "kind": "file",
        "mask": str(gen / "mask.cslr"),
        "measured": str(gen / "measured.cslr"),
    })
    out = tmp_path / "rec"
    assert main(["recover", "--config", str(file_cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "trace.csv")
    assert "nmse" not in rows[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_nmse"] is None and summary["final_snr_db"] is None

    # with the truth supplied the recovery error is visible again
    with_truth = tmp_path / "truth_cfg.json"
    _write_config(with_truth, signal={
        "kind": "file",
        "truth": str(gen / "truth.cslr"),
        "mask": str(gen / "mask.cslr"),
        "measured": str(gen / "measured.cslr"),
    })
    out2 = tmp_path / "rec2"
    assert main(["recover", "--config", str(with_truth), "--out", str(out2)]) == 0
    summary2 = json.loads((out2 / "summary.json").read_text())
    assert summary2["final_nmse"] < 1e-3


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # unknown algorithm is rejected by the schema
    _write_config(cfg, solver={"algorithm": "mystery"})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 2

    # unknown top-level key
    base = _write_config(cfg)
    base["surprise"] = 1
    cfg.write_text(json.dumps(base))
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    line = capsys.readouterr().err
    assert len(line.encode()) < 1024
    assert "'surprise'" in json.loads(line)["error"]["message"]

    # field that belongs to a different solver family
    _write_config(cfg, solver={"algorithm": "giraf", "rank_r": 4})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    # malformed json
    cfg.write_text("{not json")
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    # missing solver section
    base = _write_config(cfg)
    del base["solver"]
    cfg.write_text(json.dumps(base))
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    # an oversampling factor the solve would not read
    capsys.readouterr()
    _write_config(cfg, solver={"algorithm": "giraf", "oversample_factor": 2.0})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and "oversample_factor" in err["message"]


@pytest.mark.parametrize("algorithm", ["giraf", "irls"])
@pytest.mark.parametrize("field, value", [("eps0", -1), ("eps0", 0), ("eps_min", -1),
                                          ("cg_tol", -1)])
def test_reweighting_fields_rejected_for_both_reweighted_solvers(tmp_path, capsys,
                                                                 algorithm, field, value):
    # giraf and direct IRLS read the same smoothing and CG fields, so both
    # reject the same values before any solve
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, solver={"algorithm": algorithm, "p": 0, field: value})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["exit_code"] == 2 and err["type"] == "ConfigError"
    assert field in err["message"]


def test_zero_cg_tol_stays_valid():
    # the subproblem bench runs its CG legs with cg_tol 0 by default
    SolverConfig(cg_tol=0.0).validate()
    IRLSConfig(cg_tol=0.0).validate()


def test_data_errors_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    gen = tmp_path / "gen"
    assert main(["gen", "--config", str(cfg), "--out", str(gen)]) == 0
    # a grid that is not 0/1 cannot serve as a mask
    bad = tmp_path / "bad_cfg.json"
    _write_config(bad, signal={
        "kind": "file",
        "mask": str(gen / "truth.cslr"),
        "measured": str(gen / "measured.cslr"),
    })
    assert main(["recover", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3
    # missing file
    _write_config(bad, signal={
        "kind": "file",
        "mask": str(gen / "nope.cslr"),
        "measured": str(gen / "measured.cslr"),
    })
    assert main(["recover", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_bench_tol_protocol(tmp_path):
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg)
    del base["solver"]
    base["sweep"] = {
        "protocol": "tol",
        "tol": 1e-4,
        "seeds": [0, 1],
        "solvers": [
            {"algorithm": "ap", "rank_r": 4, "max_iters": 60},
            {"algorithm": "giraf", "p": 0, "outer_iters": 3,
             "ls_solver": "admm", "inner_iters": 20, "oversample": True},
        ],
    }
    cfg.write_text(json.dumps(base))
    for d in ("b1", "b2"):
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / d)]) == 0
    assert (tmp_path / "b1" / "bench.csv").read_bytes() == \
        (tmp_path / "b2" / "bench.csv").read_bytes()
    rows = _read_csv(tmp_path / "b1" / "bench.csv")
    assert list(rows[0]) == ["dataset", "algorithm", "p", "usf", "seed",
                             "iters_to_tol", "seconds_to_tol", "final_nmse"]
    assert len(rows) == 4
    keys = [(r["algorithm"], int(r["seed"])) for r in rows]
    assert keys == sorted(keys)
    by_alg = {}
    for r in rows:
        by_alg.setdefault(r["algorithm"], []).append(r)
    # the truncation solver converges; three reweighted outers do not
    for r in by_alg["ap"]:
        assert float(r["final_nmse"]) < 1e-6
        assert int(r["iters_to_tol"]) <= 30
        assert r["seconds_to_tol"] == "0"
    for r in by_alg["giraf0"]:
        assert r["iters_to_tol"] == "Inf" and r["seconds_to_tol"] == "Inf"
        assert float(r["final_nmse"]) > 1e-4


def test_bench_mem_marker(tmp_path):
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg,
                         name="big",
                         data_box={"offset": [-300, -300], "extent": [600, 600]},
                         filter_box={"offset": [-22, -22], "extent": [45, 45]},
                         signal={"kind": "rects", "preset": "pwc1"},
                         sampling={"usf": 0.5, "seed": 1})
    del base["solver"]
    base["sweep"] = {"solvers": [{"algorithm": "ap", "rank_r": 4, "max_iters": 2}]}
    cfg.write_text(json.dumps(base))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 0
    rows = _read_csv(tmp_path / "m" / "bench.csv")
    assert rows[0]["iters_to_tol"] == "Mem"
    assert rows[0]["final_nmse"] == "Mem"


def test_bench_subproblem_protocol(tmp_path):
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, solver={"algorithm": "giraf", "p": 0, "lam": 0.1})
    base["sweep"] = {
        "protocol": "subproblem",
        "reference_iters": 1500,
        "solvers": [
            {"algorithm": "giraf", "ls_solver": "admm", "delta": 10,
             "inner_iters": 25},
            {"algorithm": "giraf", "ls_solver": "cg", "inner_iters": 25},
        ],
    }
    cfg.write_text(json.dumps(base))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    rows = _read_csv(tmp_path / "s" / "subproblem.csv")
    assert list(rows[0]) == ["dataset", "solver", "iter", "seconds", "nmsd"]
    assert len(rows) == 50
    by_solver = {}
    for r in rows:
        by_solver.setdefault(r["solver"], []).append(float(r["nmsd"]))
    assert set(by_solver) == {"admm-delta10", "cg"}
    for dists in by_solver.values():
        assert dists[-1] < dists[0]
    assert by_solver["cg"][-1] < 1e-12


def _subproblem_and_recover_eps0(tmp_path, boxes=None, **solver):
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, noise={"snr_db": 30.0, "seed": 17}, solver={
        "algorithm": "giraf", "p": 0, "lam": 0.05, "outer_iters": 1, **solver},
        **(boxes or {}))
    base["sweep"] = {"protocol": "subproblem", "reference_iters": 50,
                     "solvers": [{"algorithm": "giraf", "ls_solver": "cg",
                                  "inner_iters": 5}]}
    cfg.write_text(json.dumps(base))
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    return manifest["eps0"], summary["eps0"]


def test_subproblem_eps0_matches_recover(tmp_path):
    # the subproblem bench freezes the first reweighting step of the solve,
    # so its automatic eps0 must be the solver's, to the last bit
    bench, recover = _subproblem_and_recover_eps0(tmp_path)
    assert bench == recover


def test_subproblem_oversampled_eps0_matches_recover(tmp_path):
    # ... on the solve's oversampled working grid when the solver asks for it
    bench, recover = _subproblem_and_recover_eps0(tmp_path, oversample=True)
    assert bench == recover
    (tmp_path / "plain").mkdir()
    plain, _ = _subproblem_and_recover_eps0(tmp_path / "plain")
    assert plain != bench


def test_subproblem_eps0_matches_recover_above_the_lanczos_order(tmp_path, monkeypatch):
    # with a Gram of order 361, above giraf._LANCZOS_ORDER, both take the
    # first lambda_max from the same Lanczos routine and no spectrum: the
    # same eps0 to the last bit, and a rerun of the solve writes the same
    # bytes (criterion 13)
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, **kw: spectra.append(a.shape[0]) or eigvalsh(a, **kw))
    boxes = {"data_box": {"offset": [-200], "extent": [401]},
             "filter_box": {"offset": [-180], "extent": [361]}}
    assert 361 > giraf._LANCZOS_ORDER
    bench, recover = _subproblem_and_recover_eps0(tmp_path, boxes, outer_iters=2)
    assert bench == recover
    assert spectra == [361]  # the closing row of the solve only
    files = ("recovered.cslr", "trace.csv", "summary.json")
    first = {f: (tmp_path / "r" / f).read_bytes() for f in files}
    assert main(["recover", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "r")]) == 0
    assert {f: (tmp_path / "r" / f).read_bytes() for f in files} == first


def test_subproblem_freezes_the_weights_of_the_first_step(tmp_path, monkeypatch):
    # with eps_min above eps0 the solve's first step runs at eps_min, not at
    # eps0: the bench must freeze the weights that step uses, on the same
    # working grid
    seen = {}

    def spy_on(module, command):
        inner = module._inner_solve

        def spy(spec, sampling, d, *args, **kwargs):
            seen.setdefault(command, (spec.data_box, d))
            return inner(spec, sampling, d, *args, **kwargs)

        monkeypatch.setattr(module, "_inner_solve", spy)

    spy_on(giraf, "recover")
    spy_on(cli, "bench")
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, solver={
        "algorithm": "giraf", "p": 0, "lam": 0.05, "eps0": 1e-3, "eps_min": 1e-2,
        "outer_iters": 2, "oversample": True})
    base["sweep"] = {"protocol": "subproblem", "reference_iters": 10,
                     "solvers": [{"algorithm": "giraf", "ls_solver": "cg",
                                  "inner_iters": 2}]}
    cfg.write_text(json.dumps(base))
    for command in ("recover", "bench"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    (solve_box, solve_d), (bench_box, bench_d) = seen["recover"], seen["bench"]
    assert bench_box == solve_box and bench_box.extent != (63,)
    assert np.array_equal(bench_d, solve_d)


def test_compare_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    gen = tmp_path / "gen"
    rec = tmp_path / "rec"
    assert main(["gen", "--config", str(cfg), "--out", str(gen)]) == 0
    assert main(["recover", "--config", str(cfg), "--out", str(rec)]) == 0
    truth = str(gen / "truth.cslr")
    recovered = str(rec / "recovered.cslr")

    # identical inputs: zero differences
    assert main(["compare", recovered, recovered, "--truth", truth,
                 "--tol", "1e-3", "--max-diff", "0", "--nmse-diff", "0"]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().splitlines() if line]
    assert any(r[-1] == "0" and r[-2] == "0" for r in rows[1:])

    # a genuinely different grid trips the entrywise bound
    assert main(["compare", recovered, truth, "--max-diff", "1e-12"]) == 1
    capsys.readouterr()

    # mismatched boxes are a data error
    cfg2 = tmp_path / "cfg2.json"
    _write_config(cfg2, data_box={"offset": [-20], "extent": [41]})
    gen2 = tmp_path / "gen2"
    assert main(["gen", "--config", str(cfg2), "--out", str(gen2)]) == 0
    assert main(["compare", recovered, str(gen2 / "truth.cslr")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3

    # fewer than two inputs is a usage error
    assert main(["compare", recovered]) == 2
    capsys.readouterr()

    # the NMSE bounds need a truth to measure against
    assert main(["compare", recovered, truth, "--truth", truth, "--tol", "1e-30"]) == 1
    capsys.readouterr()
    for option in ("--tol", "--nmse-diff"):
        assert main(["compare", recovered, truth, option, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ConfigError" and option in err["message"]


def test_manifests_have_no_timestamps(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "rec"
    assert main(["recover", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    blob = json.dumps(manifest).lower()
    assert "time" not in blob.replace("timing", "").replace("max_iters", "")
    assert manifest["resolved_solver"]["inner_iters"] == 30
    assert manifest["resolved_solver"]["algorithm"] == "giraf"


_GIRAF_SHORT = {"algorithm": "giraf", "p": 0, "outer_iters": 3, "inner_iters": 5}
_IRLS_SHORT = {"algorithm": "irls", "p": 0, "max_iters": 3, "inner_iters": 5}
_SVT_UV_SHORT = {"algorithm": "svt_uv", "rank_r": 4, "lam": 0.05, "max_iters": 3}


def _scaled_measurements_config(tmp_path, solver, scale):
    """Config recovering the example config's measurements times scale
    through a file signal with the given solver entry."""
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 0
    measured = load_grid(tmp_path / "gen" / "measured.cslr")
    save_grid(ComplexGrid(measured.box, measured.values * scale),
              tmp_path / "scaled.cslr")
    _write_config(cfg, solver=solver, signal={
        "kind": "file",
        "mask": str(tmp_path / "gen" / "mask.cslr"),
        "measured": str(tmp_path / "scaled.cslr"),
    })
    return cfg


def _recover_scaled_measurements(tmp_path, capsys, solver, scale):
    """Recover the scaled measurements in-process; expects exit 4 and
    returns the parsed error line."""
    cfg = _scaled_measurements_config(tmp_path, solver, scale)
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 4
    return err


@pytest.mark.parametrize("solver, scale", [
    pytest.param(_GIRAF_SHORT, 0.0, id="solver0"),
    pytest.param(_IRLS_SHORT, 0.0, id="solver1"),
    pytest.param(_GIRAF_SHORT, 1e-160, id="solver0-scaled1e-160"),
    pytest.param(_IRLS_SHORT, 1e-160, id="solver1-scaled1e-160"),
    pytest.param(_GIRAF_SHORT, 1e160, id="solver0-scaled1e160"),
    pytest.param(_IRLS_SHORT, 1e160, id="solver1-scaled1e160"),
    pytest.param(_SVT_UV_SHORT, 1e160, id="svt_uv-scaled1e160"),
])
def test_zero_measurements_exit_4(tmp_path, capsys, solver, scale):
    # an all-zero first iterate has an identically zero lifting, so no
    # smoothing schedule exists; measurements scaled by 1e-160 leave a lifting
    # so small that the weights (lambda + eps)^(p/2 - 1) overflow, and by
    # 1e160 one whose spectrum overflows. All are solver failures for every
    # reweighted solver, not config errors; so is the dense SVD that numpy
    # cannot converge on the blown-up lifting of a baseline.
    err = _recover_scaled_measurements(tmp_path, capsys, solver, scale)
    if solver is _SVT_UV_SHORT:
        assert err["error"]["type"] == "LinAlgError"
        return
    assert err["error"]["type"] == "SolverError"
    if scale == 0:
        assert err["error"]["message"] == "first iterate has an identically zero lifting"
    elif scale < 1:
        assert "overflow" in err["error"]["message"]
    else:
        assert err["error"]["message"] in (
            "Gram eigendecomposition failed: Eigenvalues did not converge",
            "largest eigenvalue of the first iterate's lifting is inf")


_CG_BLOW_UP = pytest.mark.parametrize("solver, scale", [
    pytest.param({**_GIRAF_SHORT, "ls_solver": "cg"}, scale, id=f"giraf_cg-{scale:g}")
    for scale in (1e150, 1e-150)] + [
    pytest.param(_IRLS_SHORT, scale, id=f"irls-{scale:g}") for scale in (1e150, 1e-150)])


def test_admm_blow_up_exits_4(tmp_path, capsys):
    # measurements times 1e152 leave the spectrum and the weights finite,
    # but the ADMM iterate leaves the float range: a solver failure, not
    # the ValueError of a non-finite grid
    solver = {"algorithm": "giraf", "p": 0, "lam": 0.05, "outer_iters": 5, "oversample": True}
    err = _recover_scaled_measurements(tmp_path, capsys, solver, 1e152)
    assert err["error"]["type"] == "SolverError"
    assert err["error"]["message"] == "ADMM iterate is not finite"


@_CG_BLOW_UP
def test_cg_blow_up_exits_4(tmp_path, capsys, solver, scale):
    # at these scales the spectrum and the weights stay finite (ADMM
    # succeeds), but the first conjugate-gradient step leaves the float
    # range: a solver failure, not the ValueError of a non-finite grid,
    # which would exit 2 as a config error
    err = _recover_scaled_measurements(tmp_path, capsys, solver, scale)
    assert err["error"]["type"] == "SolverError"
    assert err["error"]["message"] == "conjugate gradients went non-finite at step 1"


def _assert_only_a_solver_error_line(run):
    assert run.returncode == 4
    lines = run.stderr.splitlines()
    assert len(lines) == 1, run.stderr
    assert json.loads(lines[0])["error"]["type"] == "SolverError"


@_CG_BLOW_UP
def test_failed_run_prints_only_its_json_line(tmp_path, solver, scale):
    # in a fresh interpreter, where no test harness captures warnings: the
    # non-finite arithmetic ahead of the failure stays silent, so stderr
    # holds the error line alone
    cfg = _scaled_measurements_config(tmp_path, solver, scale)
    _assert_only_a_solver_error_line(_python("-m", "cslr.cli", "recover", "--config", str(cfg),
                                             "--out", str(tmp_path / "o")))


def test_failed_threaded_bench_prints_only_its_json_line(tmp_path):
    # the worker processes of a sweep run under the same silenced warnings
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, signal={"kind": "dirac", "r": 4, "seed": 3, "min_separation": 0.1333,
                               "amplitude_range": [1e150, 1.5e150]},
                  sweep={"seeds": [0, 1], "solvers": [{**_GIRAF_SHORT, "ls_solver": "cg"}]})
    _assert_only_a_solver_error_line(_python("-m", "cslr.cli", "bench", "--config", str(cfg),
                                             "--threads", "2", "--out", str(tmp_path / "o")))


def _sweep_config(tmp_path, seeds, solvers):
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, sweep={"seeds": seeds, "solvers": solvers})
    del base["solver"]
    cfg.write_text(json.dumps(base))
    return cfg


def _bench(cfg, out, threads):
    return main(["bench", "--config", str(cfg), "--threads", str(threads),
                 "--out", str(out)])


@pytest.mark.parametrize("sweep, key", [
    pytest.param({"solvers": [{**_GIRAF_SHORT, "ls_solver": "admm"},
                              {**_GIRAF_SHORT, "ls_solver": "cg"}]},
                 "dirac63,giraf0,0.0,0.6,0", id="labels"),
    pytest.param({"usf": [0.5, 0.5], "solvers": [_IRLS_SHORT]},
                 "dirac63,irls0,0.0,0.5,0", id="usf"),
    pytest.param({"seeds": [2, 1, 2], "solvers": [{"algorithm": "ap", "rank_r": 4}]},
                 "dirac63,ap,0.0,0.6,2", id="seeds"),
    pytest.param({"protocol": "subproblem", "reference_iters": 10,
                  "solvers": [{"algorithm": "giraf", "inner_iters": 5},
                              {"algorithm": "giraf", "delta": 10}]},
                 "dirac63,admm-delta10", id="subproblem"),
])
def test_sweep_cells_sharing_a_key_exit_2(tmp_path, capsys, sweep, key):
    # rows under one key could not be told apart in the CSV
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, solver={"algorithm": "giraf", "p": 0, "lam": 0.1}, sweep=sweep)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == f"two sweep cells share the key {key}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sweep", [
    pytest.param({"solvers": [{"algorithm": "ap", "rank_r": 4, "max_iters": 5,
                               "label": ""}]}, id="tol"),
    pytest.param({"protocol": "subproblem", "reference_iters": 10,
                  "solvers": [{"algorithm": "giraf", "inner_iters": 5, "label": ""}]},
                 id="subproblem"),
])
def test_empty_label_exit_2(tmp_path, capsys, sweep):
    # an empty label names no cell: the tol protocol would write an empty
    # algorithm cell and the subproblem protocol its default label, so
    # both refuse it
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, solver={"algorithm": "giraf", "p": 0, "lam": 0.1}, sweep=sweep)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and ".label" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("smoke", [False, True])
def test_benchmark_sweep_entries_resolve(tmp_path, monkeypatch, smoke):
    # perfbench's sweep workload runs cslr bench on a config of its own,
    # which this suite does not otherwise read
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look it up in sys.modules as they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    config = cli.load_config(module.SweepWorkload(tmp_path, smoke).config_path)
    for entry in config["sweep"]["solvers"]:
        cli._resolve_solver(entry)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg = _sweep_config(tmp_path, [0], [_GIRAF_SHORT])
    assert _bench(cfg, tmp_path / "o", threads) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and "--threads" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen", "recover"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_threads_outside_bench_exit_2(tmp_path, capsys, command, threads):
    # nothing but a tol bench sweep reads --threads, so passing it anywhere
    # else is refused rather than ignored, also at its default value
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--threads", threads, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ConfigError" and "--threads" in err["message"]
    assert not out.exists()


def test_subproblem_bench_refuses_worker_processes(tmp_path, capsys):
    # the subproblem bench runs in one process: more than one worker is
    # refused, one is the default
    cfg = tmp_path / "cfg.json"
    base = _write_config(cfg, solver={"algorithm": "giraf", "p": 0, "lam": 0.1})
    base["sweep"] = {"protocol": "subproblem", "reference_iters": 10,
                     "solvers": [{"algorithm": "giraf", "inner_iters": 5}]}
    cfg.write_text(json.dumps(base))
    assert _bench(cfg, tmp_path / "o", 2) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ConfigError" and "--threads" in err["message"]
    assert not (tmp_path / "o").exists()
    assert _bench(cfg, tmp_path / "o1", 1) == 0
    assert (tmp_path / "o1" / "subproblem.csv").exists()


def test_bench_outputs_do_not_depend_on_worker_processes(tmp_path):
    cfg = _sweep_config(tmp_path, [0, 1], [
        {**_GIRAF_SHORT, "ls_solver": "admm", "oversample": True},
        {**_GIRAF_SHORT, "ls_solver": "cg", "label": "giraf_cg"},
        _IRLS_SHORT,
        {"algorithm": "ap", "rank_r": 4, "max_iters": 20},
    ])
    for threads in (1, 2):
        assert _bench(cfg, tmp_path / f"t{threads}", threads) == 0
    assert not multiprocessing.active_children()
    for name in ("bench.csv", "manifest.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
    assert len(_read_csv(tmp_path / "t2" / "bench.csv")) == 8


def test_bench_cells_run_in_worker_processes(tmp_path, monkeypatch):
    tol_row = cli._tol_row

    def recording(config, entry, usf, seed, tol, timing):
        (tmp_path / f"cell{seed}.pid").write_text(str(os.getpid()))
        return tol_row(config, entry, usf, seed, tol, timing)

    monkeypatch.setattr(cli, "_tol_row", recording)
    cfg = _sweep_config(tmp_path, [0, 1, 2], [{"algorithm": "ap", "rank_r": 4, "max_iters": 5}])
    assert _bench(cfg, tmp_path / "o", 2) == 0
    assert not multiprocessing.active_children()
    pids = {int((tmp_path / f"cell{seed}.pid").read_text()) for seed in (0, 1, 2)}
    assert os.getpid() not in pids


def test_failed_cell_cancels_the_cells_not_started(tmp_path, monkeypatch, capsys):
    # the cell of seed 0 fails at once while the others take a while, so
    # the cells the pool has not yet handed to a worker never start
    def failing(config, entry, usf, seed, tol, timing):
        (tmp_path / f"started{seed}").touch()
        if seed == 0:
            raise giraf.SolverError("cell failed")
        time.sleep(0.3)
        key = (config["name"], "ap", 0.0, usf, seed)
        return key, key + (1, 0.0, 0.0)

    monkeypatch.setattr(cli, "_tol_row", failing)
    cfg = _sweep_config(tmp_path, list(range(12)),
                        [{"algorithm": "ap", "rank_r": 4, "max_iters": 5}])
    assert _bench(cfg, tmp_path / "o", 2) == 4
    assert not multiprocessing.active_children()
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SolverError" and err["message"] == "cell failed"
    assert len(list(tmp_path.glob("started*"))) < 12


def test_dead_worker_exits_4(tmp_path, monkeypatch, capsys):
    tol_row, caller = cli._tol_row, os.getpid()

    def killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return tol_row(*args)

    monkeypatch.setattr(cli, "_tol_row", killed)
    cfg = _sweep_config(tmp_path, [0, 1], [{"algorithm": "ap", "rank_r": 4, "max_iters": 5}])
    assert _bench(cfg, tmp_path / "o", 2) == 4
    assert not multiprocessing.active_children()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["exit_code"] == 4 and err["type"] == "BrokenProcessPool"


def _declared(cls):
    return {f.name for f in dataclasses.fields(cls)}


# the fields each baseline solver reads, and so accepts
_BASELINE_FIELDS = {
    "ap": {"rank_r", "max_iters", "tol"},
    "ap_prox": {"rank_r", "lam", "max_iters", "tol"},
    "svt": {"lam", "beta", "equality", "max_iters", "tol"},
    "svt_uv": {"rank_r", "lam", "beta", "equality", "max_iters", "tol", "seed"},
    "irls": {"p", "lam", "equality", "eps0", "eta", "eps_min", "max_iters",
             "inner_iters", "cg_tol", "tol"},
}

# a value of every solver field that its solvers accept
_FIELD_VALUES = {
    "p": 0.5, "lam": 0.5, "eps0": 1.0, "eta": 1.5, "eps_min": 1e-3, "outer_iters": 2,
    "ls_solver": "cg", "inner_iters": 5, "delta": 5.0, "cg_tol": 1e-9, "oversample": True,
    "oversample_factor": 1.5, "rank_r": 4, "beta": 2.0, "equality": False, "max_iters": 3,
    "tol": 1e-3, "seed": 1,
}


def test_solver_schema_matches_config_fields():
    declared = set().union(*(_declared(cls) for _, cls in cli._SOLVERS.values()))
    props = cli._SOLVER_SCHEMA["properties"]
    assert set(props) == declared | {"algorithm", "label"}
    assert props["algorithm"] == {"enum": ["giraf", "irls", "ap", "ap_prox", "svt", "svt_uv"]}
    assert declared == set(_FIELD_VALUES)


@pytest.mark.parametrize("algorithm", sorted(_BASELINE_FIELDS))
def test_baseline_entry_accepts_only_the_fields_its_solver_reads(tmp_path, capsys,
                                                                  algorithm):
    fields = _BASELINE_FIELDS[algorithm]
    assert _declared(cli._SOLVERS[algorithm][1]) == fields
    entry = {"algorithm": algorithm, **{k: _FIELD_VALUES[k] for k in fields}}
    cli._resolve_solver(entry)
    others = sorted(set(_FIELD_VALUES) - fields)
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, solver={**entry, **{k: _FIELD_VALUES[k] for k in others}})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == f"fields {others} not valid for {algorithm}"
    assert not (tmp_path / "o").exists()


def test_ap_entry_with_fields_it_does_not_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, solver={"algorithm": "ap", "rank_r": 4, "lam": 3, "beta": 2,
                               "p": 0.5, "eps0": 1, "inner_iters": 5, "seed": 3})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["exit_code"] == 2 and err["type"] == "ConfigError"
    assert "['beta', 'eps0', 'inner_iters', 'lam', 'p', 'seed']" in err["message"]


def test_baseline_manifest_lists_only_its_solver_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, solver={"algorithm": "ap", "rank_r": 4, "max_iters": 5})
    out = tmp_path / "rec"
    assert main(["recover", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_solver"] == {"algorithm": "ap", "rank_r": 4, "max_iters": 5,
                                           "tol": 1e-8}


def _wrong_type(types):
    if bool in types:
        return 1  # an integer is not a boolean
    if str in types:
        return True  # a boolean is neither a number nor a string
    return "1"  # a string for a number


def _field_verdict_cases():
    """For every algorithm, one wrongly typed value per solver field of any
    config dataclass, and of algorithm, and 0 for each integer field that
    must be at least 1, read off the config dataclasses. Each is refused,
    whether or not the algorithm declares the field."""
    hints = {"algorithm": str}
    for _, cls in cli._SOLVERS.values():
        hints.update(typing.get_type_hints(cls))
    for alg in cli._SOLVERS:
        for name, hint in sorted(hints.items()):
            types = typing.get_args(hint) or (hint,)
            yield pytest.param("solver", {"algorithm": alg, name: _wrong_type(types)},
                               id=f"{alg}-{name}-wrong-type")
            if int in types and name != "seed":
                yield pytest.param("solver", {"algorithm": alg, name: 0},
                                   id=f"{alg}-{name}-0")
    yield pytest.param("subproblem", {"algorithm": "giraf", "inner_iters": 0},
                       id="subproblem-inner_iters-0")


@pytest.mark.parametrize("where, entry", _field_verdict_cases())
def test_solver_field_verdicts(tmp_path, capsys, where, entry):
    cfg = tmp_path / "cfg.json"
    if where == "solver":
        _write_config(cfg, solver=entry)
        command = "recover"
    else:
        base = _write_config(cfg, solver={"algorithm": "giraf", "p": 0, "lam": 0.1})
        base["sweep"] = {"protocol": "subproblem", "reference_iters": 10,
                         "solvers": [entry]}
        cfg.write_text(json.dumps(base))
        command = "bench"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["exit_code"] == 2 and err["type"] == "ConfigError"


@pytest.mark.parametrize("solver, field", [
    ({"algorithm": "giraf", "p": 0, "outer_iters": 2}, "outer_iters"),
    ({"algorithm": "irls", "p": 0, "max_iters": 2}, "max_iters"),
    ({"algorithm": "ap", "rank_r": 4, "max_iters": 3}, "rank_r"),
])
def test_integral_float_runs_as_its_integer(tmp_path, capsys, solver, field):
    # JSON Schema counts 2.0 as an integer: the run and every output,
    # manifest included, are those of the integer spelling; 2.5 is refused
    files = ("recovered.cslr", "trace.csv", "summary.json", "manifest.json")
    outputs = []
    for value in (solver[field], float(solver[field])):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, solver={**solver, field: value})
        out = tmp_path / type(value).__name__
        assert main(["recover", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]

    _write_config(cfg, solver={**solver, field: 2.5})
    assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["exit_code"] == 2 and err["type"] == "ConfigError"


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Example config:", 1)[1].split("```json", 1)[1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(example.split("```", 1)[0])
    for command in ("gen", "recover", "bench"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == 0, command


def _python(*args, cwd=None):
    src = str(Path(cslr.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_import_cslr_leaves_cli_dependencies_unloaded(tmp_path):
    # jsonschema is loaded by the first config read, argparse by main and
    # concurrent.futures by a pooled sweep, not by importing the package or
    # its CLI
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    lazy = "('jsonschema', 'argparse', 'concurrent.futures')"
    run = _python("-c", "import sys, cslr; "
                        f"print(*[m in sys.modules for m in {lazy}], "
                        "'cslr.cli' in sys.modules); "
                        f"import cslr.cli; print(*[m in sys.modules for m in {lazy}]); "
                        f"cslr.cli.load_config({str(cfg)!r}); print('jsonschema' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"] * 7 + ["True"]


def test_config_schema_is_valid_against_its_metaschema():
    # load_config does not check the constant schema on every read; this does
    validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


def test_config_reads_build_one_validator(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    cli._config_validator.cache_clear()
    assert cli.load_config(cfg) == cli.load_config(cfg)
    assert cli._config_validator.cache_info().misses == 1


@pytest.mark.parametrize("overrides", [
    pytest.param({"weighting": "cubic"}, id="one-violation"),
    pytest.param({"weighting": "cubic", "timing": 0, "surprise": 1,
                  "sampling": {"usf": 2, "seed": "s"},
                  "solver": {"algorithm": "giraf", "p": "0", "outer_iters": 1.5}},
                 id="several-violations"),
    pytest.param({"data_box": {"offset": [0]}, "signal": {"kind": "dirac", "r": 0}},
                 id="nested-violations"),
])
def test_config_error_message_matches_jsonschema_validate(tmp_path, overrides):
    cfg = tmp_path / "cfg.json"
    config = _write_config(cfg, **overrides)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, cli.CONFIG_SCHEMA)
    with pytest.raises(giraf.ConfigError) as got:
        cli.load_config(cfg)
    assert str(got.value) == f"{expected.value.json_path}: {expected.value.message}"


def test_module_entry_point_runs_without_warning():
    run = _python("-W", "error::RuntimeWarning", "-m", "cslr.cli", "--help")
    assert run.returncode == 0, run.stderr
    assert "usage: cslr" in run.stdout
