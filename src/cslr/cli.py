"""Command-line front end: JSON experiment configs drive data generation,
recovery, benchmark sweeps, and result comparison.

Subcommands: gen, recover, bench, compare. Exit codes: 0 success, 1 compare
tolerances exceeded, 2 config error, 3 data error, 4 solver failure. All
grids travel in the CSLR1 binary format; results are CSV (full %.17g
precision, '.' decimal) and JSON manifests without timestamps so reruns are
byte-comparable.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import baselines
from .giraf import (
    ConfigError,
    SolverConfig,
    SolverError,
    _field_types,
    _inner_solve,
    cg_ls,
    first_step,
    giraf_solve,
)
from .grids import ComplexGrid, GridFormatError, IndexBox, load_grid, save_grid
from .lifting import BudgetError, LiftingSpec
from .models import (
    RectPhantom,
    SamplingOp,
    add_noise,
    dirac_fourier,
    gradient_weighting,
    nmse,
    pwc_phantom,
    random_diracs,
    random_mask,
    rect_fourier,
    snr_db,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


class DataError(Exception):
    """Input files that exist but do not fit together."""


_BOX_SCHEMA = {
    "type": "object",
    "properties": {
        "offset": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "extent": {"type": "array", "items": {"type": "integer", "minimum": 1},
                   "minItems": 1},
    },
    "required": ["offset", "extent"],
    "additionalProperties": False,
}

_SIGNAL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["dirac", "rects", "file"]},
        "r": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "min_separation": {"type": "number", "exclusiveMinimum": 0},
        "amplitude_range": {"type": "array", "items": {"type": "number"},
                            "minItems": 2, "maxItems": 2},
        "preset": {"enum": ["pwc1"]},
        "rects": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "amplitude": {"type": "number"},
                    "bounds": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "array", "items": {"type": "number"},
                                  "minItems": 2, "maxItems": 2},
                    },
                },
                "required": ["amplitude", "bounds"],
                "additionalProperties": False,
            },
        },
        "truth": {"type": "string"},
        "mask": {"type": "string"},
        "measured": {"type": "string"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SOLVERS = {
    "giraf": (giraf_solve, SolverConfig),
    "irls": (baselines.irls_direct, baselines.IRLSConfig),
    "ap": (baselines.ap_solve, baselines.APConfig),
    "ap_prox": (baselines.ap_prox_solve, baselines.APProxConfig),
    "svt": (baselines.svt_solve, baselines.SVTConfig),
    "svt_uv": (baselines.svt_uv_solve, baselines.SVTUVConfig),
}

_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               type(None): "null"}


def _solver_schema() -> dict:
    """Schema of a solver entry, read off the type hints of the config
    dataclasses. It checks JSON types only; every value rule lives in their
    validate()."""
    props = {}
    for _, cls in _SOLVERS.values():
        for name, types in _field_types(cls).items():
            prop = {"type": [_JSON_TYPES[t] for t in types]}
            if props.setdefault(name, prop) != prop:
                raise TypeError(f"solver field {name!r} has two types")
    props["algorithm"] = {"enum": list(_SOLVERS)}
    props["label"] = {"type": "string", "minLength": 1}
    return {"type": "object", "properties": props, "required": ["algorithm"],
            "additionalProperties": False}


_SOLVER_SCHEMA = _solver_schema()

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "data_box": _BOX_SCHEMA,
        "filter_box": _BOX_SCHEMA,
        "weighting": {"enum": ["identity", "gradient"]},
        "signal": _SIGNAL_SCHEMA,
        "sampling": {
            "type": "object",
            "properties": {
                "usf": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "seed": {"type": "integer"},
                "force_dc": {"type": "boolean"},
            },
            "required": ["usf", "seed"],
            "additionalProperties": False,
        },
        "noise": {
            "type": ["object", "null"],
            "properties": {
                "snr_db": {"type": "number"},
                "seed": {"type": "integer"},
            },
            "required": ["snr_db", "seed"],
            "additionalProperties": False,
        },
        "solver": _SOLVER_SCHEMA,
        "timing": {"enum": ["wall", "none"]},
        "sweep": {
            "type": "object",
            "properties": {
                "protocol": {"enum": ["tol", "subproblem"]},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "seeds": {"type": "array", "items": {"type": "integer"},
                          "minItems": 1},
                "usf": {"type": "array", "minItems": 1,
                        "items": {"type": "number", "exclusiveMinimum": 0,
                                  "maximum": 1}},
                "solvers": {"type": "array", "items": _SOLVER_SCHEMA,
                            "minItems": 1},
                "reference_iters": {"type": "integer", "minimum": 1},
            },
            "required": ["solvers"],
            "additionalProperties": False,
        },
    },
    "required": ["name", "data_box", "filter_box", "weighting", "signal"],
    "additionalProperties": False,
}


def _fmt(v) -> str:
    """CSV cell: full-precision floats, bare ints, markers pass through."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _as_integers(value, schema: dict):
    """value with every float in an integer-only place of schema made an int.
    JSON Schema counts 2.0 as an integer, so a validated 2.0 there is
    integral; the config dataclasses and the manifest echo then see 2."""
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _as_integers(v, props.get(k, {})) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_integers(v, schema.get("items", {})) for v in value]
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if isinstance(value, float) and "integer" in types and "number" not in types:
        return int(value)
    return value


@functools.cache
def _config_validator():
    """The validator of CONFIG_SCHEMA, built once, on the first config
    read. jsonschema is imported here, so that a process that reads no
    config does not load it. The schema itself is checked against its
    metaschema by the test suite, not on every read: that check was
    nearly all of the time jsonschema.validate took."""
    import jsonschema

    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def load_config(path) -> dict:
    with open(path) as f:
        try:
            config = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(exc)) from exc
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise; str() of it embeds the
    # whole schema and instance
    error = best_match(_config_validator().iter_errors(config))
    if error is not None:
        raise ConfigError(f"{error.json_path}: {error.message}") from error
    return _as_integers(config, CONFIG_SCHEMA)


def _box(section: dict) -> IndexBox:
    if len(section["offset"]) != len(section["extent"]):
        raise ConfigError("box offset and extent lengths differ")
    return IndexBox(tuple(section["offset"]), tuple(section["extent"]))


def _build_spec(config: dict) -> LiftingSpec:
    data_box = _box(config["data_box"])
    filter_box = _box(config["filter_box"])
    if config["weighting"] == "gradient":
        return LiftingSpec(data_box, filter_box,
                           weightings=gradient_weighting(data_box.ndim))
    return LiftingSpec(data_box, filter_box)


def _require(section: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"{where} requires {missing}")


def _build_truth(config: dict, shift: int) -> ComplexGrid:
    sig = config["signal"]
    box = _box(config["data_box"])
    if sig["kind"] == "dirac":
        _require(sig, ("r", "seed", "min_separation"), "dirac signal")
        amp = tuple(sig.get("amplitude_range", (0.5, 1.5)))
        signal = random_diracs(sig["r"], sig["seed"] + shift,
                               sig["min_separation"], amp)
        return dirac_fourier(signal, box)
    if sig["kind"] == "rects":
        if ("preset" in sig) == ("rects" in sig):
            raise ConfigError(
                "rects signal needs exactly one of 'preset' or 'rects'")
        if "preset" in sig:
            phantom = pwc_phantom()
        else:
            phantom = RectPhantom(tuple(
                (r["amplitude"], tuple(tuple(b) for b in r["bounds"]))
                for r in sig["rects"]))
        return rect_fourier(phantom, box)
    raise ConfigError("signal kind 'file' carries no generative model")


def _mask_from_grid(grid: ComplexGrid) -> np.ndarray:
    vals = grid.values
    ok = (vals == 0) | (vals == 1)
    if not np.all(ok):
        raise DataError("mask grid entries must be exactly 0 or 1")
    return vals.real > 0.5


def _load_truth(path) -> ComplexGrid:
    """The truth grid at path; a zero one is a DataError (no NMSE against it)."""
    truth = load_grid(path)
    if np.linalg.norm(truth.values) ** 2 == 0:
        raise DataError(f"truth grid {path} is zero")
    return truth


def _build_instance(config: dict, shift: int):
    """Resolve the config to (ground truth or None, sampling operator)."""
    sig = config["signal"]
    box = _box(config["data_box"])
    if sig["kind"] == "file":
        if config.get("noise") is not None:
            raise ConfigError("noise needs a generative signal, not 'file'")
        _require(sig, ("mask", "measured"), "file signal")
        truth = _load_truth(sig["truth"]) if "truth" in sig else None
        mask_grid = load_grid(sig["mask"])
        measured = load_grid(sig["measured"])
        for g, name in ((truth, "truth"), (mask_grid, "mask"), (measured, "measured")):
            if g is not None and g.box != box:
                raise DataError(f"{name} grid box does not match the data box")
        try:
            sampling = SamplingOp(_mask_from_grid(mask_grid), measured)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        return truth, sampling
    _require(config, ("sampling",), "generative signal")
    truth = _build_truth(config, shift)
    samp = config["sampling"]
    mask = random_mask(box, samp["usf"], samp["seed"] + shift,
                       force_dc=samp.get("force_dc", False))
    sampling = SamplingOp.measure(truth, mask)
    noise = config.get("noise")
    if noise:
        noisy = add_noise(sampling.b, noise["snr_db"], noise["seed"] + shift,
                          mask=mask)
        sampling = SamplingOp(mask, noisy)
    return truth, sampling


def _resolved_config(config: dict, shift: int) -> dict:
    """Echo of the config with the seed shift folded in, for manifests."""
    out = copy.deepcopy(config)
    out.setdefault("timing", "wall")
    sig = out["signal"]
    if "seed" in sig:
        sig["seed"] += shift
    if "sampling" in out:
        out["sampling"]["seed"] += shift
    if out.get("noise"):
        out["noise"]["seed"] += shift
    return out


def _write_manifest(out: Path, command: str, config: dict, shift: int,
                    outputs: list, **extra) -> None:
    """manifest.json: everything needed to reproduce the run, no timestamps."""
    _write_json(out / "manifest.json", {
        "command": command, "config": _resolved_config(config, shift),
        "seed_shift": shift, "outputs": outputs, **extra})


def _resolve_solver(entry: dict):
    """Solver entry -> (callable, validated config dataclass of the fields
    the callable reads); any other field is a ConfigError."""
    alg = entry["algorithm"]
    given = {k: v for k, v in entry.items() if k not in ("algorithm", "label")}
    solve, cls = _SOLVERS[alg]
    unknown = sorted(set(given) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"fields {unknown} not valid for {alg}")
    cfg = cls(**given)
    cfg.validate()
    return solve, cfg


@contextmanager
def _solver_running():
    """Scope of a running solver. A ValueError raised in it, such as a
    non-finite grid from a blown-up iterate, is a solver failure (exit 4),
    not an invalid config: the config was built into boxes, instances and
    solver configs before. numpy's LinAlgError, a ValueError too, keeps
    its type."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise SolverError(f"{type(exc).__name__}: {exc}") from exc


def _zero_time(trace, timing: str):
    if timing != "none":
        return trace
    trace.records = [replace(rec, seconds=0.0) for rec in trace.records]
    trace.phase_seconds = {k: 0.0 for k in trace.phase_seconds}
    return trace


def _trace_rows(trace, with_nmse: bool):
    for rec in trace.records:
        row = [rec.iteration, rec.eps]
        if with_nmse:
            row.append(rec.nmse)
        row.extend([rec.cost, rec.sigma_min, rec.sigma_max, rec.seconds])
        yield row


def _summary(trace, truth) -> dict:
    final_nmse = trace.final_nmse
    return {
        "algorithm": trace.algorithm,
        "iterations": len(trace.records),
        "final_nmse": final_nmse,
        "final_snr_db": None if truth is None else snr_db(trace.x, truth),
        "wall_seconds": trace.records[-1].seconds if trace.records else 0.0,
        "phase_seconds": dict(trace.phase_seconds),
        "eps0": trace.eps0,
    }


def cmd_gen(config: dict, out: Path, shift: int) -> int:
    if config["signal"]["kind"] == "file":
        raise ConfigError("gen needs a generative signal, not 'file'")
    truth, sampling = _build_instance(config, shift)
    out.mkdir(parents=True, exist_ok=True)
    save_grid(truth, out / "truth.cslr")
    mask_grid = ComplexGrid(truth.box, sampling.mask.astype(np.complex128))
    save_grid(mask_grid, out / "mask.cslr")
    save_grid(sampling.b, out / "measured.cslr")
    _write_manifest(out, "gen", config, shift, ["mask.cslr", "measured.cslr", "truth.cslr"])
    return EXIT_OK


def cmd_recover(config: dict, out: Path, shift: int) -> int:
    _require(config, ("solver",), "recover")
    spec = _build_spec(config)
    truth, sampling = _build_instance(config, shift)
    solve, solver_cfg = _resolve_solver(config["solver"])
    timing = config.get("timing", "wall")
    with _solver_running():
        trace = solve(spec, sampling, solver_cfg, ground_truth=truth)
    _zero_time(trace, timing)

    out.mkdir(parents=True, exist_ok=True)
    save_grid(trace.x, out / "recovered.cslr")
    with_nmse = truth is not None
    header = ("iter,eps,nmse,cost,sigma_min,sigma_max,seconds" if with_nmse
              else "iter,eps,cost,sigma_min,sigma_max,seconds")
    _write_csv(out / "trace.csv", header, _trace_rows(trace, with_nmse))
    _write_json(out / "summary.json", _summary(trace, truth))
    _write_manifest(out, "recover", config, shift,
                    ["recovered.cslr", "summary.json", "trace.csv"],
                    resolved_solver={"algorithm": config["solver"]["algorithm"],
                                     **asdict(solver_cfg)})
    return EXIT_OK


def _cell_key(config: dict, entry: dict, solver_cfg, usf, seed) -> tuple:
    """Sort key of a tol sweep cell, its row's first five bench.csv columns:
    p, in the default label too, for giraf and irls, and p = 0 for the rest."""
    p = getattr(solver_cfg, "p", None)
    label = entry["algorithm"] + ("" if p is None else f"{p:g}")
    return config["name"], entry.get("label", label), float(p or 0), usf, seed


def _refuse_shared_keys(keys) -> None:
    """Sweep cells whose rows would share a key are a ConfigError: no reader
    of the CSV could tell those rows apart."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ConfigError(f"two sweep cells share the key {','.join(map(str, key))}")
        seen.add(key)


def _tol_row(config, entry, usf, seed, tol, timing):
    solve, solver_cfg = _resolve_solver(entry)
    key = _cell_key(config, entry, solver_cfg, usf, seed)
    run_cfg = copy.deepcopy(config)
    run_cfg["sampling"]["usf"] = usf
    try:
        spec = _build_spec(run_cfg)
        truth, sampling = _build_instance(run_cfg, seed)
        with _solver_running():
            trace = solve(spec, sampling, solver_cfg, ground_truth=truth)
    except (BudgetError, MemoryError):
        return key, key + ("Mem", "Mem", "Mem")
    _zero_time(trace, timing)
    hit = next((r for r in trace.records
                if r.nmse is not None and r.nmse <= tol), None)
    if hit is None:
        return key, key + ("Inf", "Inf", trace.final_nmse)
    return key, key + (hit.iteration, hit.seconds, trace.final_nmse)


def _tol_cell(config, entry, usf, seed, tol, timing):
    """One sweep cell in a worker process, under the silenced floating-point
    warnings main() sets for its own process."""
    with np.errstate(all="ignore"):
        return _tol_row(config, entry, usf, seed, tol, timing)


def _bench_tol(config: dict, out: Path, shift: int, threads: int) -> int:
    if config["signal"]["kind"] == "file":
        raise ConfigError("bench needs a generative signal")
    _require(config, ("sampling",), "bench")
    sweep = config["sweep"]
    timing = config.get("timing", "wall")
    tol = sweep.get("tol", 1e-4)
    seeds = [s + shift for s in sweep.get("seeds", [0])]
    usfs = sweep.get("usf", [config["sampling"]["usf"]])
    resolved = [(entry, _resolve_solver(entry)[1]) for entry in sweep["solvers"]]  # fail fast
    _refuse_shared_keys(_cell_key(config, entry, solver_cfg, usf, seed)
                        for entry, solver_cfg in resolved for usf in usfs for seed in seeds)
    tasks = [(entry, usf, seed)
             for entry in sweep["solvers"] for usf in usfs for seed in seeds]

    if threads > 1:
        # processes, not threads: a cell makes thousands of small numpy
        # calls, and two threads trading the interpreter lock ran a sweep
        # slower than one. fork, not spawn: a spawned worker re-imports the
        # caller's __main__ and numpy. Imported here: multiprocessing adds
        # ~15 ms and ~1 MB to every command that starts no pool.
        import multiprocessing
        from concurrent.futures import (
            FIRST_EXCEPTION,
            BrokenExecutor,
            ProcessPoolExecutor,
            wait,
        )

        try:
            with ProcessPoolExecutor(max_workers=min(threads, len(tasks)),
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                futures = [pool.submit(_tol_cell, config, entry, usf, seed, tol, timing)
                           for entry, usf, seed in tasks]
                # the first failing cell cancels the cells not yet started;
                # reading the results in submission order re-raises its error
                wait(futures, return_when=FIRST_EXCEPTION)
                pool.shutdown(cancel_futures=True)
                results = [f.result() for f in futures]
        except BrokenExecutor as exc:
            # a worker that died (killed, out of memory) is a solver failure
            _emit_error(EXIT_SOLVER, exc)
            return EXIT_SOLVER
    else:
        results = [_tol_row(config, entry, usf, seed, tol, timing)
                   for entry, usf, seed in tasks]
    rows = [row for _, row in sorted(results, key=lambda kr: kr[0])]

    out.mkdir(parents=True, exist_ok=True)
    header = "dataset,algorithm,p,usf,seed,iters_to_tol,seconds_to_tol,final_nmse"
    _write_csv(out / "bench.csv", header, rows)
    _write_manifest(out, "bench", config, shift, ["bench.csv"],
                    protocol="tol", tol=tol, rows=len(rows))
    return EXIT_OK


# the subproblem protocol's own inner-solver defaults
_SUBPROBLEM_LEG = {"ls_solver": "admm", "inner_iters": 200, "delta": 10.0,
                   "cg_tol": 0.0}


def _subproblem_leg(entry: dict) -> tuple[str, SolverConfig]:
    """Label and config of one inner-solver leg of the subproblem bench,
    validated like a solve."""
    if entry["algorithm"] != "giraf":
        raise ConfigError("subproblem entries must be giraf solvers")
    given = {k: v for k, v in entry.items() if k not in ("algorithm", "label")}
    extra = sorted(set(given) - set(_SUBPROBLEM_LEG))
    if extra:
        raise ConfigError(f"fields {extra} not valid for a subproblem entry")
    leg = SolverConfig(**{**_SUBPROBLEM_LEG, **given})
    leg.validate()
    default = f"admm-delta{leg.delta:g}" if leg.ls_solver == "admm" else "cg"
    return entry.get("label", default), leg


def _bench_subproblem(config: dict, out: Path, shift: int) -> int:
    """Inner-solver study: freeze the weighted least-squares problem of the
    solver entry's first step (giraf.first_step) and log each solver's
    normalized squared distance to a tight conjugate-gradient reference
    against time."""
    _require(config, ("solver",), "subproblem bench")
    base = config["solver"]
    if base["algorithm"] != "giraf":
        raise ConfigError("subproblem bench studies the giraf inner step")
    _, solver_cfg = _resolve_solver(base)
    if solver_cfg.lam is None:
        raise ConfigError("subproblem bench needs solver.lam")
    sweep = config["sweep"]
    timing = config.get("timing", "wall")
    lam = float(solver_cfg.lam)
    p = float(solver_cfg.p)
    legs = [_subproblem_leg(entry) for entry in sweep["solvers"]]
    _refuse_shared_keys((config["name"], label) for label, _ in legs)

    _, sampling = _build_instance(config, shift)
    spec = _build_spec(config)
    ref_iters = sweep.get("reference_iters", 4000)
    rows = []
    with _solver_running():
        spec, sampling, d, eps0 = first_step(spec, sampling, solver_cfg)
        reference = cg_ls(spec, sampling, d, lam, p, iters=ref_iters, tol=1e-16)
        ref_vals = reference.values
        ref_norm = float(np.linalg.norm(ref_vals) ** 2)
        if ref_norm == 0:
            raise SolverError("subproblem reference solution is zero")

        for label, leg in legs:
            samples = []
            start = time.perf_counter()

            def log(it, xvals):
                sec = 0.0 if timing == "none" else time.perf_counter() - start
                dist = float(np.linalg.norm(xvals - ref_vals) ** 2) / ref_norm
                samples.append((it, sec, dist))

            _inner_solve(spec, sampling, d, lam, p, leg, callback=log)
            rows.extend((config["name"], label, it, sec, dist)
                        for it, sec, dist in samples)

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "subproblem.csv", "dataset,solver,iter,seconds,nmsd", rows)
    _write_manifest(out, "bench", config, shift, ["subproblem.csv"],
                    protocol="subproblem", eps0=eps0,
                    reference_iters=ref_iters, rows=len(rows))
    return EXIT_OK


def cmd_bench(config: dict, out: Path, shift: int, threads: int) -> int:
    _require(config, ("sweep",), "bench")
    protocol = config["sweep"].get("protocol", "tol")
    if protocol == "subproblem":
        if threads > 1:
            raise ConfigError("a subproblem bench runs in one process: "
                              f"--threads must be 1, got {threads}")
        return _bench_subproblem(config, out, shift)
    return _bench_tol(config, out, shift, threads)


def cmd_compare(paths, truth_path, tol, max_diff, nmse_diff) -> int:
    if len(paths) < 2:
        raise ConfigError("compare needs at least two grid files")
    for option, value in (("--tol", tol), ("--nmse-diff", nmse_diff)):
        if value is not None and truth_path is None:
            raise ConfigError(f"{option} needs --truth")
    grids = [(p, load_grid(p)) for p in paths]
    box = grids[0][1].box
    for p, g in grids[1:]:
        if g.box != box:
            raise DataError(f"grid box of {p} does not match {paths[0]}")
    truth = None
    if truth_path is not None:
        truth = _load_truth(truth_path)
        if truth.box != box:
            raise DataError("truth grid box does not match the inputs")

    ok = True
    lines = []
    errors = {}
    if truth is not None:
        lines.append("file,nmse,snr_db")
        for p, g in grids:
            e = nmse(g, truth)
            errors[p] = e
            lines.append(f"{p},{_fmt(e)},{_fmt(snr_db(g, truth))}")
            if tol is not None and not e <= tol:
                ok = False
        lines.append("")
    lines.append("file_a,file_b,max_abs_diff" +
                 (",nmse_diff" if truth is not None else ""))
    for i, (pa, ga) in enumerate(grids):
        for pb, gb in grids[i + 1:]:
            d = float(np.max(np.abs(ga.values - gb.values)))
            row = f"{pa},{pb},{_fmt(d)}"
            if max_diff is not None and not d <= max_diff:
                ok = False
            if truth is not None:
                de = abs(errors[pa] - errors[pb])
                row += f",{_fmt(de)}"
                if nmse_diff is not None and not de <= nmse_diff:
                    ok = False
            lines.append(row)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_TOLERANCE


def _emit_error(code: int, exc: Exception) -> None:
    payload = {"error": {"exit_code": code, "type": type(exc).__name__,
                         "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    import argparse  # here, not at module level: importing cslr.cli stays light

    parser = argparse.ArgumentParser(
        prog="cslr",
        description="Structured low-rank recovery experiments: generate "
                    "fixtures, run solvers, benchmark sweeps, compare results.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("gen", "write ground truth, mask, and measurements"),
                      ("recover", "run one solver and write its outputs"),
                      ("bench", "run a solver sweep and write a results CSV")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--threads", type=int,
                        help="worker processes for a tol bench sweep, bench "
                             "only (default 1: cells run in this process)")
        sp.add_argument("--seed", type=int, default=0,
                        help="shift added to every seed in the config")
    cp = sub.add_parser("compare", help="compare recovered grids")
    cp.add_argument("files", nargs="+", help="CSLR1 grid files")
    cp.add_argument("--truth", help="ground-truth CSLR1 grid")
    cp.add_argument("--tol", type=float,
                    help="largest acceptable NMSE against the truth")
    cp.add_argument("--max-diff", type=float,
                    help="largest acceptable entrywise difference between inputs")
    cp.add_argument("--nmse-diff", type=float,
                    help="largest acceptable pairwise NMSE difference")
    args = parser.parse_args(argv)

    # numpy's floating-point warnings stay silent: the solvers check
    # finiteness themselves, and a failure prints one JSON line on stderr
    try:
        with np.errstate(all="ignore"):
            if args.command == "compare":
                return cmd_compare(args.files, args.truth, args.tol,
                                   args.max_diff, args.nmse_diff)
            if args.threads is not None and args.command != "bench":
                raise ConfigError(f"--threads applies to bench only, not {args.command}")
            threads = 1 if args.threads is None else args.threads
            if threads < 1:
                raise ConfigError(f"--threads must be at least 1, got {threads}")
            config = load_config(args.config)
            out = Path(args.out)
            if args.command == "gen":
                return cmd_gen(config, out, args.seed)
            if args.command == "recover":
                return cmd_recover(config, out, args.seed)
            return cmd_bench(config, out, args.seed, threads)
    except (SolverError, BudgetError, MemoryError, np.linalg.LinAlgError) as exc:
        # ahead of the config clause: LinAlgError is a ValueError
        _emit_error(EXIT_SOLVER, exc)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as exc:
        _emit_error(EXIT_CONFIG, exc)
        return EXIT_CONFIG
    except (DataError, GridFormatError, FileNotFoundError,
            IsADirectoryError) as exc:
        _emit_error(EXIT_DATA, exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
