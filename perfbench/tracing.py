"""Span tracing at the public layer boundaries of cslr, for the traced run.

`Tracer.install()` rebinds every public cslr function the benchmark times
(wherever a cslr module holds a reference to it, including dict values such
as the CLI's solver table) and numpy's `fft.fftn`, `fft.ifftn` and
`linalg.eigh` to timing wrappers; `Tracer.uninstall()` puts the originals
back. The wrappers only read the clock and the arguments' sizes, so a traced
solve returns the same bytes as an untraced one.

Spans are kept in memory for one operation at a time. Each span knows its
parent: the innermost open span on the same thread, or the operation's root
span for work started on a pool thread. FFT calls are counted rather than
spanned, because a 1-D solve makes hundreds of them.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function) -> span name. Models functions that build instances
# share one span name; only the outermost of nested ones is recorded.
SPANNED = {
    ("cslr.giraf", "giraf_solve"): "giraf.solve",
    ("cslr.giraf", "admm_ls"): "giraf.admm_ls",
    ("cslr.giraf", "cg_ls"): "giraf.cg_ls",
    ("cslr.lifting", "gram_surrogate"): "lifting.gram_surrogate",
    ("cslr.models", "nmse"): "models.nmse",
    ("cslr.models", "random_diracs"): "models.instance",
    ("cslr.models", "dirac_fourier"): "models.instance",
    ("cslr.models", "rect_fourier"): "models.instance",
    ("cslr.models", "pwc_phantom"): "models.instance",
    ("cslr.models", "random_mask"): "models.instance",
    ("cslr.baselines", "irls_direct"): "baselines.irls_direct",
    ("cslr.baselines", "ap_solve"): "baselines.ap_solve",
    ("cslr.baselines", "svt_uv_solve"): "baselines.svt_uv_solve",
    ("cslr.cli", "load_config"): "cli.config",
}

SOLVER_SPANS = ("giraf.solve", "baselines.irls_direct", "baselines.ap_solve",
                "baselines.svt_uv_solve")
FFT_LAYERS = ("giraf.admm_ls", "giraf.cg_ls")

# name -> unit of every per-layer metric, in the order they are printed
LAYER_UNITS = {
    "lifting.gram_surrogate.calls": "count",
    "lifting.gram_surrogate.s": "s",
    "giraf.eigh.calls": "count",
    "giraf.eigh.s": "s",
    "giraf.eigh.n": "rows",
    "giraf.filter_assembly.s": "s",
    "giraf.admm_ls.calls": "count",
    "giraf.admm_ls.s": "s",
    "giraf.admm_ls.fft_calls": "count",
    "giraf.cg_ls.calls": "count",
    "giraf.cg_ls.s": "s",
    "fft.calls": "count",
    "fft.s": "s",
    "fft.bytes_computed": "B",
    "giraf.solve.s": "s",
    "giraf.self_s": "s",
    "giraf.attributed_share": "ratio",
    "giraf.iters_to_tol": "count",
    "giraf.useful_iter_ratio": "ratio",
    "models.instance_s": "s",
    "models.nmse.calls": "count",
    "models.nmse.s": "s",
    "baselines.irls_direct.s": "s",
    "baselines.ap_solve.s": "s",
    "baselines.svt_uv_solve.s": "s",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "cli.sweep.efficiency": "ratio",
    "trace.overhead": "ratio",
}

# counts repeat exactly for a given seed; they are read from the first traced
# operation, every other metric is a median over traced operations
COUNT_METRICS = ("lifting.gram_surrogate.calls", "giraf.eigh.calls", "giraf.eigh.n",
                 "giraf.admm_ls.calls", "giraf.admm_ls.fft_calls",
                 "giraf.cg_ls.calls", "fft.calls", "fft.bytes_computed",
                 "models.nmse.calls")


class Span:
    __slots__ = ("name", "parent", "children", "t0", "t1", "result")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.t0 = perf_counter()
        self.t1 = self.t0
        self.result = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def covered(self) -> float:
        """Seconds of this span's interval covered by its child spans, which
        may overlap when they ran on pool threads."""
        total, end = 0.0, self.t0
        for c in sorted(self.children, key=lambda s: s.t0):
            lo, hi = max(c.t0, end), min(c.t1, self.t1)
            if hi > lo:
                total += hi - lo
                end = hi
        return total

    def self_seconds(self) -> float:
        return self.seconds - self.covered()


class Tracer:
    """Installs timing wrappers and collects the spans of one operation."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, object, object]] = []
        self.root: Span | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self.root)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    @contextmanager
    def operation(self, name: str = "op"):
        """Root span of one benchmark operation; resets spans and counts."""
        self.spans, self.counts = [], Counter()
        self.root = Span(name, None)
        self._stack().append(self.root)
        try:
            yield self.root
        finally:
            self.root.t1 = perf_counter()
            self._stack().pop()

    def _in_span(self, name: str) -> bool:
        return any(s.name == name for s in self._stack())

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name: str, fn):
        keep_result = name == "giraf.solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if name == "models.instance" and stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep_result:
                span.result = result
            return result

        return wrapper

    def _eigh(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self._in_span("giraf.solve"):
                return fn(a, *args, **kwargs)
            span = self._open("giraf.eigh")
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(span)
                with self._lock:
                    self.counts["giraf.eigh.n"] = max(self.counts["giraf.eigh.n"],
                                                      np.shape(a)[-1])

        return wrapper

    def _fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            dt = perf_counter() - t0
            names = {s.name for s in self._stack()}
            with self._lock:
                c = self.counts
                c["fft.calls"] += 1
                c["fft.s"] += dt
                c["fft.bytes_computed"] += np.asarray(a).nbytes + out.nbytes
                for layer in FFT_LAYERS:
                    if layer in names:
                        c[layer + ".fft_calls"] += 1
            return out

        return wrapper

    # -- install / uninstall ----------------------------------------------
    def _rebind(self, namespace, key, value) -> None:
        if isinstance(namespace, dict):
            self._saved.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._saved.append((namespace, key, getattr(namespace, key)))
            setattr(namespace, key, value)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (mod, attr), name in SPANNED.items():
            fn = getattr(sys.modules[mod], attr)
            wrappers[fn] = self._spanned(name, fn)
        cslr_modules = [m for k, m in list(sys.modules.items())
                        if (k == "cslr" or k.startswith("cslr.")) and m is not None]
        for mod in cslr_modules:
            for key, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._rebind(mod, key, wrappers[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if isinstance(v, types.FunctionType) and v in wrappers:
                            self._rebind(val, k, wrappers[v])
        self._rebind(np.fft, "fftn", self._fft(np.fft.fftn))
        self._rebind(np.fft, "ifftn", self._fft(np.fft.ifftn))
        self._rebind(np.linalg, "eigh", self._eigh(np.linalg.eigh))

    def uninstall(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)


def _iters_to_tol(records, tol: float) -> int:
    """First outer iteration whose NMSE meets tol, or the iteration count
    when none does (an early stop would then save nothing)."""
    hit = next((r.iteration for r in records
                if r.nmse is not None and r.nmse <= tol), None)
    return len(records) if hit is None else hit


def layer_values(tracer: Tracer, tol: float, threads: int) -> dict:
    """Per-layer metrics of the operation the tracer just recorded."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    solves = [s for s in by_name.get("giraf.solve", []) if s.result is not None]
    assembly = unattributed = 0.0
    iters, ratios = [], []
    for s in solves:
        in_filter = sum(c.seconds for c in s.children
                        if c.name in ("lifting.gram_surrogate", "giraf.eigh"))
        fa = s.result.phase_seconds["filter_update"] - in_filter
        assembly += fa
        unattributed += s.self_seconds() - fa
        n = _iters_to_tol(s.result.records, tol)
        iters.append(n)
        ratios.append(n / len(s.result.records))
    solve_s = total("giraf.solve")
    root = tracer.root
    is_cli = any(c.name == "cli.config" for c in root.children)
    cell_s = sum(s.seconds for s in tracer.spans
                 if s.name in SOLVER_SPANS and s.parent is root)
    c = tracer.counts
    return {
        "lifting.gram_surrogate.calls": calls("lifting.gram_surrogate"),
        "lifting.gram_surrogate.s": total("lifting.gram_surrogate"),
        "giraf.eigh.calls": calls("giraf.eigh"),
        "giraf.eigh.s": total("giraf.eigh"),
        "giraf.eigh.n": c["giraf.eigh.n"],
        "giraf.filter_assembly.s": assembly,
        "giraf.admm_ls.calls": calls("giraf.admm_ls"),
        "giraf.admm_ls.s": total("giraf.admm_ls"),
        "giraf.admm_ls.fft_calls": c["giraf.admm_ls.fft_calls"],
        "giraf.cg_ls.calls": calls("giraf.cg_ls"),
        "giraf.cg_ls.s": total("giraf.cg_ls"),
        "fft.calls": c["fft.calls"],
        "fft.s": c["fft.s"],
        "fft.bytes_computed": c["fft.bytes_computed"],
        "giraf.solve.s": solve_s,
        "giraf.self_s": unattributed,
        "giraf.attributed_share": 1.0 - unattributed / solve_s if solve_s else 0.0,
        "giraf.iters_to_tol": float(np.median(iters)) if iters else 0.0,
        "giraf.useful_iter_ratio": float(np.median(ratios)) if ratios else 0.0,
        "models.instance_s": total("models.instance"),
        "models.nmse.calls": calls("models.nmse"),
        "models.nmse.s": total("models.nmse"),
        "baselines.irls_direct.s": total("baselines.irls_direct"),
        "baselines.ap_solve.s": total("baselines.ap_solve"),
        "baselines.svt_uv_solve.s": total("baselines.svt_uv_solve"),
        "cli.config_s": total("cli.config"),
        "cli.self_s": root.self_seconds() if is_cli else 0.0,
        "cli.sweep.efficiency": cell_s / (threads * root.seconds) if is_cli else 0.0,
    }
