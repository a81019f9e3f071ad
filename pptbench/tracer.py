"""Spans around the public functions of each pptgeo layer, for the traced run.

Wrappers are installed from here only, and only while a traced cycle runs.
Each wrapped function is patched under every name a pptgeo module looks it
up by (``pptgeo.harness.is_ppt`` as well as ``pptgeo.bipartite.is_ppt``), so
internal calls are seen too.  A wrapper records a span only while the
benchmark holds an op span open; calls made by the output checks between
ops pass straight through.

The numpy primitives ``eigvalsh``, ``eigh``, ``svd``, ``qr`` and ``kron``
are counted, not spanned: each call is charged to the layer of the
innermost open span, so a layer's self time includes the numpy work it
does itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

OP_SPAN = "bench.op"

# (span name, defining module, attribute).  The layer is the prefix before
# the first dot.  A target missing from the program is skipped, so the
# benchmark keeps running when a later change deletes or renames it; its
# metrics then read 0.
TARGETS = (
    ("cli.main", "pptgeo.cli", "main"),
    ("harness.claim_check", "pptgeo.harness", "claim_check"),
    ("harness.werner_sweep", "pptgeo.harness", "werner_sweep"),
    ("harness.bisect", "pptgeo.harness", "bisect_decreasing"),
    ("harness.shell_scan", "pptgeo.harness", "shell_scan"),
    ("harness.spectrum_check", "pptgeo.harness", "spectrum_check"),
    ("harness.render", "pptgeo.harness", "claim_report_to_dict"),
    ("harness.render", "pptgeo.harness", "shells_to_csv"),
    ("harness.render", "pptgeo.harness", "sweep_to_csv"),
    ("serialize.dumps", "pptgeo.serialize", "dumps"),
    ("serialize.matrix_to_json", "pptgeo.serialize", "matrix_to_json"),
    ("serialize.report_header", "pptgeo.serialize", "report_header"),
    ("bounds.bounds_table", "pptgeo.bounds", "bounds_table"),
    ("bounds.ball_radius", "pptgeo.bounds", "ball_radius"),
    ("bounds.separable_radius", "pptgeo.bounds", "separable_radius"),
    ("bounds.ppt_radius", "pptgeo.bounds", "ppt_radius"),
    ("bounds.werner_pm", "pptgeo.bounds", "werner_pm"),
    ("distill.find", "pptgeo.distill", "find_schmidt2_witness"),
    ("bipartite.is_ppt", "pptgeo.bipartite", "is_ppt"),
    ("bipartite.partial_transpose", "pptgeo.bipartite", "partial_transpose"),
    ("bipartite.schmidt", "pptgeo.bipartite", "schmidt"),
    ("bipartite.pt_spectrum_analytic", "pptgeo.bipartite", "pt_spectrum_analytic"),
    ("states.shell_attempt", "pptgeo.states", "shell_attempt"),
    ("states.sample_hs", "pptgeo.states", "sample_hs"),
    ("states.ginibre", "pptgeo.states", "complex_ginibre"),
    ("states.validate", "pptgeo.states", "DensityMatrix.__post_init__"),
    ("states.werner", "pptgeo.states", "werner"),
    ("states.maximally_mixed", "pptgeo.states", "maximally_mixed"),
    ("linalg.as_hermitian", "pptgeo.linalg", "as_hermitian"),
    ("linalg.hs_distance", "pptgeo.linalg", "hs_distance"),
    ("linalg.hermitian_eigen", "pptgeo.linalg", "hermitian_eigen"),
)

NUMPY_TARGETS = (
    ("eig", "numpy.linalg", "eigvalsh"),
    ("eig", "numpy.linalg", "eigh"),
    ("svd", "numpy.linalg", "svd"),
    ("qr", "numpy.linalg", "qr"),
    ("kron", "numpy", "kron"),
)

SCAN_SPAN = "harness.shell_scan"


def _resolve(module_name: str, dotted: str):
    """(owner, attribute, value) for `module.attr` or `module.Class.attr`."""
    owner = sys.modules.get(module_name) or importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


class LayerStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """In-memory span recorder with online self-time accounting.

    Spans are stored column-wise (name, op, parent, start, end) and written
    out by `save`.  `stats` and `counters` hold the aggregates of the
    current cycle and are cleared by `reset`.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._open: dict[str, int] = {}
        self._layer_of: list[str] = []
        self._patches: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self.op_id = -1

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(name.split(".", 1)[0])
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(float("nan"))
        name = self.names[nid]
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([idx, nid, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        name = self.names[nid]
        self._open[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        st.calls += 1
        st.total += duration
        st.self_time += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; the layer spans inside it share its op id."""
        self.op_id = op_id
        self._enter(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._exit()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        hook = _RESULT_HOOKS.get(name)
        args_hook = _ARG_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if args_hook is not None:
                args = args_hook(tracer, args)
            tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                try:
                    hook(tracer, result)
                except (AttributeError, TypeError):
                    # The program changed what this function returns; the
                    # counter reads 0 rather than failing the op.
                    tracer.count("trace.hook_errors")
            return result

        return wrapper

    def _numpy_wrapper(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - start) * 1e3
                layer = tracer._layer_of[tracer._stack[-1][1]]
                tracer.count(f"{layer}.{kind}_calls")
                tracer.count(f"{layer}.{kind}_ms", ms)
                if kind == "eig":
                    tracer.count("linalg.eig.calls")
                    tracer.count("linalg.eig.ms", ms)
                    if tracer._open.get(SCAN_SPAN):
                        tracer.count("scan.eig_calls")

        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace `original` under every name a pptgeo module binds it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pptgeo" or mod_name.startswith("pptgeo.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, dotted in TARGETS:
            owner, attr, original = _resolve(module_name, dotted)
            if original is None:
                continue
            wrapper = self._span_wrapper(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        for kind, module_name, attr in NUMPY_TARGETS:
            owner, attr, original = _resolve(module_name, attr)
            if original is None:
                continue
            wrapper = self._numpy_wrapper(kind, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            self._patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every recorded span as columns of an .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _count_bisect_evals(tracer: Tracer, args):
    if not args or not callable(args[0]):
        return args
    f, *rest = args

    def counted(x):
        tracer.count("harness.bisect.evals")
        return f(x)

    return (counted, *rest)


_ARG_HOOKS = {"harness.bisect": _count_bisect_evals}

_RESULT_HOOKS = {
    "states.shell_attempt": lambda t, r: t.count("states.accepted", r is not None),
    "bipartite.is_ppt": lambda t, r: t.count("bipartite.npt", not r.ppt),
    "distill.find": lambda t, r: (t.count("distill.found", bool(r.found)),
                                  t.count("distill.restarts", r.restarts_used)),
    "serialize.dumps": lambda t, r: t.count("serialize.bytes_out", len(r.encode())),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, LayerStats], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, keyed by their benchmark names."""

    def calls(name):
        st = stats.get(name)
        return st.calls if st else 0

    def self_ms(name):
        st = stats.get(name)
        return st.self_time * 1e3 if st else 0.0

    def total_ms(name):
        st = stats.get(name)
        return st.total * 1e3 if st else 0.0

    c = counters.get
    attempts = calls("states.shell_attempt")
    return {
        "states.shell_attempt.calls": attempts,
        "states.shell_attempt.self_ms": self_ms("states.shell_attempt"),
        "states.accept_ratio": _ratio(c("states.accepted", 0), attempts),
        "states.validate.calls": calls("states.validate"),
        "states.validate.self_ms": self_ms("states.validate"),
        "states.ginibre.self_ms": self_ms("states.ginibre"),
        "states.eig_calls": int(c("states.eig_calls", 0)),
        "bipartite.is_ppt.calls": calls("bipartite.is_ppt"),
        "bipartite.is_ppt.self_ms": self_ms("bipartite.is_ppt"),
        "bipartite.npt_ratio": _ratio(c("bipartite.npt", 0), calls("bipartite.is_ppt")),
        "bipartite.eig_calls": int(c("bipartite.eig_calls", 0)),
        "bipartite.schmidt.calls": calls("bipartite.schmidt"),
        "bipartite.schmidt.self_ms": self_ms("bipartite.schmidt"),
        "linalg.as_hermitian.calls": calls("linalg.as_hermitian"),
        "linalg.as_hermitian.self_ms": self_ms("linalg.as_hermitian"),
        "linalg.hs_distance.calls": calls("linalg.hs_distance"),
        "linalg.eig.calls": int(c("linalg.eig.calls", 0)),
        "linalg.eig.ms": c("linalg.eig.ms", 0.0),
        "linalg.eig_per_attempt": _ratio(c("scan.eig_calls", 0), attempts),
        "distill.find.calls": calls("distill.find"),
        "distill.find.self_ms": self_ms("distill.find"),
        "distill.restarts": int(c("distill.restarts", 0)),
        "distill.found_ratio": _ratio(c("distill.found", 0), calls("distill.find")),
        "distill.eig_calls": int(c("distill.eig_calls", 0)),
        "distill.svd_calls": int(c("distill.svd_calls", 0)),
        "distill.kron_calls": int(c("distill.kron_calls", 0)),
        "distill.kron_ms": c("distill.kron_ms", 0.0),
        "harness.shell_scan.ms": total_ms("harness.shell_scan"),
        "harness.werner_sweep.ms": total_ms("harness.werner_sweep"),
        "harness.bisect.evals": int(c("harness.bisect.evals", 0)),
        "harness.spectrum_check.ms": total_ms("harness.spectrum_check"),
        "harness.claim_check.self_ms": self_ms("harness.claim_check"),
        "harness.render.ms": total_ms("harness.render"),
        "serialize.dumps.ms": total_ms("serialize.dumps"),
        "serialize.bytes_out": int(c("serialize.bytes_out", 0)),
        "bounds.self_ms": sum(st.self_time for name, st in stats.items()
                              if name.startswith("bounds.")) * 1e3,
        "cli.main.self_ms": self_ms("cli.main"),
    }
