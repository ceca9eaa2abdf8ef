"""In-process tracing of paulifish's layers, from outside the package.

``Tracer`` rebinds every public function of each layer module (and the
``numpy.linalg`` eigensolvers) to a wrapper that records a span: its
duration and, through a stack, the share covered by the spans it caused.
Spans are aggregated in memory per (name, key) as calls, total time and
self time (total minus the child spans). Leaving the context restores the
original functions, so untraced runs in the same process are unaffected.

A few leaf helpers called once per j-term, per block or per operator
inspection are left unwrapped (``LEAF``): wrapping them would multiply the
tracing overhead, and their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

import numpy

LAYERS = ("cli", "protocol", "qfi", "channels", "linop", "correlations", "mc", "verify")

LEAF = frozenset(
    {
        "protocol.weight_pair",
        "channels.bitstring_weight",
        "linop.dagger",
        "linop.frobenius_max",
        "linop.num_qubits",
    }
)

#: The j-sum kernels; their key is the qubit count n (n + 1 terms per call).
KERNELS = ("protocol.qfi_correlated", "protocol.gain", "protocol.gain_min", "protocol.gain_max")

SUITES = (
    "oracle",
    "bounds",
    "weight-inequalities",
    "discord",
    "stationary",
    "separability",
    "preparation",
    "threshold-gain",
)
EIGEN_DIMS = (2, 4, 8, 16, 32, 64)
SLD_QUBITS = (2, 3, 4, 5, 6)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _kernel_n(args, kwargs) -> int:
    p = _first(args, kwargs)
    return p if isinstance(p, int) else p.n


def _qubits(args, kwargs) -> int:
    return int(_first(args, kwargs).shape[0]).bit_length() - 1


def _dim(args, kwargs) -> int:
    return int(_first(args, kwargs).shape[-1])


TAGS = {**{k: _kernel_n for k in KERNELS}, "qfi.sld_eig": _qubits, "linop.eigensolve": _dim}

#: Every per-layer metric, with its unit; counts must repeat exactly.
PER_LAYER = [
    ("protocol.qfi_correlated.calls", "count"),
    ("protocol.qfi_correlated.self_s", "s"),
    ("protocol.gain.calls", "count"),
    ("protocol.gain.self_s", "s"),
    ("protocol.us_per_point", "us"),
    ("protocol.kernel_calls_per_row", "calls/row"),
    ("protocol.j_terms_per_row", "terms/row"),
    ("protocol.max_rel_err", "rel"),
    *[
        (f"correlations.{fn}.{stat}", unit)
        for fn in (
            "is_separable_ppt",
            "rho_final_two_qubit",
            "discord_protocol",
            "bell_diagonalize",
        )
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("channels.prepared_state_blocks.self_s", "s"),
    ("channels.blocks_to_dense.self_s", "s"),
    ("linop.partial_transpose.self_s", "s"),
    ("linop.is_density_operator.self_s", "s"),
    *[(f"linop.eigensolves.d{d}", "count") for d in EIGEN_DIMS],
    ("linop.eigensolves.total", "count"),
    ("linop.eigensolves_per_row", "solves/row"),
    ("linop.eigensolve.self_s", "s"),
    ("qfi.sld_eig.calls", "count"),
    ("qfi.sld_eig.self_s", "s"),
    *[(f"qfi.sld_eig.us_per_call.n{k}", "us") for k in SLD_QUBITS],
    ("channels.correlated_state.calls", "count"),
    ("channels.correlated_state.self_s", "s"),
    ("qfi.qfi_independent_opt.self_s", "s"),
    *[(f"verify.suite.{name}.s", "s") for name in SUITES],
    ("cli.sweep_rows.self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.out_bytes", "B"),
    ("mc.run_experiment.self_s", "s"),
    ("mc.trials_per_s", "1/s"),
    ("mc.clamped", "count"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("trace.overhead_frac", "frac"),
]

#: Units of measured times and rates; every other metric is a count.
TIMED_UNITS = frozenset({"s", "us", "1/s", "frac"})


class Tracer:
    """Context manager that traces the imported ``paulifish`` package."""

    def __init__(self):
        self.stats: dict[tuple[str, int | None], list] = {}
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats, stack, clock, tag = self.stats, self._stack, time.perf_counter, TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                key = (name, tag(args, kwargs) if tag else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - child

        return traced

    def _set(self, target, attr: str, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, attr, target[attr]))
            target[attr] = value
        else:
            self._undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, value)

    def __enter__(self) -> "Tracer":
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"paulifish.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in LEAF
                ):
                    wrapped[obj] = self._wrap(name, obj)
        # rebind every reference, including `from .x import f` copies
        for key, mod in list(sys.modules.items()):
            if key != "paulifish" and not key.startswith("paulifish."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        suites = getattr(sys.modules["paulifish.verify"], "SUITES", {})
        for key, fn in list(suites.items()):
            self._set(suites, key, wrapped.get(fn, fn))
        for attr in ("eigh", "eigvalsh"):
            solver = getattr(numpy.linalg, attr)
            self._set(numpy.linalg, attr, self._wrap("linop.eigensolve", solver))
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, value in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._undo.clear()

    def _sum(self, field: int, name: str, key) -> float:
        hits = (v for (nm, k), v in self.stats.items() if nm == name and key in (None, k))
        return sum(v[field] for v in hits)

    def calls(self, name: str, key=None) -> int:
        return self._sum(0, name, key)

    def total_s(self, name: str, key=None) -> float:
        """Time inside a name's spans, its child spans included."""
        return self._sum(1, name, key)

    def self_s(self, name: str) -> float:
        """Time inside a name's spans, less the time in their child spans."""
        return self._sum(2, name, None)


def layer_metrics(tr: Tracer, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, except trace.overhead_frac.

    ``facts`` holds what the output check measured: interior_rows (sweep
    rows with 0 < r < 1), diagnosed_rows (rows with correlation columns),
    max_rel_err, out_bytes, trials and clamped. Ratios over rows are 0 on a
    workload without such rows.
    """

    def per(x: float, count: int) -> float:
        return x / count if count else 0.0

    interior, diagnosed = facts.get("interior_rows", 0), facts.get("diagnosed_rows", 0)
    kernel_calls = sum(tr.calls(k) for k in KERNELS)
    j_terms = sum((key + 1) * v[0] for (nm, key), v in tr.stats.items() if nm in KERNELS)
    eig_total = tr.calls("linop.eigensolve")
    run_s = tr.total_s("mc.run_experiment")
    out = {
        "protocol.us_per_point": 1e6 * per(sum(tr.total_s(k) for k in KERNELS), interior),
        "protocol.kernel_calls_per_row": per(kernel_calls, interior),
        "protocol.j_terms_per_row": per(j_terms, interior),
        "protocol.max_rel_err": facts.get("max_rel_err", 0.0),
        "linop.eigensolves.total": eig_total,
        "linop.eigensolves_per_row": per(eig_total, diagnosed),
        "cli.write_s": tr.self_s("cli.main"),
        "cli.out_bytes": facts["out_bytes"],
        "mc.trials_per_s": per(facts.get("trials", 0), run_s),
        "mc.clamped": facts.get("clamped", 0),
    }
    for d in EIGEN_DIMS:
        out[f"linop.eigensolves.d{d}"] = tr.calls("linop.eigensolve", d)
    for k in SLD_QUBITS:
        out[f"qfi.sld_eig.us_per_call.n{k}"] = 1e6 * per(
            tr.total_s("qfi.sld_eig", k), tr.calls("qfi.sld_eig", k)
        )
    for name in SUITES:
        out[f"verify.suite.{name}.s"] = tr.total_s(f"verify.suite_{name.replace('-', '_')}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v[2] for (nm, _), v in tr.stats.items() if nm.split(".")[0] == layer
        )
    for metric, _ in PER_LAYER:
        if metric in out or metric == "trace.overhead_frac":
            continue
        name, stat = metric.rsplit(".", 1)
        out[metric] = tr.calls(name) if stat == "calls" else tr.self_s(name)
    return out
