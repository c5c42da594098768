"""Spans and counters recorded around hardyops' public calls, from outside.

The package itself is not instrumented.  ``install`` replaces functions by
wrappers in the module that makes each call: ``verify`` and ``cli`` bind
names at import (``from .operators import build_hardy_operator``), so a
wrapper placed only in the defining module would never see those calls.

A span records name, start, end, parent span and operation id.  Spans and
counters are kept in memory and only while an operation is open; calls made
outside operations (input generation, anchors) pass straight through.
Per-chord scalar calls are counted but not spanned, which keeps the traced
run's overhead and memory bounded.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

# Spanned calls: (module that makes the call, attribute, span name).  The span
# name's prefix up to the last dot is the layer its self time is charged to.
SPANNED = (
    ("hardyops.cli", "main", "cli.main"),
    ("hardyops.cli", "make_params", "specfun.make_params"),
    ("hardyops.cli", "build_log_grid", "operators.grid"),
    ("hardyops.cli", "riesz_time_integral", "quadrature.riesz_time_integral"),
    ("hardyops.cli", "schur_weight_integral", "quadrature.schur_weight_integral"),
    ("hardyops.verify", "heat_sandwich_check", "verify.check"),
    ("hardyops.verify", "difference_envelope_check", "verify.check"),
    ("hardyops.verify", "riesz_equivalence_check", "verify.check"),
    ("hardyops.verify", "generalized_hardy_constant", "verify.check"),
    ("hardyops.verify", "reverse_hardy_constant", "verify.check"),
    ("hardyops.verify", "norm_ratio_sweep", "verify.check"),
    ("hardyops.verify", "sweep_rows", "verify.check"),
    ("hardyops.verify", "sobolev_check", "verify.check"),
    ("hardyops.verify", "make_params", "specfun.make_params"),
    ("hardyops.verify", "build_log_grid", "operators.grid"),
    ("hardyops.verify", "build_fractional_laplacian", "operators.build"),
    ("hardyops.verify", "build_hardy_operator", "operators.build"),
    ("hardyops.verify", "build_potential_operator", "operators.build"),
    ("hardyops.verify", "heat_kernel_matrix", "operators.heat_kernel"),
    ("hardyops.verify", "angular_average", "kernels.angular_average"),
    ("hardyops.verify", "poisson_radial_average", "kernels.poisson_radial_average"),
    ("hardyops.verify", "riesz_time_integral", "quadrature.riesz_time_integral"),
    ("hardyops.operators", "jump_profile", "operators.jump_profile"),
    ("hardyops.quadrature", "integrate_semiinfinite", "quadrature.integrate"),
    ("hardyops.specfun", "make_params", "specfun.make_params"),
    ("hardyops.specfun", "psi_inv", "specfun.psi_inv"),
    # The dense solvers operators and verify call as np.linalg.eigh/eigvalsh.
    ("numpy.linalg", "eigh", "operators.eigh"),
    ("numpy.linalg", "eigvalsh", "verify.eigvalsh"),
)

# Counted-only calls: (module that makes the call, attribute, counter name).
COUNTED = (
    ("hardyops.verify", "hardy_heat_profile", "kernels.profile"),
    ("hardyops.verify", "l_envelope", "kernels.profile"),
    ("hardyops.verify", "m_envelope", "kernels.profile"),
    ("hardyops.verify", "riesz_profile", "kernels.profile"),
    ("hardyops.cli", "hardy_heat_profile", "kernels.profile"),
    ("hardyops.specfun", "psi", "specfun.psi"),
)

# Public verify checks whose report ``samples`` are sampled node pairs.
PAIR_CHECKS = ("heat_sandwich_check", "difference_envelope_check")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    info: dict


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """In-memory spans and per-operation counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._op: Optional[int] = None
        self._op_counts: Optional[dict] = None

    def begin(self, op: int) -> None:
        self._op = op
        self._op_counts = self.counts.setdefault(op, {})

    def end(self) -> None:
        self._op = None
        self._op_counts = None

    def count(self, name: str) -> None:
        counts = self._op_counts
        if counts is not None:
            counts[name] = counts.get(name, 0) + 1

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict, info_fn=None):
        if self._op is None:
            return fn(*args, **kwargs)
        self.count(name)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        info: dict = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            info["error"] = id(exc)
            raise
        else:
            if info_fn is not None:
                info.update(info_fn(args, result))
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op, info)


def _matrix_order(args, result) -> dict:
    return {"n": int(np.shape(args[0])[-1])}


def _kernel_order(args, result) -> dict:
    return {"n": int(len(args[0].eigenvalues))}


def _evaluations(args, result) -> dict:
    return {"evaluations": int(result.evaluations)}


def _pair_samples(args, result) -> dict:
    return {"pairs": int(result.samples), "verdict": result.verdict}


def _verdict(args, result) -> dict:
    return {"verdict": result.verdict}


_INFO = {
    "operators.eigh": _matrix_order,
    "verify.eigvalsh": _matrix_order,
    "operators.heat_kernel": _kernel_order,
    "quadrature.integrate": _evaluations,
}


def _span_wrapper(tracer: Tracer, name: str, fn: Callable, info_fn) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs, info_fn)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Install the wrappers; returns a function that removes them.

    Attributes a later version of the package no longer has are skipped,
    so their counters read zero instead of breaking the run.
    """
    originals = []
    for module_name, attr, name in SPANNED:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            continue
        fn = getattr(module, attr)
        info_fn = _INFO.get(name)
        if name == "verify.check":
            info_fn = _pair_samples if attr in PAIR_CHECKS else _verdict
        originals.append((module, attr, fn))
        setattr(module, attr, _span_wrapper(tracer, name, fn, info_fn))
    for module_name, attr, name in COUNTED:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            continue
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, _count_wrapper(tracer, name, fn))

    # Every KernelTriple construction, wherever it happens, runs __post_init__.
    kernels = importlib.import_module("hardyops.kernels")
    triple = kernels.KernelTriple
    post_init = triple.__post_init__

    def counting_post_init(self):
        tracer.count("kernels.triple")
        post_init(self)

    originals.append((triple, "__post_init__", post_init))
    triple.__post_init__ = counting_post_init

    def uninstall() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list) -> list:
    """Span duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def _errors(spans: list, layer: str) -> int:
    return len({s.info["error"] for s in spans if "error" in s.info and layer_of(s.name) == layer})


def layer_metrics(tracer: Tracer, ops: set) -> dict:
    """Per-layer metrics over the operations in ``ops``."""
    own = self_times(tracer.spans)
    picked = [i for i, s in enumerate(tracer.spans) if s.op in ops]
    spans = [tracer.spans[i] for i in picked]
    own = [own[i] for i in picked]

    counts: dict = {}
    for op in ops:
        for name, value in tracer.counts.get(op, {}).items():
            counts[name] = counts.get(name, 0) + value

    def calls(*names) -> int:
        return sum(counts.get(n, 0) for n in names)

    def seconds(*names) -> float:
        return sum(t for s, t in zip(spans, own) if s.name in names)

    def layer_seconds(layer: str) -> float:
        return sum(t for s, t in zip(spans, own) if layer_of(s.name) == layer)

    builds = [i for i in picked if tracer.spans[i].name == "operators.build"]
    eigh_parents = {s.parent for s in spans if s.name == "operators.eigh"}
    reused = sum(1 for i in builds if i not in eigh_parents)
    eigh_orders = [s.info["n"] for s in spans if s.name == "operators.eigh" and "n" in s.info]
    kernel_orders = [s.info["n"] for s in spans if s.name == "operators.heat_kernel" and "n" in s.info]
    verdicts = [s.info["verdict"] for s in spans if s.name == "verify.check" and "verdict" in s.info]

    return {
        "specfun.calls": calls("specfun.make_params", "specfun.psi_inv", "specfun.psi"),
        "specfun.s": layer_seconds("specfun"),
        "kernels.angular_average.calls": calls("kernels.angular_average"),
        "kernels.angular_average.s": seconds("kernels.angular_average"),
        "kernels.triples": calls("kernels.triple"),
        "kernels.profile_calls": calls("kernels.profile"),
        "kernels.s": layer_seconds("kernels"),
        "quadrature.integrals": calls("quadrature.integrate"),
        "quadrature.integrand_evals": sum(
            s.info.get("evaluations", 0) for s in spans if s.name == "quadrature.integrate"
        ),
        "quadrature.s": layer_seconds("quadrature"),
        "quadrature.errors": _errors(spans, "quadrature"),
        "operators.grids": calls("operators.grid"),
        "operators.builds": len(builds),
        "operators.build.s": seconds("operators.build"),
        "operators.jump_profile.calls": calls("operators.jump_profile"),
        "operators.jump_profile.s": seconds("operators.jump_profile"),
        "operators.eigh.calls": calls("operators.eigh"),
        "operators.eigh.s": seconds("operators.eigh"),
        "operators.eigh.gflop": sum(9.0 * n**3 for n in eigh_orders) / 1e9,
        "operators.eig_reuse_ratio": reused / len(builds) if builds else 0.0,
        "operators.heat_kernel.calls": calls("operators.heat_kernel"),
        "operators.heat_kernel.s": seconds("operators.heat_kernel"),
        "operators.heat_kernel.mb": sum(8.0 * n * n for n in kernel_orders) / 1e6,
        "operators.errors": _errors(spans, "operators"),
        "verify.checks": calls("verify.check"),
        "verify.s": seconds("verify.check"),
        "verify.eigvalsh.calls": calls("verify.eigvalsh"),
        "verify.eigvalsh.s": seconds("verify.eigvalsh"),
        "verify.pairs": sum(s.info.get("pairs", 0) for s in spans if s.name == "verify.check"),
        "verify.pass_frac": (
            sum(v == "pass" for v in verdicts) / len(verdicts) if verdicts else 0.0
        ),
        "cli.calls": calls("cli.main"),
        "cli.s": seconds("cli.main"),
    }


def op_coverage(tracer: Tracer, op: int, wall: float) -> float:
    """Sum of the self times of an operation's spans over its wall time.

    The remainder is time that no wrapped call accounts for: the
    benchmark's own bookkeeping around the call.
    """
    own = self_times(tracer.spans)
    total = sum(t for s, t in zip(tracer.spans, own) if s.op == op)
    return total / wall if wall > 0.0 else 0.0
