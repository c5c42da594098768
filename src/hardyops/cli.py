"""Command-line front end for the hardyops toolkit.

Every subcommand maps onto one library entry point and shares a single
reporting pipeline: a human-readable transcript on stdout, optional CSV
rows, and an optional JSON summary.  Handlers only emit reports; the exit
code follows from the reports' verdicts alone.  It is 0 when the command
ran to completion and every report's verdict is ``pass``, 2 when it ran
to completion and any verdict is not ``pass`` (``fail`` or
``diverging``; the JSON summary's verdict is then ``fail``), 1 for
validation problems (bad flags, bad config, parameters outside their
domain) and for a ``ConstructionError`` (a grid or operator the
discretization cannot build, such as a grid too coarse for the
near-field solve), and 3 when an adaptive computation failed to
converge; all of these errors give the JSON verdict ``error``.

Config files use ``key = value`` lines with ``#`` comments; keys mirror
the long flag names of the subcommand being run, and explicit flags
override the file.  Outputs are byte-identical across reruns with the
same effective config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConstructionError, ConvergenceError, DomainError
from .kernels import KernelTriple, hardy_heat_profile, stable_heat_profile
from .operators import PotentialSpec, build_log_grid
from .quadrature import riesz_time_integral, schur_weight_integral
from .specfun import a_star, a_star_star, hardy_constant, log_gamma, make_params, psi, psi_inv
from . import verify

EXIT_PASS = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_NO_CONVERGENCE = 3


class CliError(Exception):
    """Raised for command-line or config-file validation problems."""


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that reports errors through CliError instead of
    exiting the process, so main() can map them to exit code 1."""

    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# option registry


def _parse_int(text) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise CliError(f"expected an integer, got {text!r}") from None


def _parse_seed(text) -> int:
    value = _parse_int(text)
    if value < 0:
        raise CliError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_float(text) -> float:
    try:
        value = float(str(text).strip())
    except ValueError:
        raise CliError(f"expected a number, got {text!r}") from None
    if math.isnan(value):
        raise CliError("nan is not a valid value")
    return value


def _parse_float_list(text) -> tuple:
    parts = [p.strip() for p in str(text).split(",")]
    values = tuple(_parse_float(p) for p in parts if p)
    if not values:
        raise CliError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _parse_str(text) -> str:
    return str(text).strip()


def _parse_bool(text) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class _Option:
    parse: Callable
    help: str
    is_flag: bool = False


_OPTIONS = {
    "d": _Option(_parse_int, "ambient dimension (integer >= 2)"),
    "alpha": _Option(_parse_float, "order of the fractional kinetic term, in (0, min(2, d))"),
    "a": _Option(_parse_float, "inverse-power coupling, must satisfy a >= a_star"),
    "a_tilde": _Option(_parse_float, "upper sandwich coupling for an interpolated potential"),
    "s": _Option(_parse_float_list, "comma-separated fractional powers"),
    "t": _Option(_parse_float_list, "comma-separated times"),
    "grid_n": _Option(_parse_int, "number of radial grid nodes"),
    "r_min": _Option(_parse_float, "inner radius of the log grid"),
    "r_max": _Option(_parse_float, "outer radius of the log grid"),
    "family": _Option(_parse_str, "test family tag: " + ", ".join(verify.FAMILY_TAGS)),
    "sigma": _Option(_parse_float, "singularity exponent (psi input, or cutoff-family exponent)"),
    "eps": _Option(_parse_float, "smallest cutoff scale of the singular-cutoff family"),
    "tol": _Option(_parse_float, "per-command tolerance or pass bound"),
    "out_csv": _Option(_parse_str, "write result rows to this CSV file"),
    "out_json": _Option(_parse_str, "write a JSON summary to this file"),
    "seed": _Option(_parse_seed, "seed for the sampling generator"),
    "config": _Option(_parse_str, "read defaults from a key = value config file"),
    "rx": _Option(_parse_float, "radius of the first point"),
    "ry": _Option(_parse_float, "radius of the second point"),
    "rxy": _Option(_parse_float, "distance between the two points"),
    "beta": _Option(_parse_float, "radial exponent of the Schur weight integral"),
    "delta_plus": _Option(_parse_float, "singularity exponent of the Schur weight integral"),
    "quick": _Option(_parse_bool, "run only the fast subset of the suite", is_flag=True),
}


@dataclass(frozen=True)
class _Command:
    name: str
    handler: Callable
    options: tuple
    required: tuple
    defaults: dict
    header: tuple
    help: str


_COMMON = ("out_csv", "out_json", "config")


# ---------------------------------------------------------------------------
# output plumbing


@dataclass
class _Emitter:
    rows: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # JSON-ready dicts, each with a verdict
    lines: list = field(default_factory=list)

    def check(self, report: verify.VerificationReport, summary: str, cells: tuple) -> None:
        """Emit one check: its summary line and notes, its CSV row (``cells``
        then the verdict) and its report."""
        self.lines.append(f"{summary} ({report.verdict})")
        self.lines.extend(f"  {note}" for note in report.notes)
        self.rows.append((*cells, report.verdict))
        self.reports.append(report.to_dict())

    def values(self, name: str, params: dict, values) -> None:
        """Emit the report of a command that evaluates rather than checks."""
        self.reports.append({"check_name": name, "params": params, "values": values,
                             "verdict": "pass"})


def _verdict(reports: list) -> str:
    return "pass" if all(report["verdict"] == "pass" for report in reports) else "fail"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    return text.replace(",", ";").replace("\n", " ")


def _csv_text(header: tuple, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}") from None


def _flush_outputs(cmd: _Command, cfg: dict, em: _Emitter, verdict: str,
                   failure: Optional[BaseException] = None) -> None:
    rows = list(em.rows)
    if failure is not None:
        marker = ["FAILURE", f"{type(failure).__name__}: {failure}"]
        marker = (marker + [""] * len(cmd.header))[: len(cmd.header)]
        rows.append(tuple(marker))
    if cfg.get("out_csv"):
        _write_text(cfg["out_csv"], _csv_text(cmd.header, rows))
    if cfg.get("out_json"):
        payload = {
            "command": cmd.name,
            "config": _jsonable({k: v for k, v in cfg.items() if v is not None}),
            "reports": _jsonable(em.reports),
            "verdict": verdict,
        }
        if failure is not None:
            payload["failure"] = f"{type(failure).__name__}: {failure}"
        _write_text(cfg["out_json"], json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# config handling


def _read_config_file(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path!r}: {exc}") from None
    items = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw_line.strip()!r}")
        items.append((key, value))
    return items


def _effective_config(cmd: _Command, args: argparse.Namespace) -> dict:
    cfg = dict(cmd.defaults)
    for name in cmd.options:
        cfg.setdefault(name, None)

    path = getattr(args, "config", None)
    if path is not None:
        for key, raw in _read_config_file(path):
            key = key.replace("-", "_")
            if key == "config" or key not in cmd.options:
                raise CliError(
                    f"unknown config key {key!r} for command {cmd.name!r}"
                )
            cfg[key] = _OPTIONS[key].parse(raw)
        cfg["config"] = path

    for name in cmd.options:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        opt = _OPTIONS[name]
        cfg[name] = bool(raw) if opt.is_flag else opt.parse(raw)

    missing = [name for name in cmd.required if cfg.get(name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise CliError(f"missing required option(s): {flags}")
    return cfg


# ---------------------------------------------------------------------------
# command handlers


def _cmd_constants(cfg: dict, em: _Emitter) -> None:
    a = cfg["a"]
    params = make_params(cfg["d"], cfg["alpha"], 0.0 if a is None else a)
    h = hardy_constant(params.d, params.alpha)
    values = {"hardy_constant": h, "a_star": params.a_star}
    em.lines.append(f"hardy_constant = {h:.10f}")
    em.lines.append(f"a_star = {params.a_star:.10f}")
    em.rows.append(("hardy_constant", h))
    em.rows.append(("a_star", params.a_star))
    if params.a_star_star is not None:
        em.lines.append(f"a_star_star = {params.a_star_star:.10f}")
        em.rows.append(("a_star_star", params.a_star_star))
        values["a_star_star"] = params.a_star_star
    else:
        em.lines.append("a_star_star = undefined (alpha >= d/2)")
        em.rows.append(("a_star_star", "undefined"))
    if a is not None:
        em.lines.append(f"delta = {params.delta:.10f}")
        em.rows.append(("delta", params.delta))
        values["delta"] = params.delta
    em.values("constants", {"d": params.d, "alpha": params.alpha, "a": a}, values)


def _cmd_psi(cfg: dict, em: _Emitter) -> None:
    value = psi(cfg["d"], cfg["alpha"], cfg["sigma"])
    em.lines.append(f"psi(sigma={cfg['sigma']:g}) = {value:.10f}")
    em.rows.append((cfg["d"], cfg["alpha"], cfg["sigma"], value))
    em.values("psi", {"d": cfg["d"], "alpha": cfg["alpha"], "sigma": cfg["sigma"]},
              {"psi": value})


def _cmd_psi_inv(cfg: dict, em: _Emitter) -> None:
    delta = psi_inv(cfg["d"], cfg["alpha"], cfg["a"])
    em.lines.append(f"psi_inv(a={cfg['a']:g}) = {delta:.10f}")
    em.rows.append((cfg["d"], cfg["alpha"], cfg["a"], delta))
    em.values("psi_inv", {"d": cfg["d"], "alpha": cfg["alpha"], "a": cfg["a"]},
              {"delta": delta})


def _cmd_kernel_eval(cfg: dict, em: _Emitter) -> None:
    params = make_params(cfg["d"], cfg["alpha"], cfg["a"])
    triple = KernelTriple(cfg["rx"], cfg["ry"], cfg["rxy"])
    values = []
    for t in cfg["t"]:
        stable = stable_heat_profile(t, triple, params.d, params.alpha)
        hardy = hardy_heat_profile(t, triple, params)
        em.lines.append(
            f"t={t:g}: stable_profile={stable:.10g} hardy_profile={hardy:.10g}"
        )
        em.rows.append((params.d, params.alpha, params.a, params.delta, t,
                        triple.rx, triple.ry, triple.rxy, stable, hardy))
        values.append({"t": t, "stable_profile": stable, "hardy_profile": hardy})
    em.values("kernel_eval", {"d": params.d, "alpha": params.alpha, "a": params.a,
                              "rx": triple.rx, "ry": triple.ry, "rxy": triple.rxy}, values)


def _cmd_riesz_verify(cfg: dict, em: _Emitter) -> None:
    params = make_params(cfg["d"], cfg["alpha"], cfg["a"])
    for s in cfg["s"]:
        report = verify.riesz_equivalence_check(
            params, s, seed=cfg["seed"], band_bound=cfg["tol"]
        )
        lo, hi = report.empirical_lower, report.empirical_upper
        spread = hi / lo if lo > 0.0 else math.inf
        em.check(report, f"s={s:g}: ratio band [{lo:.6g}, {hi:.6g}], C/c={spread:.4g}",
                 (params.d, params.alpha, params.a, params.delta, s, lo, hi, spread))


def _cmd_heat_verify(cfg: dict, em: _Emitter) -> None:
    params = make_params(cfg["d"], cfg["alpha"], cfg["a"])
    grid = build_log_grid(params.d, cfg["r_min"], cfg["r_max"], cfg["grid_n"])
    reports = verify.heat_sandwich_by_time(params, cfg["t"], grid=grid, seed=cfg["seed"],
                                           band_bound=cfg["tol"])
    for t, report in zip(cfg["t"], reports):
        lo, hi = report.empirical_lower, report.empirical_upper
        em.check(report, f"t={t:g}: kernel/profile band [{lo:.6g}, {hi:.6g}]",
                 (params.d, params.alpha, params.a, params.delta, t, lo, hi))


def _cmd_diff_verify(cfg: dict, em: _Emitter) -> None:
    params = make_params(cfg["d"], cfg["alpha"], cfg["a"])
    grid = build_log_grid(params.d, cfg["r_min"], cfg["r_max"], cfg["grid_n"])
    a_tilde = cfg["a_tilde"]
    potential = None
    if a_tilde is not None:
        alpha, lower, upper = params.alpha, params.a, float(a_tilde)

        def v_profile(r):
            weight = np.exp(-r)
            return r ** (-alpha) * (lower * weight + upper * (1.0 - weight))

        potential = PotentialSpec(profile=v_profile, a=lower, a_tilde=upper)
    report = verify.difference_envelope_check(
        params, cfg["t"], potential=potential, grid=grid, seed=cfg["seed"]
    )
    lo, hi = report.empirical_lower, report.empirical_upper
    em.check(report, f"sup|K_diff|/envelope in [{lo:.6g}, {hi:.6g}]",
             (params.d, params.alpha, params.a, "" if a_tilde is None else a_tilde, lo, hi))


def _cmd_schur(cfg: dict, em: _Emitter) -> None:
    result = schur_weight_integral(cfg["beta"], cfg["delta_plus"], cfg["d"])
    status = "divergent" if result.divergent else "finite"
    value_text = "inf" if result.divergent else f"{result.value:.10f}"
    em.lines.append(f"schur_weight_integral = {value_text}")
    em.lines.append(f"status = {status}")
    em.rows.append((cfg["d"], cfg["beta"], cfg["delta_plus"], result.value, status))
    em.values("schur", {"d": cfg["d"], "beta": cfg["beta"], "delta_plus": cfg["delta_plus"]},
              {"value": result.value, "status": status})


def _cmd_sweep(cfg: dict, em: _Emitter) -> None:
    params = make_params(cfg["d"], cfg["alpha"], cfg["a"])
    # Unset options keep TestFamily's defaults; TestFamily checks them.
    fam_kwargs = {key: cfg[key] for key in ("sigma", "eps") if cfg[key] is not None}
    family = verify.TestFamily(tag=cfg["family"], **fam_kwargs)
    grid = build_log_grid(params.d, cfg["r_min"], cfg["r_max"], cfg["grid_n"])

    rows, notes, reports = verify.sweep_by_power(
        params, cfg["s"], family, grid, pass_bound=cfg["tol"]
    )
    for row in rows:
        em.rows.append(tuple(row[column] for column in verify.SWEEP_COLUMNS))
    em.lines.extend(f"  {note}" for note in notes)
    for s, report in zip(cfg["s"], reports):
        em.lines.append(
            f"s={s:g}: {report.verdict} "
            f"(ratio band [{report.empirical_lower:.6g}, {report.empirical_upper:.6g}])"
        )
        em.reports.append(report.to_dict())


# ---------------------------------------------------------------------------
# suite battery


def _error_report(name: str, params: dict, worst: float, samples: int,
                  label: str) -> verify.VerificationReport:
    """Pass exactly when the worst error is within ``params["tol"]``."""
    return verify.VerificationReport(
        check_name=name,
        params=params,
        empirical_lower=worst,
        empirical_upper=worst,
        verdict="pass" if worst <= params["tol"] else "fail",
        samples=samples,
        notes=(f"{label} {worst:.3e}",),
    )


def _anchor_report(name: str, pairs: Sequence, tol: float) -> verify.VerificationReport:
    worst = 0.0
    for measured, expected in pairs:
        denom = abs(expected) if expected != 0.0 else 1.0
        worst = max(worst, abs(measured - expected) / denom)
    return _error_report(name, {"tol": tol}, worst, len(pairs), "worst relative error")


def _renamed(report: verify.VerificationReport, name: str, *, fail: bool = False,
             notes: tuple = ()) -> verify.VerificationReport:
    """``report`` as the suite's check ``name`` with ``notes`` appended,
    demoted from pass to fail when ``fail`` is set."""
    verdict = "fail" if fail and report.verdict == "pass" else report.verdict
    return replace(report, check_name=name, verdict=verdict, notes=report.notes + notes)


def _suite_constants() -> verify.VerificationReport:
    pairs = [
        (hardy_constant(3, 1.0), 2.0 / math.pi),
        (a_star(3, 1.0), -2.0 / math.pi),
        (a_star_star(3, 1.0), -0.5),
        (hardy_constant(3, 2.0), 0.25),
        (psi(3, 1.0, 1.0), -2.0 / math.pi),
        (psi(3, 1.0, 0.0), 0.0),
    ]
    return _anchor_report("constants-anchors", pairs, 1e-12)


def _suite_psi_roundtrip() -> verify.VerificationReport:
    worst = 0.0
    for sigma in np.linspace(-0.85, 1.0, 25):
        sigma = float(sigma)
        value = psi(3, 1.0, sigma)
        back = psi_inv(3, 1.0, value)
        worst = max(worst, abs(back - sigma))
    return _error_report("psi-roundtrip", {"d": 3, "alpha": 1.0, "tol": 1e-8}, worst, 25,
                         "worst roundtrip error")


def _suite_riesz_anchor() -> verify.VerificationReport:
    params = make_params(3, 1.0, 0.0)
    value = riesz_time_integral(1.0, KernelTriple(1.0, 1.0, 1.0), params)
    return _anchor_report("riesz-time-anchor", [(value, 16.0 / 7.0)], 1e-8)


def _suite_schur() -> verify.VerificationReport:
    finite = schur_weight_integral(1.0, 0.0, 3)
    flags_ok = (
        not finite.divergent
        and not schur_weight_integral(1.5, 0.4, 3).divergent
        and schur_weight_integral(0.5, 0.6, 3).divergent
        and schur_weight_integral(2.8, 0.3, 3).divergent
    )
    report = _anchor_report("schur-anchor", [(finite.value, 6.0 * math.pi)], 1e-8)
    return replace(report, verdict=report.verdict if flags_ok else "fail",
                   notes=(f"divergence flags correct: {flags_ok}",) + report.notes)


def _zero_params():
    return make_params(3, 1.0, 0.0)


def _small_grid(n: int = 256):
    return build_log_grid(3, 1e-2, 1e2, n)


def _suite_sweep_s1() -> verify.VerificationReport:
    # At s = 1 the ground-state representation gives every Gaussian the
    # forward ratio sqrt(R / (R + a)), R = Gamma((d+alpha)/2) / Gamma((d-alpha)/2)
    # (Frank, Lieb & Seiringer, J. Amer. Math. Soc. 2008).
    d, alpha = 3, 1.0
    params = make_params(d, alpha, -0.5 * hardy_constant(d, alpha))
    rows, _, (report,) = verify.sweep_by_power(
        params, [1.0], verify.TestFamily(tag="gaussian-dilates"), _small_grid()
    )
    ratio = math.exp(log_gamma(0.5 * (d + alpha)) - log_gamma(0.5 * (d - alpha)))
    exact = math.sqrt(ratio / (ratio + params.a))
    worst = max(abs(row["ratio_forward"] - exact) / exact for row in rows)
    tol = 2.1e-3  # 2.017e-3 measured on this grid
    return _renamed(report, "sweep-s1-closed-form", fail=not worst <= tol, notes=(
        f"worst relative error {worst:.3e} against sqrt(R / (R + a)) = {exact:.6g}, "
        f"tolerance {tol:.1e}",
    ))


def _suite_heat_poisson(seed: int) -> verify.VerificationReport:
    report = next(verify.heat_sandwich_by_time(
        _zero_params(), (1.0,), sample_pairs=60, grid=_small_grid(512), seed=seed
    ))
    outside = (report.verdict == "pass"
               and not (0.9 <= report.empirical_lower and report.empirical_upper <= 1.1))
    return _renamed(report, "heat-poisson-exact", fail=outside, notes=(
        ("band left the exact-kernel window [0.9, 1.1]",) if outside else ()
    ))


def _suite_gen_hardy() -> verify.VerificationReport:
    report = verify.generalized_hardy_constant(
        _zero_params(), 1.0, 1, r_min=1e-2, r_max=1e2, grid_n=512
    )
    target = math.sqrt(0.5 * math.pi)
    drift = abs(report.empirical_upper - target) / target
    return _renamed(report, "generalized-hardy-anchor", fail=drift > 0.05, notes=(
        f"constant {report.empirical_upper:.6g} vs 1/sqrt(H) = {target:.6g}",
    ))


def _cmd_suite(cfg: dict, em: _Emitter) -> None:
    seed = cfg["seed"]
    battery = [
        _suite_constants,
        _suite_psi_roundtrip,
        _suite_riesz_anchor,
        _suite_schur,
        _suite_sweep_s1,
    ]
    if not cfg["quick"]:
        battery += [
            lambda: _suite_heat_poisson(seed),
            _suite_gen_hardy,
        ]
    for item in battery:
        report = item()
        em.reports.append(report.to_dict())
        em.rows.append((report.check_name, report.verdict,
                        report.empirical_lower, report.empirical_upper))
        em.lines.append(f"{report.check_name}: {report.verdict}")
    em.lines.append(f"suite: {_verdict(em.reports)}")


# ---------------------------------------------------------------------------
# command table and entry point


_COMMANDS = {}

_DEFAULT_BOX = {
    "grid_n": verify.DEFAULT_GRID_N,
    "r_min": verify.DEFAULT_R_MIN,
    "r_max": verify.DEFAULT_R_MAX,
}


def _register(name, handler, options, required, defaults, header, help_text):
    _COMMANDS[name] = _Command(
        name=name,
        handler=handler,
        options=tuple(options) + _COMMON,
        required=tuple(required),
        defaults=dict(defaults),
        header=tuple(header),
        help=help_text,
    )


_register(
    "constants", _cmd_constants,
    ("d", "alpha", "a"), ("d", "alpha"), {},
    ("quantity", "value"),
    "print the sharp constant, the critical couplings, and optionally delta",
)
_register(
    "psi", _cmd_psi,
    ("d", "alpha", "sigma"), ("d", "alpha", "sigma"), {},
    ("d", "alpha", "sigma", "psi"),
    "evaluate the Mellin symbol at a given exponent",
)
_register(
    "psi-inv", _cmd_psi_inv,
    ("d", "alpha", "a"), ("d", "alpha", "a"), {},
    ("d", "alpha", "a", "delta"),
    "invert the Mellin symbol: the exponent delta with psi(delta) = a",
)
_register(
    "kernel-eval", _cmd_kernel_eval,
    ("d", "alpha", "a", "t", "rx", "ry", "rxy"),
    ("d", "alpha", "rx", "ry", "rxy"),
    {"a": 0.0, "t": (1.0,)},
    ("d", "alpha", "a", "delta", "t", "rx", "ry", "rxy",
     "stable_profile", "hardy_profile"),
    "evaluate the heat comparison profiles at one geometric configuration",
)
_register(
    "riesz-verify", _cmd_riesz_verify,
    ("d", "alpha", "a", "s", "seed", "tol"), ("d", "alpha"),
    {"a": 0.0, "s": (0.5,), "seed": 0, "tol": 50.0},
    ("d", "alpha", "a", "delta", "s", "ratio_min", "ratio_max", "spread", "verdict"),
    "compare the kernel time integral against the closed profile on random triples",
)
_register(
    "heat-verify", _cmd_heat_verify,
    ("d", "alpha", "a", "t", "grid_n", "r_min", "r_max", "seed", "tol"),
    ("d", "alpha"),
    {"a": 0.0, "t": (1.0,), **_DEFAULT_BOX, "seed": 0, "tol": 100.0},
    ("d", "alpha", "a", "delta", "t", "ratio_min", "ratio_max", "verdict"),
    "compare the discrete heat kernel against its two-sided profile",
)
_register(
    "diff-verify", _cmd_diff_verify,
    ("d", "alpha", "a", "a_tilde", "t", "grid_n", "r_min", "r_max", "seed"),
    ("d", "alpha"),
    {"a": 0.0, "t": (1.0,), **_DEFAULT_BOX, "seed": 0},
    ("d", "alpha", "a", "a_tilde", "sup_lower", "sup_upper", "verdict"),
    "bound the difference of heat kernels by its envelope, optionally for an "
    "interpolated potential sandwiched between two couplings",
)
_register(
    "schur", _cmd_schur,
    ("d", "beta", "delta_plus"), ("d", "beta"),
    {"delta_plus": 0.0},
    ("d", "beta", "delta_plus", "value", "status"),
    "evaluate the weighted Schur test integral and report finiteness",
)
_register(
    "sweep", _cmd_sweep,
    ("d", "alpha", "a", "s", "family", "sigma", "eps",
     "grid_n", "r_min", "r_max", "tol"),
    ("d", "alpha"),
    {"a": 0.0, "s": (0.5, 1.0, 1.5), "family": "gaussian-dilates",
     **_DEFAULT_BOX, "tol": 1e3},
    verify.SWEEP_COLUMNS,
    "sweep norm-equivalence ratios over a test family and a list of powers",
)
_register(
    "suite", _cmd_suite,
    ("quick", "seed"), (),
    {"quick": False, "seed": 0},
    ("check", "verdict", "empirical_lower", "empirical_upper"),
    "run the built-in verification battery and report one verdict per check",
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing
    leaves it unchanged, so every call of ``main`` shares it."""
    parser = _ArgumentParser(
        prog="hardyops",
        description="Verification toolkit for fractional Hardy operators.",
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", parser_class=_ArgumentParser
    )
    subparsers.required = True
    for cmd in _COMMANDS.values():
        sub = subparsers.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        for name in cmd.options:
            opt = _OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if opt.is_flag:
                sub.add_argument(flag, action="store_true", default=None,
                                 help=opt.help)
            else:
                sub.add_argument(flag, default=None, help=opt.help)
    return parser


def _run(cmd: _Command, cfg: dict, em: _Emitter) -> int:
    """Run the handler and write its outputs; exit 0 exactly when every
    emitted report's verdict is ``pass``."""
    failure = None
    try:
        cmd.handler(cfg, em)
    except (CliError, DomainError, ConstructionError, ConvergenceError) as exc:
        failure = exc
    verdict = "error" if failure is not None else _verdict(em.reports)
    _flush_outputs(cmd, cfg, em, verdict, failure=failure)
    for line in em.lines:
        print(line)
    if failure is not None:
        raise failure
    return EXIT_PASS if verdict == "pass" else EXIT_CHECK_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cmd = _COMMANDS[args.command]
        cfg = _effective_config(cmd, args)
        return _run(cmd, cfg, _Emitter())
    except SystemExit as exc:
        return EXIT_PASS if exc.code in (0, None) else EXIT_VALIDATION
    except (CliError, DomainError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
