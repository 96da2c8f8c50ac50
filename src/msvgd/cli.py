"""Command-line entry point: particle runs, quadrature verification suites,
and the constants report.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric abort.  Each command wires its runtime once and checks --out
before it writes any output; --out itself is made only when the first
output file is written, so a refusal leaves nothing behind.  Every output
directory receives a manifest.json; existing outputs are never overwritten
without --force.

On glibc, main first pins the allocator's mmap threshold (32 MiB) and trim
threshold (64 MiB) through mallopt.  A grid or particle step frees
transients larger than glibc's dynamic trim threshold, so without the pin
whether every step trims the heap top and faults it back in depends on the
layout set-up left, down to the length of the --out path.  Pinned, freed
transients stay in the heap for the next step.  Only the CLI process pins;
importing msvgd as a library changes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import csv
import json
import math
import platform
import sys
import time
from pathlib import Path

from . import engine, theory
from .config import build_runtime, load_config
from .errors import ConfigError, DomainError, NumericsError
from .gridflow import MirroredFlow, descent_check, fisher_norm_margins

REPORT_FILE = "report.json"
VERIFY_CSV_FILE = "verify.csv"
THEORY_FILE = "theory.json"

LEMMA_GAP_TOL = 1e-6
NORM_MARGIN_TOL = -1e-8

# (mallopt parameter, value) pairs of glibc's malloc.h: M_MMAP_THRESHOLD (-3)
# at glibc's 64-bit ceiling, DEFAULT_MMAP_THRESHOLD_MAX, and M_TRIM_THRESHOLD
# (-1) at twice that, as glibc's own dynamic rule sets it
_HEAP_PINS = ((-3, 32 * 1024 * 1024), (-1, 64 * 1024 * 1024))


def _pin_heap() -> tuple:
    """Pin glibc's mmap and trim thresholds (_HEAP_PINS) for this process.

    Returns mallopt's result for each pin (1 when accepted), or () where the
    C library is not glibc and nothing is set.  Calling it again sets the
    same values.
    """
    if platform.libc_ver()[0] != "glibc":
        return ()
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return tuple(mallopt(param, value) for param, value in _HEAP_PINS)


def _check_out_dir(out: str, force: bool, filenames: tuple) -> Path:
    """--out as a path, refused when it or one of its parents is a file, or
    when it already holds one of ``filenames`` (unless ``force``); nothing
    is created here."""
    out_dir = Path(out)
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out_dir}: {path} is an existing file, not a directory")
    existing = [name for name in filenames if (out_dir / name).exists()]
    if existing and not force:
        raise ConfigError(
            f"output directory {out_dir} already contains {', '.join(existing)}; "
            "pass --force to overwrite"
        )
    return out_dir


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _write_json(path: Path, obj) -> None:
    # the first output verify and theory write, so it makes --out
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dump_json(obj) + "\n", encoding="utf-8")


def _write_verify_csv(path: Path, records, gamma: float) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "kl", "stein_fisher", "gamma", "bound_rhs"])
        for rec in records:
            writer.writerow([
                rec["step"],
                repr(rec["kl"]),
                repr(rec["stein_fisher"]),
                repr(gamma),
                repr(-(gamma / 2.0) * rec["stein_fisher"]),
            ])


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    gamma = args.gamma
    if gamma is not None and gamma != "theorem":
        try:
            gamma = float(gamma)
        except ValueError:
            raise ConfigError(
                f"--gamma must be a positive number or \"theorem\", got {gamma!r}"
            ) from None
    cfg = load_config(args.config,
                      {"gamma": gamma, "steps": args.steps, "seed": args.seed,
                       "particles": args.particles})
    bundle = build_runtime(cfg)
    out_dir = _check_out_dir(
        args.out, args.force,
        (engine.TRAJECTORY_FILE, engine.DIAGNOSTICS_FILE, engine.MANIFEST_FILE),
    )
    summary = engine.run(bundle, out_dir)
    print(f"run complete: {summary['steps_completed']} steps, "
          f"{summary['particles']} particles, outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# verify


# the spans of verify's manifest.json "timings" block, in seconds: the flow's
# build, its field builds and pushes (MirroredFlow.timings), the records,
# the suite's checks and the report and csv writes
VERIFY_SPANS = ("flow_build", "fields", "pushes", "records", "checks", "writes")


@contextlib.contextmanager
def _timed(spans: dict, name: str):
    """Add the time.perf_counter span of the block to spans[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        spans[name] += time.perf_counter() - start


def _records(flow, states, spans: dict) -> list:
    records = []
    for state in states:
        with _timed(spans, "records"):
            records.append(flow.record(*state))
    return records


def _verify_descent(flow, certificate, gamma: float, steps: int, spans: dict) -> tuple:
    records = _records(flow, flow.states(gamma, steps), spans)
    with _timed(spans, "checks"):
        report = descent_check(flow, records, gamma, certificate=certificate)
    violations = [
        f"step {row['step']}: KL drop {row['kl_next'] - row['kl']:.6g} exceeds "
        f"bound {row['bound_rhs']:.6g}"
        for row in report["steps"] if not row["ok"]
    ]
    if not report.get("fixed_cap_ok", True):
        violations.append(
            f"step size {gamma:.6g} exceeds the certified fixed cap "
            f"{report['fixed_cap']:.6g}"
        )
    if not report.get("per_step_cap_ok", True):
        worst = min(report["per_step_caps"])
        violations.append(
            f"step size {gamma:.6g} exceeds the smallest per-state cap {worst:.6g}"
        )
    if not report["kl_strictly_decreased"]:
        violations.append("KL did not strictly decrease over the run")
    report["violations"] = violations
    return report, records, bool(report["passed"]) and not violations


def _suite_report(tolerance: float, gamma: float, checks: list, violations: list) -> dict:
    return {"tolerance": tolerance, "gamma": gamma, "checks": checks,
            "violations": violations, "passed": not violations}


def _tenth_states(flow, gamma: float, steps: int):
    """The states the lemmas and bounds suites write: every tenth and the last."""
    return (s for s in flow.states(gamma, steps) if s[0] % 10 == 0 or s[0] == steps)


def _verify_lemmas(flow, gamma: float, steps: int, spans: dict) -> tuple:
    records, checks, violations = [], [], []
    for step, density, field in _tenth_states(flow, gamma, steps):
        with _timed(spans, "records"):
            records.append(flow.record(step, density, field))
        if step % 10:  # the final state is recorded too, but not checked
            continue
        with _timed(spans, "checks"):
            gaps = flow.g_forms_gap(density, field)
        worst = max(gaps.values())
        ok = worst <= LEMMA_GAP_TOL
        checks.append({"step": step, **gaps, "ok": ok})
        if not ok:
            violations.append(
                f"step {step}: field formulas disagree by {worst:.3g} "
                f"(tolerance {LEMMA_GAP_TOL:g})"
            )
    return _suite_report(LEMMA_GAP_TOL, gamma, checks, violations), records, not violations


def _verify_bounds(flow, bundle, gamma: float, steps: int, spans: dict) -> tuple:
    records = _records(flow, _tenth_states(flow, gamma, steps), spans)
    with _timed(spans, "checks"):
        rows = fisher_norm_margins(records, bundle.kernel.bounds(),
                                   flow.map.strong_convexity, flow.grid.dim)
    violations = [
        f"step {row['step']}: field norm {row['field_norm']:.6g} exceeds "
        f"bound {row['bound_rhs']:.6g}"
        for row in rows if row["margin"] < NORM_MARGIN_TOL
    ]
    return _suite_report(NORM_MARGIN_TOL, gamma, rows, violations), records, not violations


def _cmd_verify(args) -> int:
    cfg = load_config(args.target, {})
    # checked without pricing: a certified step size is positive and finite
    for name, value in (("--gamma", args.gamma), ("--gamma-scale", args.gamma_scale)):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    steps = cfg.steps if args.steps is None else args.steps
    if steps < 1:
        raise ConfigError(f"verification needs at least one step, got {steps}")
    bundle = build_runtime(cfg)
    if bundle.kernel.adaptive:
        raise ConfigError(
            "verification suites run in the population limit and need a "
            "fixed-bandwidth kernel, not the median heuristic"
        )
    if args.suite == "lemmas" and bundle.dim != 1:
        raise ConfigError(
            "the lemmas suite compares the primal-chart field form, implemented "
            f"for d=1 only (target has dim {bundle.dim})"
        )
    out_dir = _check_out_dir(args.out, args.force,
                             (REPORT_FILE, VERIFY_CSV_FILE, engine.MANIFEST_FILE))
    gamma = (bundle.gamma if args.gamma is None else args.gamma) * args.gamma_scale
    if not 0.0 < gamma < math.inf:  # the product over- or underflowed
        raise ConfigError(f"resolved step size must be positive and finite, got {gamma}")

    spans = dict.fromkeys(VERIFY_SPANS, 0.0)
    started = time.perf_counter()
    with _timed(spans, "flow_build"):
        flow = MirroredFlow(bundle.mirrored, bundle.kernel,
                            nodes=cfg.grid_nodes, halfwidth=cfg.grid_halfwidth)
    if args.suite == "descent":
        report, records, passed = _verify_descent(flow, bundle.certificate, gamma, steps, spans)
    elif args.suite == "lemmas":
        report, records, passed = _verify_lemmas(flow, gamma, steps, spans)
    else:
        report, records, passed = _verify_bounds(flow, bundle, gamma, steps, spans)
    spans.update(flow.timings)

    report = {
        "suite": args.suite,
        "config": cfg.to_dict(),
        "gamma_scale": args.gamma_scale,
        "grid_nodes": flow.grid.shape,
        **report,
    }
    with _timed(spans, "writes"):
        _write_json(out_dir / REPORT_FILE, report)
        _write_verify_csv(out_dir / VERIFY_CSV_FILE, records, gamma)
    engine.write_manifest(
        out_dir, cfg,
        summary={"suite": args.suite, "passed": passed, "gamma": gamma,
                 "violations": report["violations"]},
        outputs=[REPORT_FILE, VERIFY_CSV_FILE],
        elapsed_s=time.perf_counter() - started,
        timings=spans,
    )
    if passed:
        print(f"verify {args.suite}: all checks passed, report in {out_dir}")
        return 0
    for line in report["violations"]:
        print(f"verify {args.suite}: {line}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# theory


def _cmd_theory(args) -> int:
    if not 0.0 < args.eps < math.inf:
        raise ConfigError(f"--eps needs a finite eps > 0, got {args.eps!r}")
    if args.lam is not None and not 0.0 < args.lam < math.inf:
        raise ConfigError(f"--lambda needs a finite lambda > 0, got {args.lam!r}")
    overrides = {"gamma": "theorem"}
    if args.map is not None:
        overrides["map"] = args.map
    if args.kernel is not None:
        overrides.update(kernel=args.kernel, kernel_params={})
    cfg = load_config(args.target, overrides)
    bundle = build_runtime(cfg)
    if args.lam is not None:  # refused before the certificate is priced
        theory.check_transport_exponent(bundle.profile.p)
    out_dir = None
    if args.out is not None:
        out_dir = _check_out_dir(args.out, args.force, (THEORY_FILE, engine.MANIFEST_FILE))
    certificate = bundle.certificate
    profile = certificate.profile
    if args.lam is not None:
        profile = profile.with_values("user", lam=args.lam)

    dim = certificate.dim
    kernel_bounds = certificate.kernel_bounds
    strong_convexity = certificate.strong_convexity
    kl0 = certificate.kl0_upper
    gamma_general = certificate.fixed_cap
    w_p = theory.w_p_to_point_mass(profile.p, dim)
    gamma_tp = None
    iters_tp = None
    if profile.lam is not None:
        gamma_tp = theory.step_size_bound(profile, kernel_bounds, strong_convexity, dim, kl0,
                                          "tp")
        iters_tp = theory.iteration_estimate(profile, args.eps, dim, mode="tp")

    report = {
        "target": cfg.target,
        "map": cfg.map,
        "kernel": cfg.kernel,
        "dim": dim,
        "profile": profile.to_dict(),
        "kernel_bounds": {"b1": kernel_bounds[0], "b2": kernel_bounds[1]},
        "strong_convexity": strong_convexity,
        "w_p_point_mass": w_p,
        "kl0_upper_bound": kl0,
        "gamma": {"general": gamma_general, "tp": gamma_tp},
        "eps": args.eps,
        "iterations": {
            "general": theory.iteration_estimate(profile, args.eps, dim, mode="general"),
            "tp": iters_tp,
            "note": "order estimate; hidden leading constants set to 1",
        },
    }
    print(_dump_json(report))
    if out_dir is not None:
        started = time.perf_counter()
        _write_json(out_dir / THEORY_FILE, report)
        engine.write_manifest(
            out_dir, cfg,
            summary={"gamma_general": gamma_general, "gamma_tp": gamma_tp},
            outputs=[THEORY_FILE],
            elapsed_s=time.perf_counter() - started,
            timings=None,
        )
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msvgd",
        description="Constrained sampling via mirrored kernel updates: "
                    "particle runs, quadrature verification, and step-size constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="finite-particle run from a config file")
    run.add_argument("--config", required=True,
                     help="config JSON path or preset name")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--gamma", default=None,
                     help="override step size (number or \"theorem\")")
    run.add_argument("--steps", type=int, default=None, help="override step count")
    run.add_argument("--seed", type=int, default=None, help="override seed")
    run.add_argument("--particles", type=int, default=None,
                     help="override particle count")
    run.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="population-limit checks on a grid")
    verify.add_argument("--suite", required=True,
                        choices=("descent", "lemmas", "bounds"))
    verify.add_argument("--target", required=True,
                        help="config JSON path or preset name")
    verify.add_argument("--out", required=True, help="output directory")
    verify.add_argument("--gamma", type=float, default=None,
                        help="absolute step-size override")
    verify.add_argument("--gamma-scale", type=float, default=1.0,
                        help="multiplier on the resolved step size")
    verify.add_argument("--steps", type=int, default=None,
                        help="override the config's step count")
    verify.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    verify.set_defaults(func=_cmd_verify)

    theo = sub.add_parser("theory", help="constants and step-size bounds as JSON")
    theo.add_argument("--target", required=True,
                      help="config JSON path or preset name")
    theo.add_argument("--map", default=None, help="override the mirror map name")
    theo.add_argument("--kernel", default=None, help="override the kernel name")
    theo.add_argument("--lambda", dest="lam", type=float, default=None,
                      help="transport inequality constant")
    theo.add_argument("--eps", type=float, default=1e-2,
                      help="accuracy for the iteration estimates")
    theo.add_argument("--out", default=None,
                      help="also write theory.json into this directory")
    theo.add_argument("--force", action="store_true",
                      help="overwrite existing outputs")
    theo.set_defaults(func=_cmd_theory)
    return parser


def main(argv=None) -> int:
    _pin_heap()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
