"""Run the msvgd command line inside this process and report when it started
its main loop.

    python3 perfbench/launch.py --mode full --result R.json -- run --config C --out O

The arguments after ``--`` go to ``msvgd.cli.main`` unchanged, so the child
behaves as ``python3 -m msvgd.cli ...`` does.  The package is imported from
``src/`` of the checkout this file lives in, never from an installed copy.

Modes:
  full   run the command; record the time of the first main-loop step
         (``engine.msvgd_step`` for ``run``, ``gridflow.pushforward_step``
         for ``verify``).
  probe  exit at that first step: a set-up measurement only.
  trace  as full, and also wrap the public callables of each module in
         spans (see INSTRUMENTED) and write the spans and counts out.

The result file is JSON with ``first_step`` (a ``time.monotonic`` reading,
null when no step ran) and, in trace mode, ``spans``, ``counts`` and
``missing`` (instrumentation targets that no longer exist).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402  (sibling module, found through sys.path[0])

FIRST_STEP = (("msvgd.engine", "msvgd_step"), ("msvgd.gridflow", "pushforward_step"))


def _kernel_work(args, result):
    return {"kernels.pair_evals": len(args[1]) * len(args[2]), "kernels.bytes_out": result.nbytes}


# Module-level functions: (module, attribute, span name, work counter).  Each
# is replaced in every msvgd module that binds it by name, so `cli`'s
# `from .config import build_runtime` and `engine`'s `theory.a_n` are both seen.
INSTRUMENTED_FUNCTIONS = (
    ("msvgd.config", "build_runtime", "config.build_runtime"),
    ("msvgd.engine", "init_ensemble", "engine.init_ensemble"),
    ("msvgd.engine", "update_field", "engine.update_field"),
    ("msvgd.engine", "msvgd_step", "engine.msvgd_step"),
    ("msvgd.engine", "write_manifest", "io.write_manifest"),
    ("msvgd.theory", "stein_fisher_particles", "theory.stein_fisher_particles"),
    ("msvgd.theory", "a_n", "theory.a_n"),
    ("msvgd.theory", "c_pi_p", "theory.c_pi_p"),
    ("msvgd.theory", "kl0_upper_bound", "theory.kl0_upper_bound"),
    ("msvgd.gridflow", "pushforward_step", "gridflow.pushforward_step"),
    ("msvgd.gridflow", "descent_check", "gridflow.descent_check"),
    ("msvgd.cli", "_write_json", "io.write_json"),
    ("msvgd.cli", "_write_verify_csv", "io.write_verify_csv"),
)
# Methods of one class: (module, class, method, span name).
INSTRUMENTED_METHODS = (
    ("msvgd.gridflow", "MirroredFlow", "__init__", "gridflow.MirroredFlow.init"),
    ("msvgd.gridflow", "MirroredFlow", "g_field", "gridflow.g_field"),
    ("msvgd.gridflow", "MirroredFlow", "kl", "gridflow.kl"),
    ("msvgd.gridflow", "MirroredFlow", "stein_fisher", "gridflow.stein_fisher"),
    ("msvgd.gridflow", "FieldOnGrid", "__call__", "gridflow.FieldOnGrid.call"),
    ("msvgd.gridflow", "FieldOnGrid", "jacobian", "gridflow.FieldOnGrid.jacobian"),
    ("msvgd.engine", "_RunWriter", "log", "io.RunWriter.log"),
    ("msvgd.engine", "_RunWriter", "close", "io.RunWriter.close"),
)
# Methods wrapped on every class of a module that defines them:
# (module, layer, method names, work counter).
INSTRUMENTED_LAYERS = (
    ("msvgd.kernels", "kernels", ("gram", "grad1_gram", "grad12_gram"), _kernel_work),
    ("msvgd.mirrors", "mirrors", ("grad_psi_star", "hess_psi_inv", "div_hess_psi_inv"), None),
    ("msvgd.targets", "targets", ("grad_log_density", "potential", "grad_potential"), None),
)


def _rebind(old, new) -> None:
    """Replace every module-level binding of ``old`` in the msvgd package."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "msvgd" or name.startswith("msvgd.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every instrumented callable; return the ones that were not found."""
    missing = []
    for module_name, attr, span in INSTRUMENTED_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        _rebind(original, tracer.wrap(original, span))
    for module_name, cls_name, method, span in INSTRUMENTED_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or method not in vars(cls):
            missing.append(f"{module_name}.{cls_name}.{method}")
            continue
        setattr(cls, method, tracer.wrap(vars(cls)[method], span))
    for module_name, layer, methods, work in INSTRUMENTED_LAYERS:
        module = importlib.import_module(module_name)
        classes = [value for value in vars(module).values()
                   if isinstance(value, type) and value.__module__ == module_name]
        for method in methods:
            owners = [cls for cls in classes if callable(vars(cls).get(method))]
            if not owners:
                missing.append(f"{module_name}.*.{method}")
            for cls in owners:
                setattr(cls, method, tracer.wrap(vars(cls)[method], f"{layer}.{method}", work))
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("full", "probe", "trace"), required=True)
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the msvgd command line")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import msvgd.cli

    package = Path(msvgd.cli.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"launch: msvgd was imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    result = {"first_step": None}
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        result["missing"] = instrument(tracer)

    def write_result() -> None:
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")

    def mark_first_step(module_name: str, attr: str) -> None:
        inner = getattr(importlib.import_module(module_name), attr)

        def first_step(*call_args, **call_kwargs):
            if result["first_step"] is None:
                result["first_step"] = time.monotonic()
                if args.mode == "probe":
                    write_result()
                    os._exit(0)
            _rebind(first_step, inner)
            return inner(*call_args, **call_kwargs)

        _rebind(inner, first_step)

    for module_name, attr in FIRST_STEP:
        mark_first_step(module_name, attr)

    try:
        return msvgd.cli.main(cli_args)
    finally:
        write_result()


if __name__ == "__main__":
    sys.exit(main())
