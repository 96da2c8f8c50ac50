#!/usr/bin/env python3
"""Sweep step-size multipliers on a quadrature flow and report which ones
keep the per-step descent inequality and the certified caps intact.

Each multiplier's ``passed`` is ``msvgd verify --suite descent``'s verdict
at that step size: both read gridflow.descent_suite.

Usage:
    python3 scripts/descent_study.py                       # quartic preset
    python3 scripts/descent_study.py --multipliers 1 5 20 --steps 50
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from msvgd.config import build_runtime, load_config
from msvgd.errors import NumericsError
from msvgd.gridflow import MirroredFlow, descent_suite

COLUMNS = ("kl_first", "kl_last", "descent_ok", "fixed_cap_ok", "per_step_cap_ok", "passed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="quartic-1d-descent",
                        help="config path or preset name")
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--multipliers", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0, 5.0, 10.0])
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    cfg = load_config(args.config, {})
    bundle = build_runtime(cfg)
    flow = MirroredFlow(bundle.mirrored, bundle.kernel,
                        nodes=cfg.grid_nodes, halfwidth=cfg.grid_halfwidth)
    print(f"base step size: {bundle.gamma:.6g} ({bundle.gamma_mode})")

    rows = []
    for mult in args.multipliers:
        gamma = mult * bundle.gamma
        try:
            report = descent_suite(flow, gamma, args.steps, bundle.certificate)[0]
        except NumericsError as exc:
            report = {"descent_ok": False, "passed": False}
            print(f"  x{mult:g}: numeric abort: {exc}")
        else:
            print(f"  x{mult:<6g} gamma={gamma:.3e}  KL {report['kl_first']:.4f} -> "
                  f"{report['kl_last']:.4f}  descent={report['descent_ok']}  "
                  f"caps=({report.get('fixed_cap_ok')}, {report.get('per_step_cap_ok')})  "
                  f"passed={report['passed']}")
        rows.append({"multiplier": mult, "gamma": gamma,
                     **{key: report.get(key) for key in COLUMNS}})

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
