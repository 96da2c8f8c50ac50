#!/usr/bin/env python3
"""Sweep step-size multipliers on a quadrature flow and report which ones
keep the per-step descent inequality and the certified caps intact.

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
from msvgd.gridflow import MirroredFlow, descent_check


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
    certificate = bundle.certificate

    rows = []
    for mult in args.multipliers:
        gamma = mult * bundle.gamma
        try:
            out = flow.run(gamma, args.steps)
            report = descent_check(flow, out["records"], gamma, certificate=certificate)
            row = {
                "multiplier": mult,
                "gamma": gamma,
                "kl_first": report["kl_first"],
                "kl_last": report["kl_last"],
                "descent_ok": report["descent_ok"],
                "fixed_cap_ok": report.get("fixed_cap_ok"),
                "per_step_cap_ok": report.get("per_step_cap_ok"),
                "passed": report["passed"],
            }
        except NumericsError as exc:
            row = {"multiplier": mult, "gamma": gamma, "kl_first": None,
                   "kl_last": None, "descent_ok": False, "fixed_cap_ok": None,
                   "per_step_cap_ok": None, "passed": False}
            print(f"  x{mult:g}: numeric abort: {exc}")
        rows.append(row)
        if row["kl_last"] is not None:
            print(f"  x{mult:<6g} gamma={gamma:.3e}  KL {row['kl_first']:.4f} -> "
                  f"{row['kl_last']:.4f}  descent={row['descent_ok']}  "
                  f"caps=({row['fixed_cap_ok']}, {row['per_step_cap_ok']})")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
