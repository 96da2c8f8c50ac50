#!/usr/bin/env python3
"""Short Dirichlet-on-the-simplex particle run with a moment check.

Runs the entropic-map sampler for a few hundred steps and compares the
particle mean against the analytic Dirichlet mean alpha_i / sum(alpha).

Usage:
    python3 scripts/simplex_demo.py [--steps 500] [--particles 200]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from msvgd.config import build_runtime, load_config
from msvgd.engine import init_ensemble, msvgd_step, stein_fisher_particles, update_field


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--particles", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    cfg = load_config("dirichlet-simplex-d2",
                      {"steps": args.steps, "seed": args.seed, "particles": args.particles})
    bundle = build_runtime(cfg)

    ens = init_ensemble(cfg.particles, bundle.dim, bundle.mirror_map, cfg.seed)
    field = update_field(ens, bundle.mirrored, bundle.kernel)
    fisher0 = stein_fisher_particles(ens, bundle.kernel, field)
    for _ in range(cfg.steps):
        ens = msvgd_step(ens, field, bundle.gamma, bundle.mirror_map)
        field = update_field(ens, bundle.mirrored, bundle.kernel)
    fisher1 = stein_fisher_particles(ens, bundle.kernel, field)

    conc = np.asarray(cfg.target_params["concentration"], dtype=float)
    analytic = conc[:-1] / conc.sum()
    sample = ens.primal.mean(axis=0)
    last = 1.0 - ens.primal.sum(axis=1)

    print(f"steps={cfg.steps} particles={cfg.particles} gamma={bundle.gamma}")
    print(f"stein_fisher: {fisher0:.6f} -> {fisher1:.6f}")
    print(f"particle mean:  {np.array2string(sample, precision=4)}")
    print(f"analytic mean:  {np.array2string(analytic, precision=4)}")
    print(f"feasible: min coord {ens.primal.min():.4g}, "
          f"min implicit coord {last.min():.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
