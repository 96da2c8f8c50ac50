"""The benchmark's workloads: generated configs and the checks on their outputs.

Each workload is one msvgd command line on a config generated from a preset
in ``presets/`` plus fixed overrides, with the benchmark's ``--seed`` as the
config seed.  The particle runs draw their initial cloud from that seed.  The
quadrature flow of ``verify`` consumes no randomness: its inputs are the same
for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                       # "run" or "verify"
    preset: str
    overrides: dict = field(default_factory=dict)
    decay_rule: bool = False           # acceptance criterion 6 on diagnostics.csv

    def config(self, root: Path, seed: int) -> dict:
        raw = json.loads((root / "presets" / f"{self.preset}.json").read_text(encoding="utf-8"))
        raw.update(self.overrides)
        raw["seed"] = seed
        return raw

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        if self.command == "run":
            return ["run", "--config", str(config_path), "--out", str(out_dir)]
        return ["verify", "--suite", "descent", "--target", str(config_path),
                "--out", str(out_dir)]

    @property
    def pinned_output(self) -> str:
        """The file that must be byte-identical across runs of one input."""
        return "trajectory.csv" if self.command == "run" else "verify.csv"

    def check(self, cfg: dict, out_dir: Path) -> list[str]:
        """Problems with a finished run's outputs; empty when they pass."""
        if self.command == "run":
            return _check_particles(cfg, out_dir, self.decay_rule)
        return _check_verify(out_dir)

    def quality(self, out_dir: Path) -> dict:
        """Sampling quality of a finished run, reported but not gated."""
        if self.command == "run":
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            return {"final_stein_fisher": manifest["summary"]["stein_fisher_final"]}
        rows = _read_rows(out_dir / "verify.csv")[1]
        return {"final_kl": float(rows[-1][1]), "final_stein_fisher": float(rows[-1][2])}


WORKLOADS = (
    Workload(
        "particles-simplex",
        "step-bound run with a small working set, where per-call overhead in "
        "update_field dominates; the fused kernel pass must speed it up",
        "run", "dirichlet-simplex-d2", decay_rule=True,
    ),
    Workload(
        "particles-box-snapshot",
        "same kernels with n x n x d temporaries about 37x larger and a "
        "snapshot every step, so stein_fisher_particles and trajectory I/O dominate",
        "run", "truncated-gaussian-box-d3",
        {"particles": 1000, "steps": 8, "cadence": 1},
    ),
    Workload(
        "verify-quartic-1d",
        "the grid path with no particles: g_field, 1-D bisection pushforward "
        "and two flow builds on 4096 nodes",
        "verify", "quartic-1d-descent",
    ),
    Workload(
        "verify-simplex-2d",
        "the only 2-D c_pi_p quadrature (inside set-up) and the 2-D "
        "bilinear/Newton pushforward on a 48x48 grid",
        "verify", "dirichlet-simplex-d2",
        {"gamma": "theorem", "grid_nodes": 48, "steps": 4},
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_particles(cfg: dict, out_dir: Path, decay_rule: bool) -> list[str]:
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    summary = manifest["summary"]
    if summary["abort"] is not None or summary["steps_completed"] != cfg["steps"]:
        problems.append(f"run stopped at step {summary['steps_completed']} "
                        f"of {cfg['steps']}: {summary['abort']}")

    header, rows = _read_rows(out_dir / "trajectory.csv")
    dim = (len(header) - 2) // 2
    theta = np.array([[float(v) for v in row[2:2 + dim]] for row in rows])
    if cfg["map"] == "entropic-simplex":
        feasible = np.all(theta > 0.0, axis=1) & (theta.sum(axis=1) < 1.0)
    else:
        lo = np.asarray(cfg["target_params"]["lo"], dtype=float)
        hi = np.asarray(cfg["target_params"]["hi"], dtype=float)
        feasible = np.all((theta > lo) & (theta < hi), axis=1)
    if not feasible.all():
        problems.append(f"{int((~feasible).sum())} of {len(rows)} trajectory rows "
                        "are not strictly feasible")

    if decay_rule:
        _, diag = _read_rows(out_dir / "diagnostics.csv")
        steps = [int(row[0]) for row in diag]
        fisher = np.array([float(row[1]) for row in diag])
        averages = np.cumsum(fisher) / np.arange(1, len(fisher) + 1)
        tail = np.array([avg for step, avg in zip(steps, averages) if step >= 100])
        if not fisher[-1] < 0.1 * fisher[0]:
            problems.append(f"Stein-Fisher fell only from {fisher[0]:.4g} to {fisher[-1]:.4g}")
        if not np.all(np.diff(tail) <= 0.0):
            problems.append("running average of Stein-Fisher rises after step 100")
        if steps[-1] != cfg["steps"]:
            problems.append(f"last logged step is {steps[-1]}, not {cfg['steps']}")
    return problems


def _check_verify(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    problems = [f"violation: {line}" for line in report["violations"]]
    if report["passed"] is not True:
        problems.append("report.json says the descent check did not pass")
    return problems
