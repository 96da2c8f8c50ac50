"""The msvgd benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each workload runs the msvgd command line as a child process, one at a time
(a closed loop with one client).  ``--trace 0`` times untraced children for
the end-to-end metrics; ``--trace 1`` runs one untraced and two traced
children for the per-layer metrics.  Every child's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import EXACT_COUNTS, layer_metrics, loop_accounting
from workloads import BY_NAME, WORKLOADS, Workload, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
REQUIRED = ("BENCHMARK.json", "src/msvgd/cli.py", "presets")
# A run ends within this many seconds, whatever its --seconds.
RUN_BUDGET_S = 170.0
# Set-up probes per run, while they take at most this share of --seconds.
SETUP_PROBES = 8
PROBE_SHARE = 0.15


@dataclass
class Child:
    """One finished child process."""

    mode: str
    spawned: float
    wall_s: float
    setup_s: float | None
    rss_mb: float
    out_dir: Path
    result: dict
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _spawn(workload: Workload, config_path: Path, out_dir: Path, mode: str,
           deadline: float) -> Child:
    result_path = out_dir.with_suffix(".launch.json")
    log_path = out_dir.with_suffix(".log")
    argv = [sys.executable, str(HERE / "launch.py"), "--mode", mode,
            "--result", str(result_path), "--",
            *workload.cli_args(config_path, out_dir)]
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - spawned, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {"first_step": None}
    first = result["first_step"]
    child = Child(mode, spawned, ended - spawned,
                  None if first is None else first - spawned,
                  usage.ru_maxrss / 1024.0, out_dir, result)
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        child.problems.append(f"exit code {code}: {' | '.join(tail)}")
    if first is None:
        child.problems.append("the main loop never started")
    return child


def _check(workload: Workload, cfg: dict, child: Child) -> None:
    if child.problems or child.mode == "probe":
        return
    try:
        child.problems += workload.check(cfg, child.out_dir)
        child.result["pinned"] = digest(child.out_dir / workload.pinned_output)
        child.result["quality"] = workload.quality(child.out_dir)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        child.problems.append(f"unreadable outputs: {exc!r}")


def _check_identical(children: list[Child], what: str) -> str:
    """Fail every run whose pinned output differs from the first run's."""
    good = [c for c in children if c.ok]
    if len(good) < 2:
        return f"{what}: {len(good)} checked output set(s), nothing to compare"
    reference = good[0].result["pinned"]
    for child in good[1:]:
        if child.result["pinned"] != reference:
            child.problems.append(f"{what}: output differs from the first run's")
    same = all(c.result["pinned"] == reference for c in good)
    return f"{what}: {'identical' if same else 'DIFFERENT'} across {len(good)} runs"


def _median(values):
    return statistics.median(values) if values else None


def _end_to_end(steps: int, children: list[Child]) -> dict:
    """End-to-end metrics from checked children only: a failed run never
    contributes a time."""
    full = [c for c in children if c.ok and c.mode != "probe"]
    return {
        "wall_s": _median([c.wall_s for c in full]),
        "setup_s": _median([c.setup_s for c in children if c.ok]),
        "steps_per_s": _median([steps / (c.wall_s - c.setup_s) for c in full]),
        "peak_rss_mb": _median([c.rss_mb for c in full]),
    }


def _traced(spawn) -> tuple[list[str], dict]:
    """One untraced and two traced children: per-layer metrics and checks."""
    untraced = spawn("full")
    traced = [spawn("trace"), spawn("trace")]
    notes = [_check_identical([untraced, *traced], "traced vs untraced outputs")]
    if not (untraced.ok and all(c.ok for c in traced)):
        return notes, {}
    layers = [_layer(c) for c in traced]
    # times are medians of the two traced runs; counts are exact
    per_layer = {key: value if isinstance(value, int)
                 else statistics.median(layer[key] for layer in layers)
                 for key, value in layers[0].items()}
    per_layer["trace.overhead_frac"] = (
        statistics.median(c.wall_s for c in traced) / untraced.wall_s - 1.0)

    repeats = {key: layers[0][key] == layers[1][key] for key in EXACT_COUNTS}
    for key, same in repeats.items():
        if not same:
            traced[1].problems.append(
                f"{key} did not repeat: {layers[0][key]} then {layers[1][key]}")
    notes.append("exact counts across traced runs: " + ", ".join(
        f"{key}={layers[0][key]} {'repeats' if same else 'DIFFERS'}"
        for key, same in repeats.items()))

    first = traced[0]
    loop_s = first.wall_s - first.setup_s
    shares = loop_accounting(first.result["spans"],
                             (first.spawned + first.setup_s, first.spawned + first.wall_s))
    notes.append(f"first traced run, wall_s - setup_s = {loop_s:.3f} s = " + " + ".join(
        f"{layer} {seconds:.3f}" for layer, seconds in shares.items())
        + f" + uncovered {loop_s - sum(shares.values()):.3f}")
    missing = sorted({m for c in traced for m in c.result["missing"]})
    if missing:
        notes.append("instrumentation targets not found: " + ", ".join(missing))
    return notes, per_layer


def _untraced(spawn, steps: int, seconds: float) -> tuple[list[str], dict]:
    """Set-up probes, then full children until ``seconds`` is used."""
    started = time.monotonic()
    children = []
    for index in range(SETUP_PROBES):
        if index and time.monotonic() - started >= PROBE_SHARE * seconds:
            break
        children.append(spawn("probe"))
    durations = []
    while True:
        children.append(spawn("full"))
        durations.append(children[-1].wall_s)
        elapsed = time.monotonic() - started
        if elapsed + statistics.median(durations) > min(seconds, RUN_BUDGET_S / 2):
            break
    notes = [_check_identical([c for c in children if c.mode == "full"],
                              "outputs of one input")]
    return notes, _end_to_end(steps, children)


def _layer(child: Child) -> dict:
    """Per-layer metrics of one traced child, with the bytes it wrote."""
    metrics = layer_metrics(child.result["spans"], child.result["counts"],
                            child.setup_s, child.wall_s, child.spawned)
    metrics["io.bytes_written"] = sum(p.stat().st_size for p in child.out_dir.iterdir())
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        cfg = workload.config(ROOT, seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        deadline = time.monotonic() + RUN_BUDGET_S
        children: list[Child] = []

        def spawn(mode: str) -> Child:
            child = _spawn(workload, config_path, work / f"{mode}-{len(children)}",
                           mode, deadline)
            _check(workload, cfg, child)
            children.append(child)
            return child

        if trace:
            notes, metrics = _traced(spawn)
        else:
            notes, metrics = _untraced(spawn, cfg["steps"], seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [c for c in children if not c.ok]
    quality = {}
    checked = [c for c in children if c.ok and "quality" in c.result]
    for key in (checked[0].result["quality"] if checked else {}):
        quality[key] = statistics.median(c.result["quality"][key] for c in checked)
    return {
        "workload": workload.name,
        "seed": seed,
        "steps": cfg["steps"],
        "children": {mode: sum(c.mode == mode for c in children)
                     for mode in ("probe", "full", "trace")},
        "attempted": len(children),
        "failed": len(failed),
        "problems": [f"{c.mode} {c.out_dir.name}: {p}" for c in failed for p in c.problems],
        "notes": notes,
        "metrics": metrics,
        "quality": quality,
    }


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    """What the numbers depend on, recorded as found; nothing is changed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _report(outcome: dict, units: dict) -> None:
    """Human-readable lines for one workload."""
    print(f"== {outcome['workload']} (seed {outcome['seed']}, {outcome['steps']} steps; "
          f"children {outcome['children']})")
    for name, value in outcome["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units.get(name, '')}")
    failed_frac = outcome["failed"] / outcome["attempted"]
    print(f"  {'failed_frac':40s} {failed_frac:>14.6g} ({outcome['failed']} of "
          f"{outcome['attempted']} runs)")
    for name, value in outcome["quality"].items():
        print(f"  {name:40s} {value:>14.6g} (quality, reported, not gated)")
    for note in outcome["notes"]:
        print(f"  check: {note}")
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    absent = [name for name in REQUIRED if not (ROOT / name).exists()]
    if absent:
        print(f"perfbench: {ROOT} is not an msvgd checkout (missing {', '.join(absent)})",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print("env: " + json.dumps(environment(), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    outcomes = []
    for workload in workloads:
        outcome = run_workload(workload, args.seed, seconds, bool(args.trace))
        _report(outcome, units)
        outcomes.append(outcome)

    correct = all(o["failed"] == 0 and set(o["metrics"]) == set(units)
                  and None not in o["metrics"].values() for o in outcomes)
    for o in outcomes:
        undeclared = set(o["metrics"]) ^ set(units)
        if o["metrics"] and undeclared:
            print(f"  FAILED: metrics differ from BENCHMARK.json: {sorted(undeclared)}")

    def entry(name: str, value) -> dict:
        return {"value": value, "unit": units.get(name.rsplit(":", 1)[-1], "")}

    if len(outcomes) == 1:
        metrics = {name: entry(name, v) for name, v in outcomes[0]["metrics"].items()}
    else:
        metrics = {f"{o['workload']}:{name}": entry(f"{o['workload']}:{name}", v)
                   for o in outcomes for name, v in o["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
