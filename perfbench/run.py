"""The heightlab benchmark.

    python3 perfbench/run.py --workload counts --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  The run builds its inputs from the seed, then starts one
fresh single-threaded worker process per pass (`worker.py`), and keeps
starting passes until --seconds have gone by.  Each pass imports the
program and runs the whole task list through `heightlab.cli.main(argv)` and
public library functions; every output is checked against
`reference.json`.

With --trace 0 the metrics are end to end, each the median over passes:
  setup_s      from starting the worker to the start of its first task
  wall_s       the sum of the pass's task times
  peak_rss_mb  peak resident memory of the worker plus its children
Both times are scaled to a reference machine speed (see CAL_REF_S).
With --trace 1 the run alternates plain and traced passes and reports the
per-layer metrics of `tracing.PER_LAYER` (medians over traced passes) and
trace.overhead_ratio, traced over plain wall_s.

The last line of stdout is the result object; the line before it carries
quartiles, sample counts, per-task times, the failure ratio and the share
of byte-identical outputs.  --smoke runs one pass at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 165.0   # the run must end within 180 s, however slow a pass
END_TO_END_UNITS = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# The machine's speed drifts by 10-40% over seconds to minutes under its
# neighbours' load, and a fixed loop slows just as the program does.  Times
# are therefore scaled by CAL_REF_S over the calibration loop's median time in
# the same pass: seconds on a machine where that loop takes CAL_REF_S.
CAL_REF_S = 0.010


def _hermetic_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HEIGHTLAB_CACHE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(workdir), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Run:
    """Inputs and worker processes of one benchmark run."""

    def __init__(self, workdir: Path, tasks: list, reference: Path):
        self.workdir = workdir
        self.env = _hermetic_env(workdir)
        self.tasks = tasks
        self.n_passes = 0
        plan = {"src": str(ROOT / "src"), "reference": str(reference),
                "workers": min(2, os.cpu_count() or 1), "tasks": tasks}
        for task in tasks:
            for name, text in task["files"].items():
                (workdir / name).write_text(text)
        (workdir / "plan.json").write_text(json.dumps(plan))

    def warm_up(self) -> None:
        """Import the program once, unmeasured, so byte-code is compiled."""
        subprocess.run([sys.executable, "-c", "import heightlab.cli"],
                       cwd=self.workdir, env=self.env, check=True,
                       stdin=subprocess.DEVNULL, timeout=120)

    def one_pass(self, mode: str, timeout: float) -> dict | None:
        """Run one worker; None if it failed or ran out of time."""
        self.n_passes += 1
        result = self.workdir / f"result-{self.n_passes}.json"
        cache = f"cache-{self.n_passes}"
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "plan.json",
             result.name, mode, cache],
            cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"perfbench: {mode} pass killed after {timeout:.0f} s",
                  file=sys.stderr)
            return None
        if rc != 0 or not result.exists():
            print(f"perfbench: {mode} pass exited with {rc}", file=sys.stderr)
            return None
        out = json.loads(result.read_text())
        out["raw_setup_s"] = out["t_first"] - t_spawn
        out["raw_wall_s"] = out["wall_s"]
        if out["cal"]:
            out["calibration_s"] = statistics.median(out["cal"])
            speed = CAL_REF_S / out["calibration_s"]
            out["setup_s"] = out["raw_setup_s"] * speed
            out["wall_s"] = out["raw_wall_s"] * speed
        return out


def _summary(values: list) -> dict:
    """Median, quartiles and sample count (p90 only with >= 10 beyond it)."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def _tally(passes: list, n_tasks: int) -> tuple:
    """(attempted, failed, byte-identical, errors) over all passes."""
    attempted = failed = identical = 0
    errors: dict = {}
    for res in passes:
        attempted += n_tasks
        if res is None:
            failed += n_tasks
            errors.setdefault("worker failed", "")
            continue
        for row in res["tasks"]:
            identical += bool(row.get("byte_identical"))
            if "error" in row:
                failed += 1
                errors.setdefault(row["id"], row["error"])
    return attempted, failed, identical, errors


def measure(run: Run, seconds: float, trace: bool, smoke: bool) -> tuple:
    """Run passes until `seconds` have gone by; return (details, result)."""
    start = time.monotonic()
    plain, traced, all_passes = [], [], []
    while True:
        for mode in ("plain", "trace") if trace else ("plain",):
            left = HARD_LIMIT_S - (time.monotonic() - start)
            res = run.one_pass(mode, left)
            all_passes.append(res)
            if res is not None:
                (traced if mode == "trace" else plain).append(res)
        elapsed = time.monotonic() - start
        per_round = elapsed / max(1, len(all_passes)) * (2 if trace else 1)
        if (smoke or elapsed >= seconds
                or elapsed + per_round > HARD_LIMIT_S):
            break
    attempted, failed, identical, errors = _tally(all_passes, len(run.tasks))
    details = {
        "passes": len(all_passes),
        "fail_ratio": failed / attempted,
        "byte_identical": f"{identical}/{attempted}",
        "errors": errors,
    }
    metrics = {}
    if plain:
        task_s: dict = {}
        for res in plain:
            for row in res["tasks"]:
                task_s.setdefault(row["id"], []).append(row["s"])
        details["task_s"] = {k: statistics.median(v)
                             for k, v in task_s.items()}
        for name, key in (("setup_s", "setup_s"), ("wall_s", "wall_s"),
                          ("raw_setup_s", "raw_setup_s"),
                          ("raw_wall_s", "raw_wall_s"),
                          ("calibration_s", "calibration_s"),
                          ("peak_rss_mb", "rss_mb")):
            details[name] = _summary([r[key] for r in plain])
    if trace:
        if traced and plain:
            metrics = _per_layer(traced, details)
            metrics["trace.overhead_ratio"] = (
                statistics.median(r["wall_s"] for r in traced)
                / details["wall_s"]["median"])
    elif plain:
        metrics = {name: details[name]["median"]
                   for name, _ in END_TO_END_UNITS}
    units = dict(END_TO_END_UNITS) if not trace else {
        name: unit for name, unit, _ in tracing.PER_LAYER}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return details, result


def _per_layer(traced: list, details: dict) -> dict:
    missing = sorted({m for r in traced for m in r["missing_hooks"]})
    names = [name for name, _, _ in tracing.PER_LAYER
             if name != "trace.overhead_ratio"]
    absent = set(tracing.missing_metrics(missing, names))
    details["missing_metrics"] = sorted(absent)
    return {name: statistics.median(r["trace"].get(name, 0) for r in traced)
            for name in names if name not in absent}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass (one pair with --trace 1) at tiny sizes")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heightlab" / "cli.py").is_file():
        print(f"perfbench: no heightlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tasks = workloads.plan(args.workload, args.seed, tiny=args.smoke)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        run = Run(workdir, tasks, args.reference.resolve())
        try:
            run.warm_up()
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"perfbench: cannot import heightlab: {exc}",
                  file=sys.stderr)
            return 1
        details, result = measure(run, args.seconds, bool(args.trace),
                                  args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, **details}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
