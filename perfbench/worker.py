"""One benchmark pass in a fresh, single-threaded interpreter.

    python3 worker.py PLAN RESULT MODE CACHE

MODE is "plain", "trace" or "record".  The worker imports the program,
runs every task of PLAN in order with stdout captured, and only then checks
the outputs against the reference (or, in record mode, writes their
fingerprints).  Between tasks, at most every CAL_EVERY_S of task time and
after the last task, it times a fixed calibration loop, so that `run.py`
can scale the pass's times to a fixed machine speed.  It writes RESULT as
JSON; `run.py` reads it.  The clock is `time.monotonic`, which the parent
shares, so the parent can time set-up from before it started this process.
"""

import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

CAL_EVERY_S = 0.25   # least task time between two calibration samples


def _run(task: dict, cache: str, workers: str) -> tuple:
    """(exit code, output text) of one task."""
    if "lib" in task:
        import dataclasses
        name, args, kwargs = task["lib"]
        fn = getattr(sys.modules["heightlab"], name)
        result = fn(*args, **kwargs)
        doc = dataclasses.asdict(result)
        doc = {k: ({str(a): b for a, b in v.items()} if isinstance(v, dict)
                   else v) for k, v in doc.items()}
        return 0, json.dumps(doc, sort_keys=True) + "\n"
    argv = [cache if a == "<cache>" else workers if a == "<workers>" else a
            for a in task["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sys.modules["heightlab.cli"].main(argv)
    return rc, buf.getvalue()


def _calibration() -> float:
    """Seconds for a fixed loop over integers, dicts, fractions and a numpy
    array, like the program's mix, that never touches the program; the
    collector is off so the program's heap cannot slow it.  It measures
    the machine's speed."""
    import numpy as np
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(1, 20000):
            acc += math.gcd(i * 7919, 104729 + i)
            table[i % 61] = (acc, i)
        f = Fraction(0)
        for i in range(1, 400):
            f += Fraction(1, i)
        a = np.arange(1, 50_001, dtype=np.int64)
        acc += int(np.gcd(a * a, 7919).sum())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    plan_path, result_path, mode, cache = sys.argv[1:5]
    import heightlab.cli  # noqa: F401  (the program's own set-up)
    with open(plan_path) as fh:
        plan = json.load(fh)
    origin = os.path.realpath(sys.modules["heightlab"].__file__)
    if not origin.startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"perfbench: heightlab imported from {origin}, not from "
              f"{plan['src']}", file=sys.stderr)
        return 3
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workers = str(plan["workers"])
    runs = []
    t_first = t_cal = time.monotonic()
    cal = []
    for task in plan["tasks"]:
        t0 = time.monotonic()
        err = None
        try:
            rc, text = _run(task, cache, workers)
        except Exception:  # a task that raises is a failed task
            rc, text, err = None, "", traceback.format_exc(limit=3)
        runs.append((task, rc, text, err, time.monotonic() - t0))
        if (time.monotonic() - t_cal >= CAL_EVERY_S
                or task is plan["tasks"][-1]):
            cal.append(_calibration())
            t_cal = time.monotonic()

    import checking
    refs = {}
    if mode != "record":
        with open(plan["reference"]) as fh:
            refs = json.load(fh)
    tasks = []
    for task, rc, text, err, secs in runs:
        row = {"id": task["id"], "key": task["key"], "s": secs}
        if err is not None:
            row["error"] = err.strip().splitlines()[-1]
        else:
            try:
                fp = checking.fingerprint(rc, text)
            except ValueError as exc:  # includes JSON decode errors
                fp = {"rc": rc, "sha": "", "exact": f"unparsable: {exc}"}
            if mode == "record":
                row["fp"] = fp
            elif task["key"] not in refs:
                row["error"] = "no reference output for this input"
            else:
                ref = refs[task["key"]]
                row["byte_identical"] = fp["sha"] == ref["sha"]
                why = checking.compare(fp, ref)
                if why is not None:
                    row["error"] = why
            if tracer is not None and "argv" in task:
                tracer.extra["cli.main.out_bytes"] += len(text.encode())
        tasks.append(row)
    kb = 1024.0
    result = {
        "t_first": t_first,
        "wall_s": sum(secs for *_, secs in runs),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        / kb,
        "tasks": tasks,
        "cal": cal,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["missing_hooks"] = tracer.missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
