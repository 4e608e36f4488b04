"""Record `reference.json`: the fingerprint of every input any seed can draw.

    python3 perfbench/record.py

Runs each instance of each workload, at full and at smoke size, once in a
fresh worker and stores its fingerprint (see `checking.py`) under the
instance's key.  Record only from a commit whose outputs are trusted; the
file in the repository was recorded from the seed commit of the benchmark.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import HERE, ROOT, Run


def main() -> int:
    refs = {}
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for tiny in (False, True):
            tasks = [t for t in workloads.all_instances(workload, tiny)
                     if t["key"] not in refs]
            if not tasks:
                continue
            workdir = tempfile.mkdtemp(prefix="record-", dir=scratch)
            try:
                run = Run(Path(workdir), tasks, HERE / "reference.json")
                res = run.one_pass("record", timeout=1800)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res is None:
                print(f"record: {workload} pass failed", file=sys.stderr)
                return 1
            for row in res["tasks"]:
                if "error" in row or row["fp"]["rc"] != 0:
                    print(f"record: {row['id']} failed: {row}",
                          file=sys.stderr)
                    return 1
                refs[row["key"]] = row["fp"]
            print(f"{workload}{' (smoke)' if tiny else ''}: "
                  f"{len(tasks)} inputs in {res['wall_s']:.1f} s")
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in sorted(refs.items())]
    (HERE / "reference.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n")
    scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
