#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, plain and traced, and checks that each
prints exactly the metrics BENCHMARK.json names and passes its rechecks.
Then shows, in copies of the benchmark under .bench_out/, that a corrupted
recorded answer lowers ok_frac and gives a nonzero exit, and that a
directory without the package's sources gives a nonzero exit and no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int = 0, root: Path = ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def copy_tree(name: str, with_sources: bool) -> Path:
    """A fresh copy of BENCHMARK.json and perfbench/ under .bench_out/,
    with src/ linked to the real sources or left out."""
    root = OUT / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def flip_last(s: str) -> str:
    return s[:-1] + ("1" if s[-1] == "0" else "0")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    problems = []
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(w, trace)
            names = {m["name"] for m in SPEC[key]}
            if code != 0 or res is None or not res["correct"] or res["failed"]:
                problems.append(f"{w} trace {trace}: exit {code}, result {res}")
            elif set(res["metrics"]) != names:
                problems.append(f"{w} trace {trace}: metrics {sorted(set(res['metrics']) ^ names)} "
                                "differ from BENCHMARK.json")

    cases = {
        "solve": lambda a: a["solve"]["6-3"].update(
            certificate=flip_last(a["solve"]["6-3"]["certificate"])),
        "check": lambda a: a["check"]["late-51-3"].update(
            target=a["check"]["late-51-3"]["target"] + 1),
    }
    for w, corrupt in cases.items():
        root = copy_tree(f"corrupt-{w}", with_sources=True)
        path = root / "perfbench" / "answers.json"
        answers = json.loads(path.read_text())
        corrupt(answers)
        path.write_text(json.dumps(answers))
        code, res = run(w, root=root)
        shutil.rmtree(root)
        if code == 0 or res is None or res["failed"] == 0 or res["metrics"]["ok_frac"]["value"] >= 1:
            problems.append(f"corrupted {w} answer not caught: exit {code}, result {res}")

    bare = copy_tree("bare", with_sources=False)
    code, res = run("solve", root=bare)
    shutil.rmtree(bare)
    if code == 0 or res is not None:
        problems.append(f"run without the sources: exit {code}, result {res}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
