#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 mwbench/selftest.py

Checks that ``BENCHMARK.json`` matches the workloads and metric tables
the code defines.  Runs each workload with ``--n`` small, once untraced
and once traced, and checks that the run is correct, that every metric
``BENCHMARK.json`` names is emitted with its unit and a finite value,
and that the command fails without printing a result when the program's
sources are absent.
Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY_N = {"mw_serial_n20k": 600, "mw_2rank_n1k": 300}


def _run(cwd: Path, workload: str, trace: int, n: int | None = None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    if n is not None:
        cmd += ["--n", str(n)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_workload(spec: dict, workload: str) -> list[str]:
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace, TINY_N[workload])
        if proc.returncode != 0:
            return [f"{workload} trace={trace}: exit {proc.returncode}\n"
                    f"{proc.stderr[-2000:]}"]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
            errors.append(f"{workload} trace={trace}: keys {sorted(out)}")
        if not out["correct"] or out["failed"] or out["attempted"] < 1:
            errors.append(f"{workload} trace={trace}: correct="
                          f"{out['correct']} attempted={out['attempted']} "
                          f"failed={out['failed']}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = out["metrics"]
        if set(got) != set(want):
            errors.append(f"{workload} trace={trace}: missing "
                          f"{sorted(set(want) - set(got))}, extra "
                          f"{sorted(set(got) - set(want))}")
        for name in set(got) & set(want):
            value, unit = got[name]["value"], got[name]["unit"]
            if unit != want[name] or not math.isfinite(value):
                errors.append(f"{workload} trace={trace}: {name} = "
                              f"{value} {unit}, want unit {want[name]}")
    return errors


def check_without_sources(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, silently."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(Path(tmp), spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def check_spec(spec: dict) -> list[str]:
    """BENCHMARK.json must describe the workloads and metrics the code
    defines (``workloads.py``, ``run.py``)."""
    import run
    from workloads import WORKLOADS
    errors = []
    if ({w["name"]: w["why"] for w in spec["workloads"]}
            != {w.name: w.why for w in WORKLOADS.values()}):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.per_layer_table())):
        if [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
                != list(table):
            errors.append(f"BENCHMARK.json {key} differs from run.py")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec) + check_without_sources(spec)
    for w in spec["workloads"]:
        errors += check_workload(spec, w["name"])
    for e in errors:
        print(e)
    print("selftest " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
