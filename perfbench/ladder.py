"""One-off fixture ladder: every pipeline subcommand on a fixed ladder of
fixtures, for a record of one commit's wall times, sizes and report hashes.

Not a benchmark workload.  Fixtures come from `cubekit gen-fixture` at seed
0; every call runs in this process through `cubekit.cli.main` under a time
limit.  A call that hits the limit is recorded as timed out, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import time
from pathlib import Path

import numpy as np

from workloads import run_cli, sha256

# Wall-clock limit of one call, in seconds.
LIMIT_S = 60

HHS_COMMANDS = (
    ("validate",),
    ("df-check", "--s", "{E100}", "--samples", "2000"),
    ("psi", "--samples", "4000"),
    ("pack", "--R", "3"),
    ("helly", "--R", "5"),
    ("promote",),
)

RUNGS = (
    [("tree-axes", ("--n", str(n), "--lines", "4", "--seed", "0")) for n in (40, 120, 200, 300)]
    + [("product-lines", ("--n", str(n))) for n in (9, 15, 20)]
    + [("spider-axes", ())]
    + [("axes-system", ("--n", str(n), "--lines", "4", "--seed", "0")) for n in (60, 120, 240)]
)


class LadderTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler inside
    the program swallows it."""


def _alarm(signum, frame):
    raise LadderTimeout


def timed_call(argv: list[str]) -> dict:
    """Run one CLI call under the wall-clock limit; capture its report."""
    signal.signal(signal.SIGALRM, _alarm)
    t = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        code, report = run_cli(argv)
    except LadderTimeout:
        return {"status": "timed out", "limit_s": LIMIT_S}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t
    return {
        "status": "ok" if code == 0 else f"exit {code}",
        "wall_s": round(wall, 4),
        "sha256": sha256(report),
        "report": report,
    }


def _sizes(command: str, report: str) -> dict:
    data = json.loads(report)
    if command == "promote":
        return {
            "input_size": data["input_size"],
            "closure_size": data["closure_size"],
            "hyperplanes": len(data["skeleton"]["hyperplanes"]),
            "dimension": data["dimension"],
        }
    if command == "build-quasitree":
        return {"quasitree_n": sum(p["n"] for p in data["quasitree"]["system"]["pieces"])}
    return {}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_ladder(out_path: Path, work_dir: Path) -> int:
    import cubekit

    entries = []
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for kind, args in RUNGS:
            fixture = str(work_dir / "fixture.json")
            gen = timed_call(["gen-fixture", kind, *args, "--out", fixture])
            if gen["status"] == "ok":
                gen["sha256"] = hashlib.sha256(Path(fixture).read_bytes()).hexdigest()
            rung = {"fixture": " ".join((kind, *args)), "gen": _public(gen), "calls": []}
            entries.append(rung)
            print(f"{rung['fixture']}: gen {gen['status']} {gen.get('wall_s', '')}", flush=True)
            if gen["status"] != "ok":
                continue
            data = json.loads(Path(fixture).read_text(encoding="utf-8"))
            if kind == "axes-system":
                rung["n"] = sum(p["n"] for p in data["pieces"])
                commands = (("build-quasitree", "--K", str(_theta(data))),)
            else:
                rung["n"] = data["ambient"]["n"]
                e100 = str(100 * data["E"])
                commands = tuple(tuple(a.replace("{E100}", e100) for a in c) for c in HHS_COMMANDS)
            for command in commands:
                res = timed_call([command[0], "--in", fixture, *command[1:]])
                entry = {"argv": " ".join(command), **_public(res)}
                if res["status"] == "ok":
                    entry.update(_sizes(command[0], res["report"]))
                rung["calls"].append(entry)
                print(f"  {entry['argv']}: {res['status']} {res.get('wall_s', '')}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record = {
        "what": "cubekit fixture ladder, seed 0, one call at a time in one process",
        "src_sha256": source_digest(Path(cubekit.__file__).resolve().parent),
        "limit_s": LIMIT_S,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rungs": entries,
    }
    tmp_path = out_path.with_suffix(".tmp")
    tmp_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp_path, out_path)
    print(f"ladder written to {out_path}")
    return 0


def _public(res: dict) -> dict:
    return {k: v for k, v in res.items() if k != "report"}


def _theta(system: dict) -> str:
    theta = system["theta"]
    return f"{theta[0]}/{theta[1]}" if isinstance(theta, list) else str(theta)

