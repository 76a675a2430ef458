"""Benchmark of the cubekit CLI pipeline on seeded workloads.

One workload, one process, one closed-loop client, no threads:
    python3 perfbench/run.py --workload promote-tree --seed 0 --seconds 28 --trace 0
Every workload, untraced then traced, with each metric printed by name:
    python3 perfbench/run.py --all --seed 0 --seconds 28
The one-off fixture ladder (not a workload):
    python3 perfbench/run.py --ladder perfbench/ladder-seed-commit.json
Re-pin the report hashes at the default and the held-out seed:
    python3 perfbench/run.py --write-pins

A workload run prints readable lines, then as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import os
import time

T0 = time.perf_counter()  # process start, after interpreter start-up
# One thread: numpy's BLAS pool would otherwise start one thread per core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
# CPU seconds of one `calibrate()` at the reference host speed: its median on
# a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) when that host was quiet.
CALIBRATION_REF_S = 0.045
# Calibration samples before each invocation.  One sample moves by about 8%
# from the next; the median of a run's 50 to 80 samples by about 1.5%.
CALIBRATION_SAMPLES = 4
# Fresh interpreters that time the import again; with this process's own
# import they give the median import time in setup_s.
IMPORT_REPEATS = 2


def import_cubekit():
    """Import cubekit from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cubekit

    where = Path(cubekit.__file__).resolve().parent
    if where != SRC / "cubekit":
        raise ImportError(f"cubekit imported from {where}, not from {SRC}")
    return cubekit


def import_times() -> list[float]:
    """Seconds to import what a run imports, once in each of IMPORT_REPEATS
    fresh interpreters, one after another; interpreter start-up excluded."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import cubekit, tracing, workloads\n"
        "print(time.perf_counter() - t)\n"
    )
    return [
        float(subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def seed_arg(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return v


def percentile_line(values: list[float]) -> str:
    """Median with its count, and the highest of p99/p90 that has at least
    ten samples beyond it."""
    n = len(values)
    line = f"median of {n}"
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            line += f", p{p} {q:.4f}"
            break
    return line


class Run:
    """State of one workload run: fixtures, timings, failures, the gate."""

    def __init__(self, workload, seed: int, pins: dict):
        self.w = workload
        self.seed = seed
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []
        self.fixtures = {}
        self.setup_times: list[float] = []
        self.first_report: dict[tuple[int, int], str] = {}

    def set_up(self, work_dir: Path) -> None:
        """Generate each fixture of the pool, the pool at least SETUP_REPEATS
        times over in total; a regenerated fixture must match byte for byte."""
        from workloads import set_up

        for i in range(max(self.w.pool, SETUP_REPEATS)):
            index = i % self.w.pool
            self.attempted += 1
            t = time.perf_counter()
            try:
                fx = set_up(self.w, self.seed, index, work_dir)
            except ValueError as e:
                self.failures.append(f"set-up of fixture {index}: {e}")
                continue
            self.setup_times.append(time.perf_counter() - t)
            first = self.fixtures.setdefault(index, fx)
            if first.text != fx.text:
                self.failures.append(f"fixture {index} differs between generations")

    def invoke(self, fx) -> tuple[float, float]:
        """Run the workload's subcommands on one fixture; gate the reports.
        Returns the CPU seconds and the wall seconds of the calls."""
        from workloads import call, check_report, pinned_reports, sha256

        t, c = time.perf_counter(), time.process_time()
        results = [call(fx, command) for command in self.w.commands]
        cpu, wall = time.process_time() - c, time.perf_counter() - t
        pinned = pinned_reports(self.w, self.seed, self.pins)
        for j, (command, (code, report)) in enumerate(zip(self.w.commands, results)):
            self.attempted += 1
            digest = sha256(report)
            why = check_report(command[0], code, report)
            key = (fx.index, j)
            if why is None and self.first_report.setdefault(key, digest) != digest:
                why = f"{command[0]} report on fixture {fx.index} changed between calls"
            if why is None and pinned is not None:
                want = pinned[fx.index][j] if fx.index < len(pinned) else None
                if digest != want:
                    why = f"{command[0]} report on fixture {fx.index} is not the pinned one"
            if why is not None:
                self.failures.append(why)
        return cpu, wall


def warm_up(w, work_dir: Path) -> None:
    """One untimed, ungated invocation on a toy-size fixture of the same
    kind, so that first-call costs (lazy imports, allocator growth) fall
    outside the timed loop."""
    from workloads import call, set_up, toy

    warm_dir = work_dir / "warm-up"  # the pool's fixture files stay as they are
    warm_dir.mkdir(exist_ok=True)
    fx = set_up(toy(w), 0, 0, warm_dir)
    for command in w.commands:
        call(fx, command)


def calibrate() -> float:
    """CPU seconds of a fixed numpy kernel that does not touch cubekit: 300
    min-plus relaxation steps on a 300x300 integer matrix, the row-and-column
    broadcasting that cubekit's distance code is made of.  It allocates
    nothing while timed, so the allocator and page faults do not move it."""
    import numpy as np

    a = np.random.default_rng(0).integers(0, 50, (300, 300))
    buf = a.copy()  # touched here, so no page is first faulted in while timed
    t = time.process_time()
    for k in range(a.shape[0]):
        np.add(a[:, k:k + 1], a[k:k + 1, :], out=buf)
        np.minimum(a, buf, out=a)
    return time.process_time() - t


@dataclasses.dataclass
class Timings:
    """Seconds of each invocation by fixture index, and the calibration
    samples taken between invocations."""

    cpu: dict
    wall: dict
    calibration: list

    def run_s(self) -> float:
        """The invocation's CPU time at the reference host speed.

        A shared host slows for tens of seconds at a time, and a run's raw
        times move with it.  The calibration kernel, timed before every
        invocation, slows with it, so the ratio of the two moves less."""
        return pool_time(self.cpu) * CALIBRATION_REF_S / statistics.median(self.calibration)


def measure(run: Run, seconds: float) -> Timings:
    """Closed loop over whole rounds, one invocation per fixture, ending at
    the round boundary nearest to `seconds` of wall time; at least one
    round.  CALIBRATION_SAMPLES calibration samples precede each invocation."""
    pool = [run.fixtures[i] for i in sorted(run.fixtures)]
    out = Timings({fx.index: [] for fx in pool}, {fx.index: [] for fx in pool}, [])
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for fx in pool:
            out.calibration.extend(calibrate() for _ in range(CALIBRATION_SAMPLES))
            c, t = run.invoke(fx)
            out.cpu[fx.index].append(c)
            out.wall[fx.index].append(t)
        now = time.perf_counter()
        if now - start + (now - t_round) / 2 > seconds:
            return out


def pool_time(times: dict) -> float:
    """Mean over the pool's fixtures of each fixture's median invocation time.

    Fixtures of one pool differ in cost (tree shapes); the mean weighs each
    fixture once however many rounds ran."""
    return statistics.fmean(statistics.median(ts) for ts in times.values())


def flatten(times: dict) -> list[float]:
    return [t for ts in times.values() for t in ts]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        cubekit = import_cubekit()
        import tracing
        import workloads
    except ImportError as e:
        sys.stderr.write(f"perfbench: cannot import the program: {e}\n")
        return 2
    import_s = time.perf_counter() - T0
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if name not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {name!r}\n")
        return 2
    w = workloads.WORKLOADS[name]
    run = Run(w, seed, workloads.load_pins())
    tracer = tracing.Tracer(cubekit) if trace else None
    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install()
        run.set_up(work_dir)
        if not run.fixtures:
            sys.stderr.write("perfbench: no fixture could be set up: " + "; ".join(run.failures) + "\n")
            return 1
        if tracer is not None:
            tracer.phase = "warm-up"
        warm_up(w, work_dir)
        if tracer is not None:
            tracer.phase = "run"
        timings = measure(run, seconds)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    print(f"workload {w.name} seed {seed}: {why}")
    print(f"closed loop, 1 client, 1 process; commands per invocation: "
          + ", ".join(" ".join(c) for c in w.commands))
    run_times = flatten(timings.cpu)
    for label, by_fixture in (("CPU", timings.cpu), ("wall", timings.wall)):
        print(f"invocation {label} seconds by fixture: " + "; ".join(
            ", ".join(f"{t:.3f}" for t in ts) for ts in by_fixture.values()))
    print(f"mean of fixture medians: CPU {pool_time(timings.cpu):.4f} s, "
          f"wall {pool_time(timings.wall):.4f} s; calibration median "
          f"{statistics.median(timings.calibration):.4f} s of {len(timings.calibration)} "
          f"(reference {CALIBRATION_REF_S} s)")
    error_rate = len(run.failures) / run.attempted
    for why in run.failures:
        print(f"FAILED: {why}")
    print(f"error_rate {error_rate:.4f} ({len(run.failures)} of {run.attempted} operations failed)")

    if tracer is None:
        imports = [import_s, *import_times()]
        setup_s = statistics.median(imports) + statistics.median(run.setup_times)
        metrics = {
            "run_s": timings.run_s(),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "run_s": f"CPU time at reference speed, mean of {len(timings.cpu)} fixture "
                     "medians; " + percentile_line(run_times) + " invocations",
            "setup_s": f"median import of {len(imports)} + median fixture set-up of "
                       f"{len(run.setup_times)}",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        wanted = spec["end_to_end"]
    else:
        metrics, notes = traced_metrics(tracer, spec, run, timings, w)
        wanted = spec["per_layer"]
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<48} {value:>14.6g} {m['unit']:<6} {note}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": out,
    }))
    return 0


def traced_metrics(tracer, spec, run, timings, w):
    import tracing

    run_walls = flatten(timings.wall)
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    run_spans, run_selfs = _subset(spans, selfs, "run")
    setup_spans, setup_selfs = _subset(spans, selfs, "setup")
    per_run = len(run_walls)
    covered = sum(s.end - s.start for s in run_spans if s.parent < 0)
    metrics = {
        "trace.run_s": timings.run_s(),
        "trace.uncovered_share": 1 - covered / sum(run_walls),
    }
    for m in spec["per_layer"]:
        name = m["name"]
        if name.startswith("setup."):
            metrics[name] = tracing.layer_metric(
                setup_spans, setup_selfs, name[len("setup."):], len(run.setup_times)
            )
        elif name not in metrics:
            metrics[name] = tracing.layer_metric(run_spans, run_selfs, name, per_run)
    hot, hot_s = tracing.hottest(run_spans, run_selfs)
    print(f"hot layer (largest self time): {hot}, {hot_s / per_run:.4f} s per invocation, "
          f"{hot_s / sum(run_walls):.1%} of traced run time; predicted {w.hot}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-seed{run.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start - T0, "end": s.end - T0,
                                 "parent": s.parent, "phase": s.phase, "counts": s.counts}) + "\n")
    print(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    notes = {
        "trace.run_s": f"run_s over {per_run} traced invocations; "
                       "tracing overhead = this - run_s of an untraced run",
        "trace.uncovered_share": "share of traced run time outside every span",
    }
    return metrics, notes


def _subset(spans, selfs, phase: str):
    """The spans of one phase, with parent indices renumbered into the subset."""
    idx = [i for i, s in enumerate(spans) if s.phase == phase]
    pos = {i: k for k, i in enumerate(idx)}
    sub = [dataclasses.replace(spans[i], parent=pos.get(spans[i].parent, -1)) for i in idx]
    return sub, [selfs[i] for i in idx]


def run_all(seed: int, seconds: int) -> int:
    """Every workload in a fresh process, untraced then traced."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    results = {}
    status = 0
    for trace in (0, 1):
        for wl in spec["workloads"]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            res = json.loads(lines[-1])
            results.setdefault(wl["name"], {})[f"trace{trace}"] = res
            if not res["correct"]:
                status = 1
    print("\nsummary (seed %d, %d s per run)" % (seed, seconds))
    for name, res in results.items():
        plain = res.get("trace0")
        if plain is None:
            continue
        print(f"  {name:<14} error_rate {plain['failed'] / plain['attempted']:.4f} "
              f"({plain['failed']}/{plain['attempted']})")
        for metric, v in plain["metrics"].items():
            print(f"  {name:<14} {metric:<12} {v['value']:>12.6g} {v['unit']}")
        layers = res.get("trace1", {}).get("metrics")
        if layers:
            overhead = layers["trace.run_s"]["value"] - plain["metrics"]["run_s"]["value"]
            print(f"  {name:<14} tracing overhead {overhead:.4f} s "
                  f"({overhead / plain['metrics']['run_s']['value']:.1%} of run_s); "
                  f"uncovered share of traced run {layers['trace.uncovered_share']['value']:.2%}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{seed}.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return status


def write_pins() -> int:
    """Pin every workload's report hashes at the default seed, and those of
    the workloads whose reports depend on the labelling at the held-out seed."""
    import_cubekit()
    import workloads

    pins = workloads.load_pins()
    reports = {}
    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in (pins["default_seed"], pins["held_out_seed"]):
            for w in workloads.WORKLOADS.values():
                if seed != pins["default_seed"] and w.same_report_every_seed:
                    continue
                reports.setdefault(str(seed), {})[w.name] = [
                    [workloads.sha256(workloads.call(fx, c)[1]) for c in w.commands]
                    for fx in (workloads.set_up(w, seed, i, work_dir) for i in range(w.pool))
                ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    pins["reports"] = reports
    workloads.write_pins(pins)
    print(json.dumps(reports, indent=1))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--ladder", metavar="OUT")
    mode.add_argument("--write-pins", action="store_true")
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.workload is not None:
        return run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
    if a.all:
        return run_all(a.seed, a.seconds)
    if a.write_pins:
        return write_pins()
    import_cubekit()
    import ladder

    return ladder.run_ladder(Path(a.ladder), WORK / str(os.getpid()))


if __name__ == "__main__":
    sys.exit(main())
