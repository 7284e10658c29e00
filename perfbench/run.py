"""engdyn benchmark: real CLI commands in fresh child processes, timed from outside.

    python3 perfbench/run.py --workload analyze-deep --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the children import engdyn from its
``src/``. One invocation measures one workload (see ``workloads.WORKLOADS``):

1. set-up: generate the workload's inputs from ``--seed`` in a child process,
   ``SETUP_REPS`` times, and check that every repetition writes the same bytes;
2. compute the expected values from the generated files;
3. run the workload's command in a fresh child, one at a time, until
   ``--seconds`` have passed (at least ``MIN_RUNS`` runs), reading wall time,
   peak RSS and CPU time of each child from ``os.wait4``, and check every
   run's output tree.

The shared host's speed changes by up to a factor of two, in phases that last
from seconds to minutes, and a child's wall time with it. So while each child
runs, a thread of this process times a fixed piece of interpreter work every
``PROBE_EVERY_S`` (``probe``; about 2% of one core). The timings reported as
``norm_wall_s``, ``norm_items_per_s`` and ``setup_s`` are seconds at the
reference speed at which the probe takes ``PROBE_REF_S`` of CPU time: the
child's wall time times ``PROBE_REF_S`` over the mean probe time during that
child. The probe is timed in thread CPU time, so a child that keeps both cores
busy does not slow it by preempting it. The child barely moves it: beside a
pure-Python, a memory-bound or a numpy element-wise child it reads as when
idle, within 5%; beside a BLAS matrix product, 15% faster (so that scaled time
reads higher, not lower). It follows the host's fast and slow phases, not every
change of speed: the unscaled wall time is printed beside the scaled one.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates traced children (``traced.py``) with untraced ones and reports
per-layer metrics, the tracing overhead and the untraced CPU time. The last
line of standard output is one JSON object; the lines before it give the
environment, the work sizes, sample counts and spreads, and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_RUNS = 3
LAST_START_S = 120.0  # no command starts later than this into the invocation
KILL_AFTER_S = 170.0  # a child still running this far in is killed (and fails)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_EVERY_S = 0.02
PROBE_REF_S = 0.0005  # the probe's CPU time at the reference host speed
PROBE_DOC = json.dumps([{"topic_id": f"t{i % 17}", "love": i, "angry": 3 * i,
                         "timestamp": "2020-01-01T00:00:00Z", "text": "abc def " * 5}
                        for i in range(100)])


def probe() -> float:
    """CPU seconds this thread takes for a fixed piece of interpreter work:
    JSON parsing, dict updates, float arithmetic, sorting and formatting."""
    start = time.thread_time()
    for _ in range(2):
        totals = {}
        for post in json.loads(PROBE_DOC):
            key = post["topic_id"]
            totals[key] = totals.get(key, 0.0) + post["love"] * 1.5 / (1 + post["angry"])
        ",".join(f"{v:.3f}" for v in sorted(totals.values()))
    return time.thread_time() - start


@dataclass
class Run:
    """One child process as seen from outside."""

    wall_s: float
    probe_s: float  # mean probe time while the child ran
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    traced: bool = False
    problems: list = field(default_factory=list)
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def norm_wall_s(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    # children cache engdyn's bytecode as an installed package does, so the
    # import is timed the same whatever the calling environment sets
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(argv: list[str], log: Path, kill_at: float) -> Run:
    """Run ``python argv...`` to completion; wall, CPU and RSS via ``wait4``,
    host speed by probing every ``PROBE_EVERY_S`` while it runs."""
    with open(log.with_suffix(".out"), "w+", encoding="utf-8") as out, \
            open(log.with_suffix(".err"), "w+", encoding="utf-8") as err:
        lock = threading.Lock()
        reaped = False

        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(kill_at - time.perf_counter(), 0.0), kill)
        timer.start()
        probes, stop = [], threading.Event()

        def sample():
            probes.append(probe())
            while not stop.wait(PROBE_EVERY_S):
                probes.append(probe())

        prober = threading.Thread(target=sample)
        prober.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = time.perf_counter()
            with lock:
                reaped = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            stop.set()
            prober.join()
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(wall_s=end - start, probe_s=statistics.fmean(probes), cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                   stdout=out.read(), stderr=err.read())


def engdyn_argv(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return ["-m", "engdyn", *args]
    return [str(HERE / "traced.py"), str(spans), *args]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "seed": seed}
    for package in ("numpy", "scipy"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    env["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return env


def spread(values) -> str:
    values = sorted(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={values[0]:.6g} max={values[-1]:.6g}"
    return f"n={len(values)} min={values[0]:.6g} max={values[-1]:.6g}"


class SetupError(Exception):
    """The workload's inputs could not be generated reproducibly."""


def set_up(workload, seed: int, work: Path, kill_at: float) -> list[Run]:
    """Generate the inputs ``SETUP_REPS`` times; return the set-up runs."""
    workload.prepare(work, seed)
    runs, digests = [], set()
    for _ in range(SETUP_REPS):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        args = workload.setup_args(work, seed)
        if workload.setup_by_engdyn:
            args = engdyn_argv(args, None)
        run = launch(args, work / "setup", kill_at)
        if run.returncode != 0:
            raise SetupError(f"set-up exited {run.returncode}\n{run.stderr}")
        runs.append(run)
        digests.add(digest(workload.input_files(work)))
    if len(digests) != 1:
        raise SetupError("set-up wrote different inputs for the same seed")
    return runs


def run_command(workload, expected: dict, seed: int, work: Path, is_traced: bool,
                kill_at: float) -> Run:
    """One checked run of the workload's command in a fresh child."""
    out, spans = work / "out", work / "spans.json"
    shutil.rmtree(out, ignore_errors=True)
    spans.unlink(missing_ok=True)
    run = launch(engdyn_argv(workload.command(work, out, seed),
                             spans if is_traced else None), work / "run", kill_at)
    run.traced = is_traced
    run.problems = workload.check(expected, out, run.returncode, run.stdout)
    if is_traced and spans.is_file():
        run.layers = traced.layer_metrics(
            json.loads(spans.read_text(encoding="utf-8")), run.wall_s)
    elif is_traced:
        run.problems.append("traced run wrote no spans")
    return run


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    begin = time.perf_counter()
    kill_at = begin + KILL_AFTER_S
    try:
        setup_runs = set_up(workload, seed, work, kill_at)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    expected = workload.expect(work)
    items = expected["items"]
    print("env: " + json.dumps(environment(seed), sort_keys=True))
    print("work: " + json.dumps({"workload": workload.name, "items": workload.item_unit,
                                 **workload.work_size(expected)}))

    runs: list[Run] = []
    stop = time.perf_counter() + seconds
    while len(runs) < (2 * MIN_RUNS if trace else MIN_RUNS) or time.perf_counter() < stop:
        if time.perf_counter() - begin > LAST_START_S:
            break
        # traced and untraced children alternate, so both see the same host
        run = run_command(workload, expected, seed, work,
                          trace and len(runs) % 2 == 0, kill_at)
        runs.append(run)
        for problem in run.problems:
            print(f"failed run {len(runs)}: {problem}", file=sys.stderr)
        if run.problems and run.stderr:
            print(run.stderr[-2000:], file=sys.stderr)

    failed = sum(1 for r in runs if not r.ok)
    print(f"failed_frac: {failed}/{len(runs)} = {failed / len(runs):.4f} "
          f"(command runs that exit wrongly or fail the output checks)")
    good = [r for r in runs if r.ok] or runs
    for label, group in (("run", good), ("set-up", setup_runs)):
        print(f"{label} wall_s, unscaled: median "
              f"{statistics.median(r.wall_s for r in group):.6g} s "
              f"({spread([r.wall_s for r in group])}); probe_ms: median "
              f"{1e3 * statistics.median(r.probe_s for r in group):.6g} ms "
              f"({spread([1e3 * r.probe_s for r in group])})")
    metrics = per_layer(good) if trace else end_to_end(good, setup_runs, items)
    result = {}
    for name, (values, unit, note) in metrics.items():
        value = statistics.median(values)
        result[name] = {"value": value, "unit": unit}
        print(f"{name}: median {value:.6g} {unit} ({note or spread(values)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": result}))
    return 0


def end_to_end(runs: list[Run], setup_runs: list[Run], items: int) -> dict:
    """End-to-end metrics: ``name -> (samples, unit, note)``, reported as medians.
    Times are scaled to the reference host speed (see the module docstring)."""
    return {
        "norm_wall_s": ([r.norm_wall_s for r in runs], "s", None),
        "norm_items_per_s": ([items / r.norm_wall_s for r in runs], "items/s", None),
        "peak_rss_mb": ([r.rss_mb for r in runs], "MiB", None),
        "setup_s": ([r.norm_wall_s for r in setup_runs], "s", None),
    }


def per_layer(runs: list[Run]) -> dict:
    """Per-layer metrics: medians over the traced runs, CPU time of the
    untraced runs, and the tracing overhead between the two."""
    traced_runs = [r for r in runs if r.traced and r.layers]
    plain = [r for r in runs if not r.traced]
    if not traced_runs or not plain:
        raise RuntimeError("need both traced and untraced runs")
    metrics = {}
    for name in traced_runs[0].layers:
        unit = "ms" if name.endswith("_ms") else \
            "s" if name.endswith(("_s", ".s")) else "count"
        values = [r.layers[name] for r in traced_runs]
        metrics[name] = (values, unit, None if any(values) else "no work on this workload")
    metrics["process.cpu_s"] = ([r.cpu_s for r in plain], "s", None)
    traced_wall = statistics.median(r.wall_s for r in traced_runs)
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics["trace.wall_s"] = ([r.wall_s for r in traced_runs], "s", None)
    metrics["trace.overhead_s"] = (
        [traced_wall - plain_wall], "s",
        f"signed: median of {len(traced_runs)} traced minus median of "
        f"{len(plain)} untraced walls, within host noise")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "engdyn" / "__init__.py").is_file():
        print(f"error: no engdyn package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
