"""mongesym benchmark: seeded solve / structure / verify workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # all three
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # layer trace

One client runs the workload's fixed job list back to back (a closed loop),
in this process, through ``mongesym.cli.main``; passes over the list repeat
until ``--seconds`` have gone by.  Every job's JSON verdict is checked
against its known answer (see workloads.py).  With ``--trace 0`` the run
reports end-to-end metrics, their times calibrated to the host's speed by a
reference computation timed between jobs (see hostspeed.py); with
``--trace 1`` it spends the first half of the time untraced and then makes
one traced pass (see layertrace.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 11
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBE = ("import time; t = time.perf_counter(); import mongesym.cli; "
               "print(repr(time.perf_counter() - t))")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402


def measure_setup():
    """Median time to import mongesym.cli in a fresh interpreter, calibrated
    and raw (see hostspeed.py)."""
    env = dict(os.environ, PYTHONPATH=SRC, MONGESYM_THREADS="1")
    clock = hostspeed.Clock()
    probes = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        probes.append((start, time.perf_counter(), float(proc.stdout)))
    clock.sample()
    return (statistics.median(s * clock.factor(a, b) for a, b, s in probes),
            statistics.median(s for _, _, s in probes))


def run_job(cli, argv):
    """(seconds, exit code or None when the job raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a job that raises is a failed job; the run goes on
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Tally:
    """Job times and failures over every pass of a run.

    A pass's wall time is the sum of its job times, which run back to back
    apart from the reference samples of hostspeed.py taken between them.
    ``pass_walls`` and ``job_times`` are calibrated to the reference host
    speed; ``raw_pass_walls`` and ``raw_job_times`` are as measured.
    """

    def __init__(self):
        self.pass_walls: list = []
        self.job_times: list = []
        self.raw_pass_walls: list = []
        self.raw_job_times: list = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def run_pass(self, cli, jobs, recorder=None, calibrate=True) -> float:
        """Run the jobs once and check them; returns the raw pass wall time."""
        results, spans = [], []
        clock = hostspeed.Clock()
        for i, job in enumerate(jobs):
            if calibrate and clock.due():
                clock.sample()
            if recorder is not None:
                recorder.job = i
            start = time.perf_counter()
            results.append(run_job(cli, job.argv))
            spans.append((start, start + results[-1][0]))
        if calibrate:
            clock.sample()
        raw = [r[0] for r in results]
        times = ([t * clock.factor(a, b) for t, (a, b) in zip(raw, spans)]
                 if calibrate else raw)
        self.raw_job_times.extend(raw)
        self.job_times.extend(times)
        self.raw_pass_walls.append(sum(raw))
        self.pass_walls.append(sum(times))
        for job, (seconds, code, out, err) in zip(jobs, results):
            self.attempted += 1
            reason = (f"raised: {err.strip().splitlines()[-1]}" if code is None
                      else workloads.check(job, code, out))
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{job.kind}: {reason}")
        return sum(raw)


def tail_percentiles(times):
    """p90 from 100 jobs on and p99 from 1000 jobs on."""
    out = {}
    if len(times) >= 100:
        out["job_p90_s"] = statistics.quantiles(times, n=10)[8]
    if len(times) >= 1000:
        out["job_p99_s"] = statistics.quantiles(times, n=100)[98]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import mongesym.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, not the sources under {SRC}")

    jobs = workloads.make_jobs(name, seed)
    setup_s, raw_setup_s = measure_setup()
    tally = Tally()
    start = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    # whole passes only, and no pass that would end past the budget
    while True:
        tally.run_pass(cli, jobs)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(tally.pass_walls) > budget:
            break
    summary = {"workload": name, "seed": seed, "jobs_per_pass": len(jobs),
               "passes": len(tally.pass_walls), "tally": tally,
               "raw": {"setup_s": raw_setup_s,
                       "wall_s": statistics.median(tally.raw_pass_walls),
                       "job_p50_s": statistics.median(tally.raw_job_times)}}
    if name == "verify":
        probe = Tally()
        probe.run_pass(cli, [workloads.known_defect_job(seed)])
        summary["known_defect"] = probe.reasons[0] if probe.failed else None
    if not trace:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(tally.pass_walls),
            "job_p50_s": statistics.median(tally.job_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        summary["tail"] = tail_percentiles(tally.job_times)
        summary["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return summary
    recorder = layertrace.Recorder()
    recorder.install()
    try:
        origin = time.perf_counter()
        traced_wall = tally.run_pass(cli, jobs, recorder, calibrate=False)
    finally:
        recorder.uninstall()
    summary["metrics"] = recorder.metrics(traced_wall / summary["raw"]["wall_s"])
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.tsv.gz")
    recorder.write(path, jobs, origin)
    summary["trace_file"] = os.path.relpath(path, ROOT)
    summary["missing"] = recorder.missing
    return summary


def print_summary(s: dict) -> None:
    t = s["tally"]
    traced = " + 1 traced pass" if "trace_file" in s else ""
    print(f"workload {s['workload']}  seed {s['seed']}  {s['passes']} passes{traced} x "
          f"{s['jobs_per_pass']} jobs  ({t.attempted} jobs)")
    print(f"  pass walls (s): {' '.join(f'{w:.3f}' for w in t.pass_walls)}")
    print(f"  raw pass walls (s): {' '.join(f'{w:.3f}' for w in t.raw_pass_walls)}")
    for name, m in s["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for name, value in s["raw"].items():
        print(f"  {'raw ' + name:<40} {value:.6g} s  (not calibrated)")
    for name, value in s.get("tail", {}).items():
        print(f"  {name:<40} {value:.6g} s  (n={len(t.job_times)})")
    print(f"  {'failed_ratio':<40} {t.failed / t.attempted:.6g} fraction  "
          f"({t.failed}/{t.attempted})")
    for reason in t.reasons:
        print(f"    failed {reason}")
    if "known_defect" in s:
        verdict = s["known_defect"] or "verify.strazzullo_scaling: accepted, the defect is gone"
        print(f"  known defect, outside the workload and not counted: {verdict}")
    if "trace_file" in s:
        print(f"  spans written to {s['trace_file']}")
    for name in s.get("missing", []):
        print(f"  trace target missing: {name}")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mongesym", "cli.py")):
        sys.stderr.write(f"mongesym sources not found under {SRC}\n")
        return 2
    os.environ["MONGESYM_THREADS"] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    s = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(s)
    t = s["tally"]
    print(json.dumps({"correct": t.failed == 0, "attempted": t.attempted,
                      "failed": t.failed, "metrics": s["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
