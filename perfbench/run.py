"""ringlab benchmark: two closed-loop CLI workloads, timed from outside.

    python3 perfbench/run.py --workload ring-evolve --seed 0 --seconds 50 --trace 0

Run from the root of a ringlab checkout.  Every sample is a fresh child
process running the `ringlab` CLI from `src/`, one at a time, each in its
own output directory, with BLAS/OpenMP pinned to one thread.  The program
sees only the INI files generated here from the seed (perfbench/inputs.py).

Workloads (one client; the next run starts when the previous has exited):
  ring-evolve   simulate on the baseline ring and grid to t = 0.1; the
                explicit step loop, diffusion-limited dt.
  audit-verify  verify --suite all on a multi-snapshot run of the same
                configuration (made once, untimed); direct Biot-Savart
                quadrature and bulk kernel-table evaluation.

End-to-end metrics: wall_s, the timed command's wall time; setup_s, the
same command at zero length (audit-verify: verify --suite velocity on a
t_end = 0 run); peak_rss_mib, the child's peak resident set; all three are
medians over the samples, and the two times are scaled to a reference host
speed (below).  momentum_drift is max |M(t)/M(0) - 1| of
momentum_z in diagnostics.csv (audit-verify: the verified run); route_gap
(route_gap.py) is taken on the last snapshot of the last run.  fail_frac =
failed / attempted operations, one operation per simulate sample and per
verify report.

Host speed: on a shared host the speed of the same computation drifts by
up to 1.8x over minutes, and every computation drifts in step.  So --trace 0
also times calibrate.py, a fixed computation that uses nothing of the
checkout, before the first round and after each round, and reports wall_s
and setup_s as the run's medians times CALIBRATION_REF_S / the median
calibration: seconds on a host where calibrate.py takes CALIBRATION_REF_S.
The unscaled medians and every calibration are printed on the `workload`
line.

Both modes sample in rounds and start no round that would end past
--seconds.  --trace 0 starts with one untimed zero-length warm-up, then
runs at least three rounds of a sample, a zero-length set-up probe and a
calibration, and reports the end-to-end metrics as medians; --trace 1 runs rounds of an
untraced and a traced sample (perfbench/tracer.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object {correct,
attempted, failed, metrics}; the lines before it record the environment,
the generated inputs and each metric by name with its unit.  Exit code 0
when every check passed, 1 when a check failed, 2 without a result when it
cannot run (no ringlab sources under src/, a child outliving the time
budget).
"""

import argparse
import csv
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("ring-evolve", "audit-verify")
# t_end and snapshot times of each workload, full size and self-test size.
# ring-evolve keeps README's snapshot list up to t_end; audit-verify needs
# snapshots past t = 0.01, where verify's decay window starts.
T_END = {"ring-evolve": (0.1, 0.004), "audit-verify": (0.02, 0.02)}
SNAPSHOTS = {"ring-evolve": (0.01, 0.05, 0.1),
             "audit-verify": (0.01, 0.02)}
MIN_SAMPLES = 3
# calibrate.py's time at the reference host speed; its run medians on a
# 2-core Xeon VM with BLAS at one thread were 1.0-1.4 s
CALIBRATION_REF_S = 1.2
DEADLINE_S = 170.0          # the whole invocation stays under 180 s
MOMENTUM_GATE = 0.01        # verify's own momentum_drift threshold
# route_gap probe points (r, z), snapped to the nearest grid node: next to
# the axis and outside the ring core.  Inside the core the two routes' gap
# changes sign from node to node, so its value there jumps with the ring's
# position relative to the grid; at these points it moves by a few percent
# across seeds.
PROBES = [(0.25, -1.0), (0.25, 1.0), (2.0, 0.0), (2.5, -1.0), (2.5, 0.0),
          (2.5, 1.0), (3.0, 0.0)]
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot finish (a child outlived the time budget)."""


# ---------------------------------------------------------------------------
# child processes

class Runner:
    """Starts one child at a time and reports its wall time and peak RSS."""

    def __init__(self, root, started):
        self.root = root
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        for var in THREAD_VARS:
            self.env[var] = str(THREADS)

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, argv, workdir, traced_to=None):
        """Run `ringlab <argv>` (or the tracer) in workdir; returns a dict
        with exit code, wall seconds, peak RSS in MiB and stdout text."""
        if traced_to is None:
            cmd = [sys.executable, "-m", "ringlab.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                   traced_to, *argv]
        return self.spawn(cmd, workdir)

    def calibrate(self, workdir):
        """Seconds of calibrate.py's fixed computation, timed now."""
        res = self.spawn([sys.executable, os.path.join(HERE, "calibrate.py")],
                         workdir)
        try:
            return float(json.loads(res["stdout"])["seconds"])
        except (ValueError, KeyError, TypeError):
            raise BenchError(f"calibration failed (exit {res['code']})")

    def spawn(self, cmd, workdir):
        os.makedirs(workdir, exist_ok=True)
        timeout = self.remaining()
        if timeout <= 1.0:
            raise BenchError("time budget exhausted before " + " ".join(cmd))
        out_path = os.path.join(workdir, "stdout.txt")
        err_path = os.path.join(workdir, "stderr.txt")
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)

            def expire():
                killed.set()
                proc.kill()

            # os.wait4 gives this child's own rusage (peak RSS); the timer
            # bounds the wait
            watchdog = threading.Timer(timeout, expire)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"timed out after {wall:.0f} s: {' '.join(cmd)}")
        with open(out_path) as fh:
            stdout = fh.read()
        return {"code": proc.returncode, "wall": wall,
                "rss_mib": usage.ru_maxrss / 1024.0, "stdout": stdout}


# ---------------------------------------------------------------------------
# reading the program's outputs (plain files, no ringlab import)

# the last line each command prints names what it wrote
PRINTED = {"simulate": r"snapshots in (\S+)\s*$",
           "verify": r"reports -> (\S+)\s*$"}


def printed_path(stdout, command):
    m = re.search(PRINTED[command], stdout, re.M)
    return m.group(1) if m else None


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def momentum_drift(diag_path):
    """max |M(t)/M(0) - 1| of momentum_z in a diagnostics.csv."""
    with open(diag_path, newline="") as fh:
        m = [float(row["momentum_z"]) for row in csv.DictReader(fh)]
    return max(abs(v / m[0] - 1.0) for v in m)


def check_run(root, run_dir):
    """Problems with one simulate output directory (empty when fine)."""
    manifest = load_json(os.path.join(root, run_dir, "manifest.json"))
    if manifest is None:
        return ["no manifest"]
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"status {manifest.get('status')!r}")
    audits = manifest.get("audits", {})
    if not audits.get("min_eta", -1.0) >= 0.0:
        problems.append(f"min_eta {audits.get('min_eta')}")
    if audits.get("l1_monotone") is not True:
        problems.append("l1 not monotone")
    try:
        drift = momentum_drift(os.path.join(root, run_dir, "diagnostics.csv"))
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"diagnostics unreadable: {exc}")
    else:
        if not drift <= MOMENTUM_GATE:
            problems.append(f"momentum drift {drift:.3g}")
    return problems


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Inputs, the timed command, its zero-length form and its checks.

    `sample` runs the command once (timed or traced) and counts its
    operations and failures; `reference` holds the first sample's outputs,
    against which every later sample must be byte-identical.
    """

    def __init__(self, name, seed, tiny, runner, workdir):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.runner = runner
        self.root = runner.root
        self.workdir = workdir
        self.reference = None
        self.n = 0
        self.problems = []
        t_end = T_END[name][1 if tiny else 0]
        snaps = tuple(t for t in SNAPSHOTS[name] if t <= t_end) or (t_end,)
        self.inputs = {
            "ring.ini": inputs.baseline_ini(seed, t_end, snaps, tiny),
            "ring_zero.ini": inputs.baseline_ini(seed, 0.0, (), tiny),
        }
        os.makedirs(workdir, exist_ok=True)
        for fname, text in self.inputs.items():
            with open(self.path(fname), "w") as fh:
                fh.write(text)
        self.prep_dir = None
        self.zero_dir = None
        # run directories of the latest sample (or of the verified run)
        self.last_runs = []

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def rel(self, *parts):
        return os.path.relpath(self.path(*parts), self.root)

    def next_dir(self, kind):
        self.n += 1
        return self.path(f"{kind}-{self.n:03d}")

    def prepare(self, with_zero):
        """Untimed runs that the verify workload reads."""
        if self.name != "audit-verify":
            return True
        self.prep_dir = self._simulate_untimed("ring.ini", "prep")
        self.last_runs = [self.prep_dir]
        if with_zero:
            self.zero_dir = self._simulate_untimed("ring_zero.ini", "zero")
        return self.prep_dir is not None and (
            self.zero_dir is not None or not with_zero)

    def _simulate_untimed(self, ini, kind):
        d = self.path(kind)
        res = self.runner.run(["simulate", "--config", self.rel(ini),
                               "--out", os.path.relpath(d, self.root)], d)
        run_dir = printed_path(res["stdout"], "simulate")
        if res["code"] != 0 or run_dir is None:
            self.problems.append(f"{kind} run failed (exit {res['code']})")
            return None
        problems = check_run(self.root, run_dir)
        if problems:
            self.problems.append(f"{kind} run: {'; '.join(problems)}")
            return None
        return run_dir

    def command(self, zero, out):
        if self.name == "ring-evolve":
            ini = "ring_zero.ini" if zero else "ring.ini"
            return ["simulate", "--config", self.rel(ini), "--out", out]
        run_dir = self.zero_dir if zero else self.prep_dir
        return ["verify", "--manifest", os.path.join(run_dir, "manifest.json"),
                "--suite", "velocity" if zero else "all"]

    def setup_probe(self):
        """Wall time of the zero-length command (never counted as an op)."""
        d = self.next_dir("setup")
        res = self.runner.run(
            self.command(True, os.path.relpath(d, self.root)), d)
        if self.name == "audit-verify":
            self._drop_reports(res["stdout"])
        return res["wall"]

    def sample(self, traced_to=None):
        d = self.next_dir("traced" if traced_to else "sample")
        res = self.runner.run(
            self.command(False, os.path.relpath(d, self.root)), d,
            traced_to=traced_to)
        return self.check(res)

    def check(self, res):
        """Count the operations of one sample and those that failed."""
        check = {"ring-evolve": self._check_simulate,
                 "audit-verify": self._check_verify}[self.name]
        attempted, failed, outputs = check(res)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            failed = attempted
            self.problems.append("outputs differ from the first sample's")
        res.update(attempted=attempted, failed=failed)
        return res

    # -- checks: (attempted, failed, outputs compared across samples) ------

    def _check_simulate(self, res):
        run_dir = printed_path(res["stdout"], "simulate")
        if res["code"] != 0 or run_dir is None:
            self.problems.append(f"simulate exit {res['code']}")
            return 1, 1, None
        problems = check_run(self.root, run_dir)
        self.problems.extend(problems)
        self.last_runs = [run_dir]
        diag = read_bytes(os.path.join(self.root, run_dir, "diagnostics.csv"))
        return 1, int(bool(problems)), diag

    def _drop_reports(self, stdout):
        path = printed_path(stdout, "verify")
        if path and os.path.exists(path):
            os.unlink(path)

    def _check_verify(self, res):
        path = printed_path(res["stdout"], "verify")
        body = read_bytes(path) if path else None
        self._drop_reports(res["stdout"])
        if body is None:
            self.problems.append(f"verify exit {res['code']}, no reports")
            return 1, 1, None
        reports = [json.loads(line) for line in body.decode().splitlines()
                   if line.strip()]
        n = max(len(reports), 1)
        failed = [r["name"] for r in reports if not r.get("pass")]
        if failed:
            self.problems.append("verify failed: " + ", ".join(failed))
        elif res["code"] != 0 or not reports:
            self.problems.append(f"verify exit {res['code']}, "
                                 f"{len(reports)} reports")
            return n, n, body
        return n, len(failed), body

    # -- accuracy metrics, from the checked outputs -------------------------

    def momentum_drift(self):
        return max(momentum_drift(os.path.join(self.root, d,
                                               "diagnostics.csv"))
                   for d in self.last_runs)

    def route_gap(self):
        run_dir = self.last_runs[-1]
        d = self.path("route-gap")
        out = os.path.join(d, "gap.json")
        os.makedirs(d, exist_ok=True)
        code = [sys.executable, os.path.join(HERE, "route_gap.py"),
                os.path.join(self.root, run_dir, "manifest.json"), out,
                json.dumps(PROBES)]
        proc = subprocess.Popen(code, cwd=self.root, env=self.runner.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(self.runner.remaining(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("route_gap probe timed out")
        result = load_json(out)
        if proc.returncode != 0 or result is None:
            raise BenchError("route_gap probe failed: "
                             + err.decode(errors="replace")[-400:])
        return result["route_gap"]


# ---------------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": THREADS}


def declared_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(wl, seconds, trace):
    """Run the workload; returns (attempted, failed, metrics, notes)."""
    attempted = failed = 0
    samples, traced, setup = [], [], []
    if not wl.prepare(with_zero=not trace):
        return 1, 1, None, {}
    if not trace:
        if wl.prep_dir is None:
            # warms the page cache and the byte-code cache of the sources,
            # as the untimed runs of prepare() do for audit-verify
            wl.setup_probe()
        # a calibration before the first round and after every round
        calibrations = [wl.runner.calibrate(wl.path("calibrate"))]
    t0 = time.perf_counter()
    while True:
        if trace:
            plain = wl.sample()
            spans_path = wl.path(f"spans-{len(traced):03d}.json")
            tr = wl.sample(traced_to=spans_path)
            tr["trace"] = load_json(spans_path)
            samples.append(plain)
            traced.append(tr)
            batch = (plain, tr)
        else:
            batch = (wl.sample(),)
            samples.append(batch[0])
            # set-up probes alternate with samples, so that both see the
            # same stretch of machine time
            setup.append(wl.setup_probe())
            calibrations.append(wl.runner.calibrate(wl.path("calibrate")))
        for s in batch:
            attempted += s["attempted"]
            failed += s["failed"]
        # stop before a round that would end past --seconds
        rounds = len(samples)
        elapsed = time.perf_counter() - t0
        if rounds >= (1 if trace else MIN_SAMPLES) \
                and elapsed * (rounds + 1) / rounds > seconds:
            break

    notes = {"samples": len(samples)}
    if trace:
        per = [tracer.layer_metrics(s["trace"], s["wall"]) for s in traced
               if s["trace"] is not None]
        if not per:
            return attempted, max(failed, 1), None, notes
        metrics = {k: statistics.median(p[k] for p in per) for k in per[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(s["wall"] for s in traced)
            - statistics.median(s["wall"] for s in samples))
        notes["absent"] = traced[0]["trace"]["absent"]
        notes["traced_samples"] = len(traced)
        return attempted, failed, metrics, notes

    # The host's speed drifts by up to 1.8x over minutes, in step for any
    # computation; a single calibration swings by 30% from second to second.
    # So the medians of the run are scaled by its median calibration.
    speed = CALIBRATION_REF_S / statistics.median(calibrations)
    metrics = {
        "wall_s": statistics.median(s["wall"] for s in samples) * speed,
        "setup_s": statistics.median(setup) * speed,
        "peak_rss_mib": statistics.median(s["rss_mib"] for s in samples),
    }
    if failed == 0:
        metrics["momentum_drift"] = wl.momentum_drift()
        metrics["route_gap"] = wl.route_gap()
    notes["walls"] = [round(s["wall"], 4) for s in samples]
    notes["setups"] = [round(x, 4) for x in setup]
    notes["calibrations"] = [round(x, 4) for x in calibrations]
    notes["wall_raw_s"] = statistics.median(s["wall"] for s in samples)
    notes["setup_raw_s"] = statistics.median(setup)
    return attempted, failed, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: tiny grid and length")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through Runner.spawn, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringlab", "cli.py")):
        print("perfbench: run from the root of a ringlab checkout "
              "(src/ringlab/cli.py not found)", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics(root)
    declared = per_layer if args.trace else end_to_end

    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    runner = Runner(root, started)
    try:
        wl = Workload(args.workload, args.seed, args.tiny, runner, workdir)
        print("env " + json.dumps(environment(), sort_keys=True))
        print("inputs " + json.dumps(
            {k: {"sha256": inputs.sha256(v), "text": v}
             for k, v in wl.inputs.items()}, sort_keys=True))
        try:
            attempted, failed, metrics, notes = measure(
                wl, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in wl.problems:
        print(f"check FAILED: {problem}")
    correct = failed == 0 and metrics is not None
    metrics = metrics or {}
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if correct and (missing or extra):
        print(f"perfbench: metrics {missing} missing, {extra} undeclared",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} "
          + json.dumps(notes, sort_keys=True))
    print(f"metric fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name in declared:
        if name in metrics:
            print(f"metric {name} = {metrics[name]:.6g} {declared[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]}
                    for k in declared if k in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
