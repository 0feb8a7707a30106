"""Self-test of the benchmark at a tiny grid and length (about a minute).

    python3 perfbench/selftest.py

Run from the root of a ringlab checkout.  It checks that:
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) of BENCHMARK.json is emitted for every workload, and the
    per-layer predictions cover exactly the per-layer metrics;
  * a wrapped name the program does not have is reported absent, with
    count 0, and the traced command still runs;
  * a corrupted diagnostics.csv is counted as a failed operation;
  * seed 0 reproduces docs/baseline.ini except for the lines the
    workloads set.
Exit code 0 when all hold; the failures are printed otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import inputs
import run
import tracer

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
FAILURES = []


def expect(cond, what):
    print(("ok     " if cond else "FAILED ") + what)
    if not cond:
        FAILURES.append(what)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_emitted(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            names = {m["name"] for m in spec[key]}
            expect(proc.returncode == 0 and result.get("correct") is True,
                   f"{workload} --trace {trace}: correct, exit 0 "
                   f"(exit {proc.returncode}) {proc.stderr[-300:]}")
            expect(set(result.get("metrics", {})) == names,
                   f"{workload} --trace {trace}: every {key} metric emitted")


def check_predictions(spec):
    with open(os.path.join(HERE, "predictions.json")) as fh:
        pred = json.load(fh)["per_layer"]
    layer_names = [m["name"] for m in spec["per_layer"]]
    expect(sorted(pred) == sorted(layer_names),
           "predictions.json covers exactly the per-layer metrics")
    targets = {m["name"] for m in spec["end_to_end"]} | {"fail_frac", None}
    workloads = {w["name"] for w in spec["workloads"]}
    expect(all(p["moves"] in targets and set(p["on"]) <= workloads
               for p in pred.values()),
           "each prediction names an end-to-end metric and known workloads")


def check_absent_name(workdir):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ringlab.cli

    recorder = tracer.Recorder()
    missing = [("kernel", "NoSuchTable.f", "eval"),
               ("biot_savart", "no_such_route", "direct"),
               ("no_such_layer", "run", "")]
    tracer.install(recorder, tracer.WRAPPED + missing)
    expect(sorted(recorder.absent) == sorted(f"{l}:{n}" for l, n, _ in missing),
           "missing wrapped names reported absent: "
           + ", ".join(recorder.absent))
    expect(recorder.patched.get("fields:norm_lp_3d", 0) >= 3
           and recorder.patched.get("biot_savart:solve_stream_elliptic", 0) >= 2,
           "names imported by name are patched in every binding module: "
           f"norm_lp_3d {recorder.patched.get('fields:norm_lp_3d')}, "
           "solve_stream_elliptic "
           f"{recorder.patched.get('biot_savart:solve_stream_elliptic')}")
    ini = os.path.join(workdir, "absent.ini")
    with open(ini, "w") as fh:
        fh.write(inputs.baseline_ini(0, 0.004, (0.004,), tiny=True))
    t0 = time.perf_counter()
    code = ringlab.cli.main(["simulate", "--config", ini, "--out",
                             os.path.join(workdir, "absent-runs")])
    metrics = tracer.layer_metrics(recorder.to_json(),
                                   time.perf_counter() - t0)
    expect(code == 0 and metrics["evolve.steps"] > 0
           and metrics["biot_savart.direct_points"] == 0,
           "traced command runs with absent names; their counts are 0")


def check_corrupted_diagnostics(workdir):
    runner = run.Runner(ROOT, time.perf_counter())
    wl = run.Workload("ring-evolve", 0, True, runner,
                      os.path.join(workdir, "corrupt"))
    first = wl.sample()
    second = wl.sample()
    expect(first["failed"] == 0 and second["failed"] == 0,
           "two clean samples pass their checks")
    diag = os.path.join(ROOT, wl.last_runs[0], "diagnostics.csv")
    with open(diag) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    col = header.index("momentum_z")
    row = lines[-1].split(",")
    row[col] = repr(float(row[col]) * 1.05)
    lines[-1] = ",".join(row)
    with open(diag, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    again = wl.check(second)
    expect(again["failed"] == again["attempted"] == 1,
           "corrupted diagnostics.csv counted as a failed operation "
           f"({again['failed']} of {again['attempted']}): "
           + "; ".join(wl.problems))


def check_seed_zero():
    docs = os.path.join(ROOT, "docs")
    pairs = [("baseline.ini", inputs.baseline_ini(0, 0.5, ()),
              {"t_end", "snapshot_times"})]
    for name, text, free in pairs:
        path = os.path.join(docs, name)
        if not os.path.exists(path):
            print(f"skip   docs/{name} not present")
            continue
        with open(path) as fh:
            ref = fh.read().splitlines()
        ours = text.splitlines()
        diff = [(a, b) for a, b in zip(ref, ours) if a != b]
        expect(len(ref) == len(ours) and all(
            a.split("=")[0].strip() in free for a, _ in diff),
            f"seed 0 reproduces docs/{name} except {sorted(free)}: {diff}")


def main():
    spec = benchmark_spec()
    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check_predictions(spec)
        check_seed_zero()
        check_corrupted_diagnostics(workdir)
        check_absent_name(workdir)
        check_emitted(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
