"""Span tracing around the public functions of the ringlab modules.

Run as a program, it is a drop-in for the `ringlab` command that records
one span per call into a wrapped function and writes the spans out when
the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json simulate --config a.ini

Imported, it gives the benchmark `layer_metrics`, which folds a spans file
into the per-layer metrics.  The program itself is never edited: the
wrappers are installed from outside, on every ringlab module that binds a
wrapped name (evolve imports norm_lp_3d by name, cli imports
solve_stream_elliptic by name), and a name that a later version of the
program no longer has is reported absent, with count 0, not as an error.
"""

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("kernel", "fields", "biot_savart", "evolve", "estimates", "cli")

# (layer, name in ringlab.<layer>, tag).  The tag selects the per-layer
# metric a span feeds; "" only attributes the span's time to its layer.
# Every other public function a layer module defines is wrapped untagged.
WRAPPED = [
    ("kernel", "KernelTable.__init__", "table_build"),
    ("kernel", "default_table", ""),
    ("kernel", "KernelTable.f", "eval"),
    ("kernel", "KernelTable.fp", "eval"),
    ("kernel", "f_eval", "eval"),
    ("kernel", "f_deriv", "eval"),
    ("kernel", "f_details", "eval"),
    ("biot_savart", "solve_stream_elliptic", "solve"),
    ("biot_savart", "BoundaryOperator.__init__", "boundary_build"),
    ("biot_savart", "BoundaryOperator.apply", "boundary"),
    ("biot_savart", "boundary_from_quadrature", "boundary"),
    ("biot_savart", "stream_direct", "direct"),
    ("biot_savart", "velocity_direct", "direct"),
    ("biot_savart", "velocity_from_stream", "velocity"),
    ("evolve", "StepOperator.__init__", "op_build"),
    ("evolve", "StepOperator.apply", "step"),
    ("evolve", "cfl_dt", "cfl"),
    ("fields", "save_field", "io"),
    ("fields", "load_field", "io"),
    ("fields", "norm_lp_3d", "norm"),
    ("fields", "weighted_moment", "norm"),
    ("fields", "signed_momentum_z", "norm"),
    ("fields", "weighted_centroid_z", "norm"),
    ("estimates", "DiagnosticsSeries.record", "record"),
    ("estimates", "check_interpolation", "check"),
    ("estimates", "check_velocity_lq", "check"),
    ("estimates", "check_velocity_sup", "check"),
    ("estimates", "check_scalar_sup", "check"),
    ("estimates", "check_far_field", "check"),
    ("estimates", "check_initial_attainment", "check"),
    ("estimates", "r_decay_report", "check"),
    ("cli", "main", ""),
]


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _size(value):
    import numpy as np

    return int(np.size(value)) if value is not None else 0


def _n_points(value):
    import numpy as np

    return len(np.atleast_2d(np.asarray(value, dtype=float)))


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# What a span counts, by tag: kernel s-values, quadrature evaluation
# points, or snapshot bytes.  Counted after the span has ended.
_COUNTERS = {
    "eval": lambda name, a, k: _size(_arg(a, k, 1 if "." in name else 0, "s")),
    "direct": lambda name, a, k: _n_points(_arg(a, k, 1, "points")),
    "io": lambda name, a, k: _file_size(
        _arg(a, k, 1, "path") if name == "save_field"
        else _arg(a, k, 0, "path")),
}


class Recorder:
    """Spans kept in memory: [key, parent, start, end, count]."""

    def __init__(self):
        self.keys = []          # key index -> (layer, name, tag)
        self.spans = []
        self.stack = []
        self.errors = 0
        self.absent = []
        self.patched = {}       # "layer:name" -> number of bindings patched

    def wrap(self, fn, layer, name, tag, error_type):
        key = len(self.keys)
        self.keys.append((layer, name, tag))
        counter = _COUNTERS.get(tag)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([key, stack[-1] if stack else -1, clock(), 0.0, 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count a solver error once, at the innermost wrapper
                if (error_type is not None and isinstance(exc, error_type)
                        and not getattr(exc, "_perfbench_counted", False)):
                    exc._perfbench_counted = True
                    self.errors += 1
                raise
            finally:
                spans[idx][3] = clock()
                stack.pop()
                if counter is not None:
                    spans[idx][4] = counter(name, args, kwargs)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def to_json(self):
        return {"keys": self.keys, "spans": self.spans, "errors": self.errors,
                "absent": self.absent, "patched": self.patched}


def _ringlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ringlab" or n.startswith("ringlab."))]


def _rebind(original, wrapper):
    """Point every ringlab module binding `original` at `wrapper`."""
    n = 0
    for mod in _ringlab_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def install(recorder, wrapped=WRAPPED):
    """Wrap the named functions, then every other public function that a
    layer module defines.  Names that do not exist are recorded absent."""
    import importlib

    import ringlab.cli  # noqa: F401  (imports every layer module)

    try:
        from ringlab.biot_savart import SolverError
    except ImportError:
        SolverError = None

    for layer, name, tag in wrapped:
        try:
            mod = importlib.import_module(f"ringlab.{layer}")
        except ImportError:
            recorder.absent.append(f"{layer}:{name}")
            continue
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or not hasattr(owner, attr):
            recorder.absent.append(f"{layer}:{name}")
            continue
        if owner_name:
            raw = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(raw):
                recorder.absent.append(f"{layer}:{name}")
                continue
            setattr(owner, attr, recorder.wrap(raw, layer, name, tag,
                                               SolverError))
            recorder.patched[f"{layer}:{name}"] = 1
        else:
            original = getattr(mod, attr)
            wrapper = recorder.wrap(original, layer, name, tag, SolverError)
            recorder.patched[f"{layer}:{name}"] = _rebind(original, wrapper)

    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"ringlab.{layer}")
        except ImportError:
            continue
        for attr, value in sorted(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or getattr(value, "__wrapped_by_perfbench__", False)
                    or value.__module__ != mod.__name__):
                continue
            wrapper = recorder.wrap(value, layer, attr, "", SolverError)
            recorder.patched[f"{layer}:{attr}"] = _rebind(value, wrapper)


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    import ringlab.cli

    try:
        code = ringlab.cli.main(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(recorder.to_json(), fh)
    return code


# ---------------------------------------------------------------------------
# parent side: spans -> per-layer metrics

def layer_metrics(trace, process_wall_s):
    """Per-layer counts, busy time and self time of one traced process.

    Busy times are inclusive: a span nested in another span of a different
    tag counts toward both (boundary_from_quadrature calls stream_direct).
    A span nested in a span of its own tag counts once, at the outermost.
    """
    keys = [tuple(k) for k in trace["keys"]]
    spans = trace["spans"]
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child_time[s[1]] += dur[i]

    def ancestors_tags(i):
        tags = set()
        p = spans[i][1]
        while p >= 0:
            tags.add(keys[spans[p][0]][2])
            p = spans[p][1]
        return tags

    busy, count, n = {}, {}, {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    useful_builds = 0
    root = 0.0
    for i, s in enumerate(spans):
        layer, name, tag = keys[s[0]]
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child_time[i]
        if s[1] < 0:
            root += dur[i]
        if not tag:
            continue
        above = ancestors_tags(i)
        if tag == "op_build" and "cfl" not in above:
            useful_builds += 1
        if tag in above or (tag == "eval" and "table_build" in above):
            continue
        busy[tag] = busy.get(tag, 0.0) + dur[i]
        count[tag] = count.get(tag, 0) + s[4]
        n[tag] = n.get(tag, 0) + 1

    builds = n.get("op_build", 0)
    metrics = {
        "kernel.table_build_s": busy.get("table_build", 0.0),
        "kernel.points": count.get("eval", 0),
        "kernel.eval_s": busy.get("eval", 0.0),
        "biot_savart.solves": n.get("solve", 0),
        "biot_savart.solve_s": busy.get("solve", 0.0),
        "biot_savart.boundary_s": busy.get("boundary", 0.0),
        "biot_savart.boundary_build_s": busy.get("boundary_build", 0.0),
        "biot_savart.direct_points": count.get("direct", 0),
        "biot_savart.direct_s": busy.get("direct", 0.0),
        "biot_savart.velocity_s": busy.get("velocity", 0.0),
        "biot_savart.errors": trace["errors"],
        "evolve.steps": n.get("step", 0),
        "evolve.apply_s": busy.get("step", 0.0),
        "evolve.op_builds": builds,
        "evolve.op_build_s": busy.get("op_build", 0.0),
        "evolve.op_build_useful_ratio":
            useful_builds / builds if builds else 0.0,
        "evolve.cfl_s": busy.get("cfl", 0.0),
        "fields.io_bytes": count.get("io", 0),
        "fields.io_s": busy.get("io", 0.0),
        "fields.norm_calls": n.get("norm", 0),
        "fields.norm_s": busy.get("norm", 0.0),
        "estimates.record_s": busy.get("record", 0.0),
        "estimates.checks": n.get("check", 0),
        "estimates.check_s": busy.get("check", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["trace.coverage"] = root / process_wall_s if process_wall_s else 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
