"""Command-line front end: simulate, verify, sweep, kernel-table.

Configuration is a single INI-style text file (key = value inside named
sections) that is echoed verbatim into the run manifest, so a run is fully
reproducible from its manifest alone.  All outputs of one run live in a
fresh directory named by the config hash and a timestamp; nothing is ever
overwritten.

Exit codes: 0 ok, 1 verification failure, 2 IO/config error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime as _dt
import io
import json
import math
import os
import sys
import time
from collections.abc import Sequence

import numpy as np

from . import __version__
from . import estimates as est
from . import evolve as ev
from . import fields as fl
from . import kernel as kn
from .biot_savart import solve_stream_elliptic, velocity_from_stream

__all__ = ["main", "parse_config_text", "simulate",
           "load_manifest", "standard_test_field"]

# (section, key) of the knobs that are gone.  Older configs and manifests
# still carry them, so the one value they used to run with is accepted and
# ignored.
RETIRED_KEYS = {
    ("solver", "boundary_bin"): "auto",
    ("solver", "boundary_refresh"): "4",
    ("solver", "time_scheme"): "euler",
    ("solver", "method"): "fft",
    ("time", "cfl_advect"): "0.8",
    ("time", "cfl_diffuse"): "0.45",
}
# the manifest keys verify reads
MANIFEST_KEYS = ("config_text", "config_sha256", "snapshots", "light_csv")


class UsageError(ValueError):
    pass


def _parse_ring(text):
    kv = {}
    for tok in text.split():
        k, _, v = tok.partition("=")
        if k not in ("kappa", "r0", "z0", "eps") or not v:
            raise UsageError(f"bad ring definition token {tok!r}")
        kv[k] = float(v)
    missing = {"kappa", "r0", "z0", "eps"} - set(kv)
    if missing:
        raise UsageError(f"ring definition missing {sorted(missing)}")
    return fl.RingSpec(**kv)


def parse_config_text(raw, source="<config text>"):
    """Parse the text of an INI run configuration into a SimConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(raw)
        gsec = cp["grid"]
        # indexing, not getint/getfloat: a missing key is a KeyError, not None
        grid = fl.GridSpec(
            nr=int(gsec["nr"]),
            nz=int(gsec["nz"]),
            r_max=float(gsec["r_max"]),
            z_min=float(gsec["z_min"]),
            z_max=float(gsec["z_max"]),
        )
        rings = tuple(
            _parse_ring(v) for k, v in sorted(cp["rings"].items())
        )
        signs = {np.sign(rg.kappa) for rg in rings if rg.kappa != 0.0}
        if len(signs) > 1:
            raise UsageError(
                "ring circulations must all share one sign"
            )
        tsec = cp["time"]
        snap = tuple(float(x) for x in tsec.get("snapshot_times", "").split())
        for (section, key), value in RETIRED_KEYS.items():
            sec = cp[section] if cp.has_section(section) else {}
            if str(sec.get(key, value)).strip() != value:
                raise UsageError(
                    f"[{section}] {key} is retired; only {key} = {value} "
                    f"is accepted")
        ssec = cp["solver"] if cp.has_section("solver") else {}
        # only the keys the config sets: SimConfig owns their defaults
        cadences = {key: int(ssec[key])
                    for key in ("velocity_refresh", "record_every")
                    if key in ssec}
        cfg = ev.SimConfig(
            grid=grid,
            rings=rings,
            t_end=float(tsec["t_end"]),
            snapshot_times=snap,
            **cadences,
        )
    except (KeyError, ValueError, configparser.Error,
            fl.ConfigurationError) as exc:
        raise UsageError(f"invalid config {source}: {exc}") from exc
    return cfg


def standard_test_field(rings):
    """The fixed smooth compactly supported test field used by the
    attainment suite: theta component r * bump centered on the first ring."""
    r0, z0 = rings[0].r0, rings[0].z0
    radius = 1.2 * r0

    def phi_theta(r, z):
        q = ((r - r0) ** 2 + (z - z0) ** 2) / radius**2
        out = np.zeros(np.broadcast_shapes(np.shape(r), np.shape(z)))
        inside = q < 1.0
        rr = np.broadcast_to(r, out.shape)
        vals = np.exp(-1.0 / (1.0 - q[inside])) if np.any(inside) else 0.0
        out[inside] = rr[inside] * vals
        return out

    return phi_theta


def _utcnow():
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S")


def _claim(create, stem, ext=""):
    """create(path) for the first free path of stem + ext, stem-1 + ext,
    stem-2 + ext, ...; creation itself claims the name, so concurrent
    callers never share one.  Returns (path, what create returned)."""
    suffix = 0
    while True:
        path = stem + (f"-{suffix}" if suffix else "") + ext
        try:
            return path, create(path)
        except FileExistsError:
            suffix += 1


def _make_out_root(out_root):
    """Create the directory out_root with its missing parents.  When that
    fails (out_root or a parent is a file, a name is too long, ...), the
    directories this call made are removed again and a UsageError says so."""
    missing = []
    head = os.path.abspath(out_root)
    while not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(out_root, exist_ok=True)
    except OSError as exc:
        for path in missing:    # the deepest first
            try:
                os.rmdir(path)
            except OSError:
                pass
        raise UsageError(f"cannot create run directory under {out_root}: "
                         f"{exc}") from exc


def _run_dir(out_root, cfg_hash):
    """Create a fresh run directory named by the config hash and the time,
    under out_root, which is created when missing."""
    _make_out_root(out_root)
    try:
        return _claim(os.mkdir,
                      os.path.join(out_root, f"{cfg_hash}-{_utcnow()}"))[0]
    except OSError as exc:
        raise UsageError(f"cannot create run directory under {out_root}: "
                         f"{exc}") from exc


def _sha256_hex(text):
    """Hex SHA-256 of text's UTF-8 bytes, the digest hashlib gives.

    CPython's own SHA-256 module, not hashlib: importing hashlib loads
    OpenSSL (about 3.6 MiB resident) to hash a few hundred bytes of config.
    The module is _sha2 from 3.12 and _sha256 before; hashlib only where
    the interpreter was built without either.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _read_config(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc


def cmd_simulate(args):
    raw = _read_config(args.config)
    code, _ = simulate(raw, args.out, config_path=os.path.abspath(args.config))
    return code


def simulate(raw, out_root, *, config_path=None):
    """Run the INI configuration text `raw` into a fresh directory under
    out_root; returns (exit code, run directory)."""
    cfg = parse_config_text(raw, source=config_path or "<config text>")
    cfg_hash = _sha256_hex(raw)[:12]
    run_dir = _run_dir(out_root, cfg_hash)
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    manifest = {
        "tool": "ringlab",
        "version": __version__,
        "config_path": config_path,
        "config_text": raw,
        "config_sha256": cfg_hash,
        "started_utc": started,
        "status": "running",
        "snapshots": [],
        "diagnostics_csv": None,
        "light_csv": None,
    }
    _write_manifest(run_dir, manifest)
    snap_paths = []
    total = 1 + len(ev.landing_times(cfg))
    run_started = time.perf_counter()

    def save_snapshot(t, field, steps):
        # straight from run's buffer, as it lands: no snapshot is kept
        name = f"snap_{len(snap_paths):04d}_t{t:.6f}.bin"
        fl.save_field(field, os.path.join(run_dir, name))
        snap_paths.append({"t": t, "path": name})
        print(f"simulate: t = {t:.6g} ({len(snap_paths)} of {total} "
              f"snapshots), {steps} steps, "
              f"{time.perf_counter() - run_started:.2f} s", file=sys.stderr)

    try:
        result = ev.run(cfg, on_snapshot=save_snapshot)
        result.diagnostics.to_csv(os.path.join(run_dir, "diagnostics.csv"))
        result.light_series.to_csv(os.path.join(run_dir, "light.csv"))
        error = result.audits.get("error")
        manifest.update(
            status="error" if error else "ok",
            snapshots=snap_paths,
            diagnostics_csv="diagnostics.csv",
            light_csv="light.csv",
            audits=result.audits,
            run_counters=dataclasses.asdict(result.counters),
            finished_utc=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        )
        if error:
            # partial manifest: everything up to the last valid snapshot
            manifest["error"] = error
            _write_manifest(run_dir, manifest)
            print(f"simulate: aborted: {error}", file=sys.stderr)
            return 2, run_dir
    except (ev.CFLViolation, RuntimeError, fl.ConfigurationError,
            OSError) as exc:
        manifest.update(
            status="error",
            snapshots=snap_paths,
            error=str(exc),
            finished_utc=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        )
        _write_manifest(run_dir, manifest)
        print(f"simulate: aborted: {exc}", file=sys.stderr)
        return 2, run_dir
    _write_manifest(run_dir, manifest)
    print(f"simulate: ok, {len(manifest['snapshots'])} snapshots in {run_dir}")
    return 0, run_dir


def _write_manifest(run_dir, manifest):
    """Replace manifest.json atomically: a reader sees the old or the new
    manifest, never a partial one."""
    path = os.path.join(run_dir, "manifest.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(path + ".tmp", path)


def load_manifest(path):
    """(manifest, run directory) of the manifest.json at `path`; a manifest
    that is not a JSON object with the keys verify reads, of the types it
    reads them as, is a UsageError."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise UsageError(f"manifest {path} is not a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise UsageError(f"manifest {path} lacks {missing}")
    for key in ("config_text", "light_csv"):
        if not isinstance(manifest[key], str):
            raise UsageError(f"manifest {path}: {key} is not a string")
    snaps = manifest["snapshots"]
    # every finished run has its t = 0 snapshot, and verify reads the last
    if not (isinstance(snaps, list) and snaps
            and all(map(_snapshot_entry_ok, snaps))):
        raise UsageError(f"manifest {path}: snapshots must be a non-empty "
                         "list of objects with a string path and a finite "
                         "number t")
    return manifest, os.path.dirname(os.path.abspath(path))


def _snapshot_entry_ok(entry):
    if not isinstance(entry, dict):
        return False
    t = entry.get("t")
    return (isinstance(entry.get("path"), str)
            and isinstance(t, (int, float)) and not isinstance(t, bool)
            and math.isfinite(t))


class _Snapshots(Sequence):
    """A run's snapshots as (t, eta) items, each read from its file when
    it is indexed or iterated over and not kept: a loop holds the snapshot
    it is at, not the run."""

    def __init__(self, entries):
        self._entries = entries

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, index):
        t, path = self._entries[index]
        return t, fl.load_field(path)


def _load_snapshots(manifest, run_dir):
    """The manifest's snapshots as a _Snapshots sequence of (t, eta).

    Every path is checked here, so a missing file is an IOError before any
    suite runs; a file is read only when a suite reaches its snapshot, so a
    damaged one raises SnapshotFormatError there.
    """
    entries = []
    for entry in manifest["snapshots"]:
        path = os.path.join(run_dir, entry["path"])
        if not os.path.exists(path):
            raise IOError(f"missing snapshot {path}")
        entries.append((entry["t"], path))
    return _Snapshots(entries)


def _recompute_velocity(eta):
    g = eta.grid
    omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
    psi = solve_stream_elliptic(omega)
    return velocity_from_stream(psi)


def _interpolation_reports(snaps, ctx):
    reports = []
    for t, eta in snaps:
        reports += est.interpolation_reports(
            eta, (1.0, 4.0 / 3.0, 2.0), context={**ctx, "t": t})
    # the scalar sup inequality on the latest decayed snapshot, the one
    # the loop ended at
    try:
        reports.append(est.check_scalar_sup(eta, context={**ctx, "t": t}))
    except ValueError:
        pass
    return reports


def _snapshot_velocity_reports(snapshot, ctx):
    """The velocity_lq reports at q = 2, 4, 6 and the velocity_sup report
    of one (t, eta) snapshot.  Its eta, u and |u| are dropped when this
    returns."""
    t, eta = snapshot
    return est.velocity_reports(eta, _recompute_velocity(eta),
                                (2.0, 4.0, 6.0), context={**ctx, "t": t})


def _velocity_reports(snaps, ctx):
    reports = []
    # one call per snapshot, so that each is released before the next is
    # read
    for k in range(1, len(snaps)):
        reports += _snapshot_velocity_reports(snaps[k], ctx)
    t, eta = snaps[-1]
    R = est.support_radius(eta)
    reports += est.direct_velocity_reports(
        eta, [max(20.0 * ctx["r0"], 2.5 * R)], [2.0, 4.0, 8.0],
        context={**ctx, "t": t}, support=R)
    return reports


def _decay_reports(snaps, ctx, light_path):
    reports = []
    light = est.DiagnosticsSeries.from_csv(light_path, est.LIGHT_COLUMNS)
    window = est.nash_window(light.times)
    try:
        env = est.decay_envelope(light, "eta_linf", window)
    except ValueError as exc:
        reports.append(est.EstimateReport(
            "nash_envelope_linf", math.inf, 1.0, 1.0,
            {**ctx, "error": str(exc)}))
    else:
        try:
            slope = est.fit_decay(light, "eta_linf", window)
        except ValueError:
            slope = math.nan
        cap = est.calibration()["nash_envelope_per_kappa"] * abs(ctx["kappa"])
        reports.append(est.EstimateReport(
            "nash_envelope_linf", env, cap, 1.0,
            {**ctx, "slope": slope, "window": list(window)}))
    # conservation audits recomputed from the persisted snapshots, each
    # read once for both
    l1, mom = [], []
    for _, eta in snaps:
        l1.append(fl.norm_lp_3d(eta, 1))
        mom.append(fl.signed_momentum_z(eta))
    worst_up = max(
        (l1[k + 1] - l1[k]) / max(l1[k], 1e-300)
        for k in range(len(l1) - 1)
    ) if len(l1) > 1 else 0.0
    reports.append(est.EstimateReport(
        "l1_monotone", worst_up, 1e-12, 1.0, dict(ctx)))
    drift = max(abs(m / mom[0] - 1.0) for m in mom) if mom[0] else 0.0
    reports.append(est.EstimateReport(
        "momentum_drift", drift, 0.01, 1.0, dict(ctx)))
    return reports


def _attainment_reports(snaps, ctx, rings):
    phi = standard_test_field(rings)
    eps = ctx["eps"]
    res = est.check_initial_attainment({eps: snaps}, rings, phi)
    A, B = res["envelopes"].get(eps, (math.inf, math.inf))
    # envelope domination is by construction; report the fitted shape
    # and check the pairing error at the eps^2 diagonal time
    E_diag = res["diagonal"][eps]
    scale = abs(2.0 * np.pi * ctx["kappa"] * ctx["r0"])
    return [est.EstimateReport(
        "attainment_diagonal", E_diag,
        est.calibration()["attainment_diagonal_fraction"] * scale, 1.0,
        {**ctx, "A": A, "B": B, "t_diag": eps * eps})]


def verify_reports(manifest, run_dir, suite, *, seconds=None):
    """All EstimateReports for one suite over one run's snapshots.

    Each suite is a function of its own, so the snapshot it read last is
    dropped when it returns, before the next suite reads any.  When
    seconds is a dict, the wall time of each suite that ran is put in it
    under the suite's name, in the order they ran.
    """
    cfg = parse_config_text(manifest["config_text"],
                            source=f"config echo in {run_dir}")
    snaps = _load_snapshots(manifest, run_dir)
    base_ctx = {
        "config_sha256": manifest["config_sha256"],
        "kappa": sum(rg.kappa for rg in cfg.rings),
        "eps": max(rg.eps for rg in cfg.rings),
        "r0": cfg.rings[0].r0,
    }
    suites = {
        "interpolation": lambda: _interpolation_reports(snaps, base_ctx),
        "velocity": lambda: _velocity_reports(snaps, base_ctx),
        "decay": lambda: _decay_reports(
            snaps, base_ctx,
            os.path.join(run_dir, manifest["light_csv"])),
        "attainment": lambda: _attainment_reports(snaps, base_ctx, cfg.rings),
    }
    reports = []
    for name, run in suites.items():
        if suite in (name, "all"):
            started = time.perf_counter()
            reports += run()
            if seconds is not None:
                seconds[name] = time.perf_counter() - started
    return reports


def cmd_verify(args):
    started = time.perf_counter()
    manifest, run_dir = load_manifest(args.manifest)
    if manifest.get("status") != "ok":
        print(f"verify: manifest status is {manifest.get('status')!r}",
              file=sys.stderr)
        return 2
    seconds = {}
    try:
        reports = verify_reports(manifest, run_dir, args.suite,
                                 seconds=seconds)
    except (IOError, fl.SnapshotFormatError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    # a second verify of the suite within the same second gets a suffix
    out_path, out = _claim(
        lambda path: open(path, "x"),
        os.path.join(run_dir, f"reports_{args.suite}_{_utcnow()}"), ".jsonl")
    with out:
        est.reports_to_jsonl(reports, out)
    # the cost goes to stderr: stdout and the reports must reproduce
    faults, peak_mib = ev._rusage()
    per_suite = ", ".join(f"{name} {t:.3f}" for name, t in seconds.items())
    print(f"verify: suite {args.suite} took "
          f"{time.perf_counter() - started:.3f} s ({per_suite}), peak RSS "
          f"{peak_mib:.1f} MiB, {faults} minor faults", file=sys.stderr)
    print(est.summary_table(reports))
    print(f"verify: {len(reports)} reports -> {out_path}")
    n_fail = sum(not r.passed for r in reports)
    if n_fail:
        print(f"verify: {n_fail} FAILED", file=sys.stderr)
        return 1
    return 0


def _sweep_point(payload):
    base_text, kappa, eps, grid_tuple, out_root = payload
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(base_text)
    cp["rings"] = {"ring1": f"kappa={kappa} r0=1.0 z0=0.0 eps={eps}"}
    nr, nz, r_max, z_min, z_max = grid_tuple
    cp["grid"] = {"nr": str(nr), "nz": str(nz), "r_max": repr(r_max),
                  "z_min": repr(z_min), "z_max": repr(z_max)}
    buf = io.StringIO()
    cp.write(buf)
    code, run_dir = simulate(buf.getvalue(), out_root)
    return {"kappa": kappa, "eps": eps, "grid": list(grid_tuple),
            "exit": code, "run_dir": run_dir}


def _point_envelope(point):
    """Nash sup-norm envelope of one sweep point from its light series."""
    if point["exit"] != 0 or not point["run_dir"]:
        return None
    light_path = os.path.join(point["run_dir"], "light.csv")
    try:
        light = est.DiagnosticsSeries.from_csv(light_path, est.LIGHT_COLUMNS)
        return est.decay_envelope(light, "eta_linf",
                                  est.nash_window(light.times))
    except (OSError, ValueError):
        return None


def _aggregate_sweep(results):
    """kappa-linearity fit and eps-uniformity spread of the Nash envelopes."""
    for r in results:
        r["nash_envelope"] = _point_envelope(r)
    agg = {}
    by_eps = {}
    by_kappa = {}
    for r in results:
        if r["nash_envelope"] is None:
            continue
        by_eps.setdefault((r["eps"], tuple(r["grid"])), []).append(r)
        by_kappa.setdefault((r["kappa"], tuple(r["grid"])), []).append(r)
    fits = []
    for (eps, grid), pts in by_eps.items():
        if len(pts) >= 2 and len({p["kappa"] for p in pts}) >= 2:
            slope = est.envelope_kappa_slope(
                [p["kappa"] for p in pts], [p["nash_envelope"] for p in pts])
            fits.append({"eps": eps, "grid": list(grid),
                         "kappa_fit_slope": slope})
    agg["kappa_linearity"] = fits
    spreads = []
    for (kappa, grid), pts in by_kappa.items():
        if len(pts) >= 2 and len({p["eps"] for p in pts}) >= 2:
            spread = est.envelope_spread([p["nash_envelope"] for p in pts])
            spreads.append({"kappa": kappa, "grid": list(grid),
                            "envelope_spread": spread})
    agg["eps_uniformity"] = spreads
    return agg


def _parse_grid_token(tok):
    parts = tok.split(",")
    if len(parts) != 5:
        raise UsageError(f"grid token {tok!r} needs nr,nz,r_max,z_min,z_max")
    return (int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]),
            float(parts[4]))


def cmd_sweep(args):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(_read_config(args.config))
    except configparser.Error as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if not cp.has_section("sweep"):
        print("sweep: config needs a [sweep] section", file=sys.stderr)
        return 2
    try:
        kappas = [float(x) for x in cp["sweep"].get("kappa", "").split()]
        epss = [float(x) for x in cp["sweep"].get("eps", "").split()]
        grids = [_parse_grid_token(t)
                 for t in cp["sweep"].get("grids", "").split()]
    except (ValueError, UsageError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if not kappas or not epss or not grids:
        print("sweep: kappa, eps and grids lists must be nonempty",
              file=sys.stderr)
        return 2
    cp.remove_section("sweep")
    buf = io.StringIO()
    cp.write(buf)
    base_text = buf.getvalue()
    _make_out_root(args.out)
    points = [(base_text, k, e, g, args.out)
              for k in kappas for e in epss for g in grids]
    # no more workers than points: map submits every point at once
    jobs = min(args.jobs, len(points))
    if jobs > 1:
        # imported here: multiprocessing would slow every other subcommand
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not Linux's default fork: forking is unsafe once numpy or
        # its BLAS has started threads
        with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]
    stamp = _utcnow()
    aggregates = _aggregate_sweep(results)
    agg_path = os.path.join(args.out, f"sweep_summary_{stamp}.json")
    with open(agg_path, "w") as fh:
        json.dump({"points": results, "aggregates": aggregates}, fh,
                  indent=2)
    csv_path = os.path.join(args.out, f"sweep_envelopes_{stamp}.csv")
    with open(csv_path, "w") as fh:
        fh.write("kappa,eps,nr,nz,exit,nash_envelope\n")
        for r in results:
            env = ("" if r["nash_envelope"] is None
                   else f"{r['nash_envelope']:.17g}")
            fh.write(f"{r['kappa']},{r['eps']},{r['grid'][0]},"
                     f"{r['grid'][1]},{r['exit']},{env}\n")
    n_fail = sum(r["exit"] != 0 for r in results)
    print(f"sweep: {len(results)} points, {n_fail} failed -> {agg_path}")
    return 1 if n_fail else 0


def _positive_int(text):
    """argparse type of --jobs: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return value


def cmd_kernel_table(args):
    try:
        rows = kn.tabulate(args.lo, args.hi, args.count)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        buf = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    try:
        buf.write("s,F,Fprime,regime,estimated_error\n")
        for s, Fv, F1v, tag, err in rows:
            buf.write(f"{s:.17g},{Fv:.17g},{F1v:.17g},{tag},{err:.3g}\n")
    finally:
        if args.out:
            buf.close()
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ringlab",
        description="axisymmetric vortex-ring laboratory",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="run one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run an estimate suite on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--suite", default="all",
                   choices=["interpolation", "velocity", "decay",
                            "attainment", "all"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="cartesian parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("kernel-table", help="tabulate F and F'")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_kernel_table)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, fl.ConfigurationError) as exc:
        print(f"{args.cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
