import concurrent.futures
import hashlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringlab import biot_savart as bs
from ringlab import cli
from ringlab import fields as fl

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs")

BASE_CONFIG = """\
[grid]
nr = 64
nz = 96
r_max = 4.0
z_min = -3.0
z_max = 3.0

[rings]
ring1 = kappa=1.0 r0=1.0 z0=0.0 eps=0.25

[time]
t_end = 0.02
snapshot_times = 0.01 0.02

[solver]
velocity_refresh = 4
record_every = 10
"""


# a retired key at a value other than the one it is accepted with
RETIRED_LINES = [("solver", "boundary_bin = 2"),
                 ("solver", "boundary_refresh = 1"),
                 ("solver", "time_scheme = rk2"),
                 ("solver", "method = sor"),
                 ("solver", "method = cg"),
                 ("time", "cfl_advect = 0.5"),
                 ("time", "cfl_diffuse = 0.3")]


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def latest_manifest(out_dir):
    runs = sorted(os.listdir(out_dir))
    return os.path.join(out_dir, runs[-1], "manifest.json")


def edit_manifest(text, edit):
    """The manifest JSON text after edit(manifest) has changed it in place."""
    manifest = json.loads(text)
    edit(manifest)
    return json.dumps(manifest)


class TestSimulate:
    def test_minimal_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        mani = read_json(latest_manifest(out))
        assert mani["status"] == "ok"
        assert len(mani["snapshots"]) == 3  # t = 0, 0.01, 0.02
        assert mani["audits"]["min_eta"] >= 0.0
        run_dir = os.path.dirname(latest_manifest(out))
        assert os.path.exists(os.path.join(run_dir, "diagnostics.csv"))
        for entry in mani["snapshots"]:
            assert os.path.exists(os.path.join(run_dir, entry["path"]))

    def test_manifest_run_counters(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "runs")
        before = resource.getrusage(resource.RUSAGE_SELF)
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        after = resource.getrusage(resource.RUSAGE_SELF)
        mani = read_json(latest_manifest(out))
        counters = mani["run_counters"]
        # the run's share of this process's faults, and its peak RSS in MiB
        assert 0 <= counters["minor_faults"] <= (after.ru_minflt
                                                 - before.ru_minflt)
        assert (before.ru_maxrss / 1024.0 <= counters["max_rss_mib"]
                <= after.ru_maxrss / 1024.0)
        assert counters["steps"] == mani["audits"]["steps"]
        assert counters["solves"] == (counters["refreshes"]
                                      + counters["edge_recomputes"])
        assert set(counters["dt_limiter"]) == {"advect", "diffuse", "convex"}
        for key in ("worst_residual", "worst_edge_residual"):
            assert 0.0 < counters[key] <= 1e-8
        for key in ("apply_s", "refresh_s", "record_s"):
            assert counters[key] > 0.0

    def test_t_end_zero_single_snapshot(self, tmp_path):
        text = BASE_CONFIG.replace("t_end = 0.02", "t_end = 0.0")
        text = text.replace("snapshot_times = 0.01 0.02",
                            "snapshot_times =")
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        mani = read_json(latest_manifest(out))
        assert [s["t"] for s in mani["snapshots"]] == [0.0]

    def test_mixed_sign_rings_rejected_at_parse(self, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            "ring1 = kappa=1.0 r0=1.0 z0=0.0 eps=0.25",
            "ring1 = kappa=1.0 r0=1.0 z0=-0.5 eps=0.2\n"
            "ring2 = kappa=-1.0 r0=1.5 z0=0.5 eps=0.2",
        )
        cfg = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "runs")]) == 2

    def test_invalid_config_field(self, tmp_path):
        cfg = write_config(tmp_path,
                           BASE_CONFIG.replace("nr = 64", "nr = banana"))
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "runs")]) == 2

    def test_baseline_config_parses(self):
        with open(os.path.join(DOCS, "baseline.ini")) as fh:
            raw = fh.read()
        cfg = cli.parse_config_text(raw)
        assert "boundary_bin = auto" in raw
        assert "method = fft" in raw
        assert "cfl_advect = 0.8" in raw and "cfl_diffuse = 0.45" in raw
        assert (cfg.grid.nr, cfg.grid.nz) == (200, 320)
        assert cfg.velocity_refresh == 8

    @pytest.mark.parametrize("section,line", RETIRED_LINES,
                             ids=[line for _, line in RETIRED_LINES])
    def test_retired_key_value_rejected(self, tmp_path, capsys, section,
                                        line):
        text = BASE_CONFIG.replace(f"[{section}]\n",
                                   f"[{section}]\n{line}\n")
        cfg = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "runs")]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    def test_ini_without_section_header(self, tmp_path):
        cfg = write_config(tmp_path, "nr = 64\n" + BASE_CONFIG)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("old,new", [
        ("t_end = 0.02", "t_end = inf"),
        ("r_max = 4.0", "r_max = nan"),
        ("t_end = 0.02\nsnapshot_times = 0.01 0.02",
         "t_end = nan\nsnapshot_times ="),
        ("z0=0.0", "z0=nan"),
    ], ids=["t_end_inf", "r_max_nan", "t_end_nan", "z0_nan"])
    def test_nonfinite_number_rejected_at_parse(self, tmp_path, capsys,
                                                old, new):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new))
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "runs")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    def test_overflowing_initial_norms_leave_error_manifest(self, tmp_path,
                                                           capsys):
        # eta itself is finite, but its L4 norm overflows
        text = BASE_CONFIG.replace("kappa=1.0", "kappa=1e150")
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 2
        mani = read_json(latest_manifest(out))
        assert mani["status"] == "error"
        assert "eta_l4" in mani["error"]
        assert "aborted" in capsys.readouterr().err

    def test_overflowing_initial_data_leaves_error_manifest(self, tmp_path,
                                                           capsys):
        text = BASE_CONFIG.replace("kappa=1.0", "kappa=1e308")
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 2
        mani = read_json(latest_manifest(out))
        assert mani["status"] == "error"
        assert "non-finite" in mani["error"]
        assert "aborted" in capsys.readouterr().err

    def test_manifest_running_during_run_and_atomic(self, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "runs"
        seen = []
        real_run = cli.ev.run

        def watched_run(cfg, **kwargs):
            (run,) = os.listdir(out)
            seen.append(read_json(out / run / "manifest.json"))
            return real_run(cfg, **kwargs)

        monkeypatch.setattr(cli.ev, "run", watched_run)
        code, run_dir = cli.simulate(BASE_CONFIG, str(out))
        assert code == 0
        assert seen[0]["status"] == "running"
        assert seen[0]["config_text"] == BASE_CONFIG
        assert read_json(os.path.join(run_dir, "manifest.json"))["status"] == "ok"
        assert not [f for f in os.listdir(run_dir) if f.endswith(".tmp")]

    def test_nan_velocity_solve_leaves_error_manifest(self, tmp_path,
                                                      monkeypatch, capsys):
        text = (BASE_CONFIG.replace("nr = 64", "nr = 50")
                .replace("nz = 96", "nz = 80")
                .replace("eps=0.25", "eps=0.4")
                .replace("t_end = 0.02", "t_end = 0.004")
                .replace("snapshot_times = 0.01 0.02", "snapshot_times ="))
        real = bs._solve_fft
        calls = []

        def nan_at_second_refresh(grid, rhs_eff, out):
            # calls 1 and 2 are the first refresh's zero-edge and velocity
            # solves; the second refresh reuses the edges
            calls.append(None)
            real(grid, rhs_eff, out)
            if len(calls) == 3:
                out[...] = np.nan

        monkeypatch.setattr(bs, "_solve_fft", nan_at_second_refresh)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", write_config(tmp_path, text),
                         "--out", out]) == 2
        assert len(calls) == 3
        mani = read_json(latest_manifest(out))
        assert mani["status"] == "error"
        assert mani["error"] == mani["audits"]["error"]
        assert "residual too large (relative residual nan)" in mani["error"]
        assert "aborted" in capsys.readouterr().err

    def test_progress_lines_on_stderr_only(self, tmp_path, capsys):
        # one stderr line per snapshot; stdout, diagnostics.csv and the
        # snapshots are those of the same run without the lines
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", write_config(tmp_path),
                         "--out", out]) == 0
        captured = capsys.readouterr()
        run_dir = os.path.dirname(latest_manifest(out))
        assert captured.out == f"simulate: ok, 3 snapshots in {run_dir}\n"
        lines = captured.err.splitlines()
        assert len(lines) == 3
        for k, (line, t) in enumerate(zip(lines, ("0", "0.01", "0.02"))):
            assert re.fullmatch(
                rf"simulate: t = {t} \({k + 1} of 3 snapshots\), "
                rf"\d+ steps, \d+\.\d\d s", line), line
        steps = [int(line.split(", ")[1].split()[0]) for line in lines]
        assert steps[0] == 0 < steps[1] < steps[2]

        result = cli.ev.run(cli.parse_config_text(BASE_CONFIG))
        ref = tmp_path / "ref"
        ref.mkdir()
        result.diagnostics.to_csv(str(ref / "diagnostics.csv"))
        assert Path(run_dir, "diagnostics.csv").read_bytes() == (
            ref / "diagnostics.csv").read_bytes()
        mani = read_json(os.path.join(run_dir, "manifest.json"))
        assert [s["t"] for s in mani["snapshots"]] == [
            t for t, _ in result.snapshots]
        for entry, (t, field) in zip(mani["snapshots"], result.snapshots):
            cli.fl.save_field(field, str(ref / entry["path"]))
            assert Path(run_dir, entry["path"]).read_bytes() == (
                ref / entry["path"]).read_bytes()
        assert [row["n_steps"] for row in result.diagnostics.rows] == steps

    def test_failed_snapshot_write_leaves_error_manifest(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        real = cli.fl.save_field
        calls = []

        def full_disk_at_second(field, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(28, "No space left on device", path)
            real(field, path)

        monkeypatch.setattr(cli.fl, "save_field", full_disk_at_second)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", write_config(tmp_path),
                         "--out", out]) == 2
        assert len(calls) == 2
        mani = read_json(latest_manifest(out))
        assert mani["status"] == "error"
        assert "No space left on device" in mani["error"]
        assert [s["t"] for s in mani["snapshots"]] == [0.0]
        err = capsys.readouterr().err
        assert "simulate: aborted: " in err
        assert "Traceback" not in err

    def test_run_dir_named_by_config_hash(self, tmp_path):
        code, run_dir = cli.simulate(BASE_CONFIG, str(tmp_path))
        assert code == 0
        cfg_hash = read_json(os.path.join(run_dir,
                                          "manifest.json"))["config_sha256"]
        assert cfg_hash == hashlib.sha256(
            BASE_CONFIG.encode()).hexdigest()[:12]
        assert os.path.basename(run_dir).startswith(cfg_hash + "-")

    def test_missing_config(self, tmp_path):
        assert cli.main(["simulate", "--config",
                         str(tmp_path / "nope.ini"),
                         "--out", str(tmp_path / "runs")]) == 2

    def test_determinism_bitwise(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "runs")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        first = latest_manifest(out)
        d1 = Path(os.path.dirname(first), "diagnostics.csv").read_bytes()
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        second = latest_manifest(out)
        assert os.path.dirname(first) != os.path.dirname(second)
        d2 = Path(os.path.dirname(second), "diagnostics.csv").read_bytes()
        assert d1 == d2


BASE_LINES = BASE_CONFIG.splitlines()
VALUE = re.compile(r"(?<==)\s*([^\s=]*)")
TOKENS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400",
                     "1e-320", "0", "-1", "", "banana", "%(x)s", "=",
                     "[grid]", "kappa=", "0x10", "1_0", "9" * 5000]),
    st.text(max_size=12),
)


@st.composite
def mutated_config(draw):
    """BASE_CONFIG with a few lines dropped or duplicated, or with one value
    in them replaced by a drawn token."""
    lines = list(BASE_LINES)
    edits = draw(st.lists(st.tuples(
        st.integers(0, len(BASE_LINES) - 1),
        st.sampled_from(["value", "value", "drop", "dup"]),
        TOKENS, st.integers(0, 7)), min_size=1, max_size=4))
    for k, action, token, pick in edits:
        k = min(k, len(lines) - 1)
        values = list(VALUE.finditer(lines[k]))
        if action == "value" and values:
            m = values[pick % len(values)]
            lines[k] = lines[k][:m.start(1)] + token + lines[k][m.end(1):]
        elif action == "drop":
            del lines[k]
        elif action == "dup":
            lines.insert(k, lines[k])
    return "\n".join(lines) + "\n"


class TestConfigHash:
    @pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")],
                             ids=["builtin", "hashlib_fallback"])
    @settings(max_examples=50)
    @given(text=st.text(max_size=300))
    @example(text="")
    @example(text="[rings]\nring1 = kappa=1.0 # Šverák, 渦輪, ∞\n")
    @example(text="x" * 65)
    def test_digest_is_hashlib_sha256(self, blocked, text):
        want = hashlib.sha256(text.encode()).hexdigest()
        real = hashlib.sha256
        calls = []

        def spy(data):
            calls.append(data)
            return real(data)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hashlib, "sha256", spy)
            for name in blocked:
                # None in sys.modules makes the import raise ImportError
                mp.setitem(sys.modules, name, None)
            assert cli._sha256_hex(text) == want
        # hashlib is used only when neither built-in module imports
        assert len(calls) == (1 if blocked else 0)


class TestParseConfigFuzz:
    @settings(max_examples=200)
    @given(text=mutated_config())
    def test_mutated_config_raises_only_usage_error(self, text):
        try:
            cfg = cli.parse_config_text(text)
        except cli.UsageError:
            return
        assert cfg.velocity_refresh >= 1 and cfg.record_every >= 1
        assert np.isfinite(cfg.t_end)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """manifest.json of one run that every TestVerify test verifies, so
    its directory collects their reports_* files."""
    tmp = tmp_path_factory.mktemp("verify")
    cfg = write_config(tmp)
    out = str(tmp / "runs")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    return latest_manifest(out)


def copy_run(manifest_path, dst):
    """Copy the run directory of manifest_path to dst without the reports
    that earlier verify calls left in it."""
    shutil.copytree(os.path.dirname(manifest_path), dst,
                    ignore=shutil.ignore_patterns("reports_*"))


def reports_path(stdout):
    """The report file named on verify's last stdout line."""
    return re.search(r"reports -> (\S+)$", stdout, re.M).group(1)


class TestVerify:
    def test_interpolation_suite_passes(self, run_dir, capsys):
        assert cli.main(["verify", "--manifest", run_dir,
                         "--suite", "interpolation"]) == 0
        text = Path(reports_path(capsys.readouterr().out)).read_text()
        rows = [json.loads(line) for line in text.splitlines()]
        assert all(r["pass"] for r in rows)
        assert max(r["ratio"] for r in rows) <= 1.0 + 1e-6

    def test_velocity_suite_passes(self, run_dir):
        assert cli.main(["verify", "--manifest", run_dir,
                         "--suite", "velocity"]) == 0

    def test_attainment_suite_passes(self, run_dir):
        assert cli.main(["verify", "--manifest", run_dir,
                         "--suite", "attainment"]) == 0

    def test_cost_line_on_stderr_only(self, run_dir, capsys):
        assert cli.main(["verify", "--manifest", run_dir,
                         "--suite", "decay"]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"verify: suite decay took \d+\.\d{3} s "
                            r"\(decay \d+\.\d{3}\), peak RSS "
                            r"\d+\.\d MiB, \d+ minor faults\n",
                            captured.err)
        assert "took" not in captured.out
        path = reports_path(captured.out)
        # the reports are what verify_reports makes, with no key added
        manifest, run = cli.load_manifest(run_dir)
        want = io.StringIO()
        cli.est.reports_to_jsonl(cli.verify_reports(manifest, run, "decay"),
                                 want)
        assert Path(path).read_text() == want.getvalue()
        for line in want.getvalue().splitlines():
            assert set(json.loads(line)) == {"name", "lhs", "rhs", "ratio",
                                             "threshold", "pass", "context"}

    def test_cost_line_times_each_suite(self, run_dir, capsys):
        assert cli.main(["verify", "--manifest", run_dir,
                         "--suite", "all"]) == 0
        err = capsys.readouterr().err
        match = re.fullmatch(
            r"verify: suite all took (\d+\.\d{3}) s \(interpolation "
            r"(\d+\.\d{3}), velocity (\d+\.\d{3}), decay (\d+\.\d{3}), "
            r"attainment (\d+\.\d{3})\), peak RSS \d+\.\d MiB, "
            r"\d+ minor faults\n", err)
        assert match, err
        total, *suites = map(float, match.groups())
        # each rounded to the millisecond
        assert sum(suites) <= total + 0.0025

    def test_velocity_suite_picks_sources_once(self, run_dir, tmp_path,
                                               monkeypatch):
        copy_run(run_dir, tmp_path / "copy")
        picks, directs = [], []
        source_arrays, velocity_direct = bs._source_arrays, bs.velocity_direct

        def counting_sources(omega):
            picks.append(omega)
            return source_arrays(omega)

        def counting_direct(omega, points):
            directs.append(len(points))
            return velocity_direct(omega, points)

        monkeypatch.setattr(bs, "_source_arrays", counting_sources)
        monkeypatch.setattr(bs, "velocity_direct", counting_direct)
        assert cli.main(["verify", "--manifest",
                         str(tmp_path / "copy" / "manifest.json"),
                         "--suite", "velocity"]) == 0
        # the 3 far-field probes and the 9 r_decay points of the last
        # snapshot in one call
        assert directs == [12]
        assert len(picks) == 1

    def test_velocity_suite_takes_the_support_radius_once(
            self, run_dir, tmp_path, monkeypatch):
        # the far-field probe radius and its reports share one
        # support_radius of the last snapshot
        copy_run(run_dir, tmp_path / "copy")
        radii = []
        support_radius = cli.est.support_radius

        def counting_support_radius(eta):
            radii.append(support_radius(eta))
            return radii[-1]

        monkeypatch.setattr(cli.est, "support_radius",
                            counting_support_radius)
        assert cli.main(["verify", "--manifest",
                         str(tmp_path / "copy" / "manifest.json"),
                         "--suite", "velocity"]) == 0
        assert len(radii) == 1

    def test_missing_snapshot_io_error(self, run_dir, tmp_path):
        mani = read_json(run_dir)
        mani["snapshots"][0]["path"] = "does_not_exist.bin"
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(mani))
        assert cli.main(["verify", "--manifest", str(bad),
                         "--suite", "interpolation"]) == 2

    @pytest.mark.parametrize("name,damage", [
        ("diagnostics.csv", lambda text: text.replace("\n0,", "\nabc,", 1)),
        ("diagnostics.csv",
         lambda text: text.rstrip("\n").rsplit(",", 1)[0] + "\n"),
        ("manifest.json", lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "snapshots"})),
        ("manifest.json", lambda text: json.dumps([json.loads(text)])),
        ("manifest.json", lambda text: edit_manifest(
            text, lambda m: m["snapshots"][1].pop("path"))),
        ("manifest.json", lambda text: edit_manifest(
            text, lambda m: m["snapshots"][1].pop("t"))),
        ("manifest.json", lambda text: edit_manifest(
            text, lambda m: m.update(config_text=["[grid]"]))),
        ("manifest.json", lambda text: edit_manifest(
            text, lambda m: m.update(diagnostics_csv=None))),
        ("manifest.json", lambda text: edit_manifest(
            text, lambda m: m.update(snapshots=[]))),
    ], ids=["non_numeric_token", "short_row", "manifest_without_snapshots",
            "manifest_is_a_list", "snapshot_without_path",
            "snapshot_without_t", "config_text_not_a_string",
            "diagnostics_csv_not_a_string", "no_snapshots"])
    def test_malformed_run_dir_exits_2(self, run_dir, tmp_path, capsys,
                                       name, damage):
        dst = tmp_path / "copy"
        copy_run(run_dir, dst)
        path = dst / name
        path.write_text(damage(path.read_text()))
        assert cli.main(["verify", "--manifest", str(dst / "manifest.json"),
                         "--suite", "decay"]) == 2
        assert capsys.readouterr().err.startswith("verify: ")

    def test_manifest_keeps_no_verification_key(self, run_dir, tmp_path):
        # simulate writes no such key, and a manifest that carries the
        # always-null key still verifies
        assert "verification" not in read_json(run_dir)
        dst = tmp_path / "copy"
        copy_run(run_dir, dst)
        path = dst / "manifest.json"
        path.write_text(edit_manifest(
            path.read_text(), lambda m: m.update(verification=None)))
        assert cli.main(["verify", "--manifest", str(path),
                         "--suite", "decay"]) == 0

    def test_corrupt_snapshot_header(self, run_dir, tmp_path):
        dst = tmp_path / "copy"
        copy_run(run_dir, dst)
        mani = read_json(run_dir)
        snap = Path(dst, mani["snapshots"][0]["path"])
        data = snap.read_bytes()
        snap.write_bytes(b"\x00" * 7)
        assert cli.main(["verify", "--manifest",
                         str(dst / "manifest.json"),
                         "--suite", "interpolation"]) == 2
        snap.write_bytes(data)

    def test_same_second_runs_keep_both_reports(self, run_dir, tmp_path,
                                                capsys, monkeypatch):
        dst = tmp_path / "copy"
        copy_run(run_dir, dst)
        manifest = dst / "manifest.json"
        monkeypatch.setattr(cli, "_utcnow", lambda: "20260101T000000")
        paths = []
        for tag in ("first", "second"):
            # each run's reports carry its own config hash in the context
            manifest.write_text(edit_manifest(
                manifest.read_text(),
                lambda m: m.update(config_sha256=tag)))
            assert cli.main(["verify", "--manifest", str(manifest),
                             "--suite", "decay"]) == 0
            paths.append(reports_path(capsys.readouterr().out))
        assert [os.path.basename(p) for p in paths] == [
            "reports_decay_20260101T000000.jsonl",
            "reports_decay_20260101T000000-1.jsonl"]
        assert {f for f in os.listdir(dst) if f.startswith("reports_")} == {
            os.path.basename(p) for p in paths}
        for path, tag in zip(paths, ("first", "second")):
            rows = [json.loads(line)
                    for line in Path(path).read_text().splitlines()]
            assert rows
            assert {r["context"]["config_sha256"] for r in rows} == {tag}


SUITES = ["interpolation", "velocity", "decay", "attainment", "all"]

# a 50x80 run to t = 0.04 with {count} evenly spaced snapshot times
SMALL_RUN = """\
[grid]
nr = 50
nz = 80
r_max = 5.0
z_min = -4.0
z_max = 4.0

[rings]
ring1 = kappa=1.0 r0=1.0 z0=0.0 eps=0.4

[time]
t_end = 0.04
snapshot_times = {times}

[solver]
velocity_refresh = 4
"""


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """{snapshot time count: (manifest, run directory)} for 2 and 40."""
    tmp = tmp_path_factory.mktemp("small_runs")
    runs = {}
    for count in (2, 40):
        times = " ".join(repr(0.04 * (k + 1) / count) for k in range(count))
        code, run = cli.simulate(SMALL_RUN.format(times=times), str(tmp))
        assert code == 0
        runs[count] = cli.load_manifest(os.path.join(run, "manifest.json"))
    return runs


def eager_snapshots(manifest, run_dir):
    """Reference loader: every snapshot read up front and held, in order."""
    snaps = []
    for entry in manifest["snapshots"]:
        path = os.path.join(run_dir, entry["path"])
        if not os.path.exists(path):
            raise IOError(f"missing snapshot {path}")
        snaps.append((entry["t"], fl.load_field(path)))
    return snaps


def jsonl(reports):
    buf = io.StringIO()
    cli.est.reports_to_jsonl(reports, buf)
    return buf.getvalue()


class TestLazySnapshots:
    @pytest.mark.parametrize("suite", SUITES)
    def test_reports_equal_eager_loader(self, small_runs, monkeypatch,
                                        suite):
        manifest, run = small_runs[40]
        lazy = jsonl(cli.verify_reports(manifest, run, suite))
        monkeypatch.setattr(cli, "_load_snapshots", eager_snapshots)
        assert lazy == jsonl(cli.verify_reports(manifest, run, suite))

    def test_one_loaded_snapshot_alive_at_each_read(self, small_runs,
                                                    monkeypatch):
        manifest, run = small_runs[40]
        loaded = []
        counts = []
        load = fl.load_field

        def counting_load(path):
            # what is still alive from earlier reads as this one starts
            counts.append(sum(ref() is not None for ref in loaded))
            field = load(path)
            loaded.append(weakref.ref(field))
            return field

        monkeypatch.setattr(fl, "load_field", counting_load)
        cli.verify_reports(manifest, run, "all")
        # interpolation, decay and attainment read the 41 snapshots once
        # each, velocity the 40 after t = 0 and the last again
        assert len(counts) == 164
        # the loop variable still holds the previous snapshot
        assert max(counts) == 1

    def test_velocity_suite_holds_no_snapshot_at_a_read(self, small_runs,
                                                        monkeypatch):
        manifest, run = small_runs[40]
        loaded = []
        counts = []
        load = fl.load_field

        def counting_load(path):
            counts.append(sum(ref() is not None for ref in loaded))
            field = load(path)
            loaded.append(weakref.ref(field))
            return field

        monkeypatch.setattr(fl, "load_field", counting_load)
        cli.verify_reports(manifest, run, "velocity")
        # the 40 snapshots after t = 0, then the last again
        assert len(counts) == 41
        assert max(counts) == 0

    def test_peak_independent_of_snapshot_count(self, small_runs):
        # the attainment suite reads every snapshot and keeps one number
        # per snapshot, so its peak shows any snapshot kept
        grid_array = 51 * 81 * 8
        cli.verify_reports(*small_runs[2], "attainment")  # warm caches
        peaks = []
        for count in (2, 40):
            tracemalloc.start()
            try:
                cli.verify_reports(*small_runs[count], "attainment")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < grid_array

    def test_truncated_last_snapshot_exits_2(self, run_dir, tmp_path,
                                             capsys, monkeypatch):
        dst = tmp_path / "copy"
        copy_run(run_dir, dst)
        last = Path(dst, read_json(run_dir)["snapshots"][-1]["path"])
        last.write_bytes(last.read_bytes()[:-8])
        reads = []
        load = fl.load_field

        def recording_load(path):
            reads.append(os.path.basename(path))
            return load(path)

        monkeypatch.setattr(fl, "load_field", recording_load)
        assert cli.main(["verify", "--manifest", str(dst / "manifest.json"),
                         "--suite", "all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert "payload is" in err
        # the damaged file is read only when the interpolation suite has
        # gone through the earlier snapshots
        assert reads.index(last.name) == len(reads) - 1 > 1
        assert not [f for f in os.listdir(dst)
                    if f.startswith("reports_all_")]


class TestSweep:
    def test_two_point_sweep(self, tmp_path):
        text = BASE_CONFIG + (
            "\n[sweep]\nkappa = 0.5 1.0\neps = 0.25\n"
            "grids = 64,96,4.0,-3.0,3.0\n"
        )
        cfg = write_config(tmp_path, text, "sweep.ini")
        out = str(tmp_path / "sweeps")
        assert cli.main(["sweep", "--config", cfg, "--out", out,
                         "--jobs", "1"]) == 0
        summaries = [f for f in os.listdir(out)
                     if f.startswith("sweep_summary")]
        assert summaries
        data = read_json(os.path.join(out, summaries[0]))
        rows = data["points"]
        assert len(rows) == 2
        assert all(r["exit"] == 0 for r in rows)
        assert all(r["nash_envelope"] is not None for r in rows)
        fits = data["aggregates"]["kappa_linearity"]
        assert fits and np.isfinite(fits[0]["kappa_fit_slope"])
        env_csv = [f for f in os.listdir(out)
                   if f.startswith("sweep_envelopes")]
        assert env_csv
        lines = Path(out, env_csv[0]).read_text().strip().split("\n")
        assert lines[0] == "kappa,eps,nr,nz,exit,nash_envelope"
        assert len(lines) == 3

    def test_parallel_points_get_their_own_runs(self, tmp_path):
        text = BASE_CONFIG.replace("t_end = 0.02", "t_end = 0.002").replace(
            "snapshot_times = 0.01 0.02", "snapshot_times = 0.002") + (
            "\n[sweep]\nkappa = 0.5 1.0\neps = 0.25 0.3\n"
            "grids = 64,96,4.0,-3.0,3.0\n")
        cfg = write_config(tmp_path, text, "sweep.ini")
        out = str(tmp_path / "sweeps")
        cli.main(["sweep", "--config", cfg, "--out", out, "--jobs", "2"])
        summary = [f for f in os.listdir(out) if f.startswith("sweep_summary")]
        rows = read_json(os.path.join(out, summary[0]))["points"]
        assert len(rows) == 4
        assert len({r["run_dir"] for r in rows}) == 4
        for r in rows:
            assert r["exit"] == 0
            mani = read_json(os.path.join(r["run_dir"], "manifest.json"))
            ring = cli.parse_config_text(mani["config_text"]).rings[0]
            assert (ring.kappa, ring.eps) == (r["kappa"], r["eps"])
        # nothing but run directories and the two summaries in out_root
        assert all(os.path.isdir(os.path.join(out, f))
                   for f in os.listdir(out) if not f.startswith("sweep_"))

    def test_jobs_capped_at_point_count(self, tmp_path, monkeypatch):
        workers = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                workers.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        text = BASE_CONFIG.replace("t_end = 0.02", "t_end = 0.002").replace(
            "snapshot_times = 0.01 0.02", "snapshot_times = 0.002") + (
            "\n[sweep]\nkappa = 0.5 1.0 2.0\neps = 0.25\n"
            "grids = 64,96,4.0,-3.0,3.0\n")
        cfg = write_config(tmp_path, text, "sweep.ini")
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "s"), "--jobs", "1000"]) == 0
        assert workers == [(3, "spawn")]

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        text = BASE_CONFIG + (
            "\n[sweep]\nkappa = 0.5\neps = 0.25\n"
            "grids = 64,96,4.0,-3.0,3.0\n")
        cfg = write_config(tmp_path, text, "sweep.ini")
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", cfg, "--out", str(out),
                      "--jobs", jobs])
        assert exc.value.code == 2
        assert (f"argument --jobs: must be an integer of at least 1, got "
                f"{jobs!r}" in capsys.readouterr().err)
        assert not out.exists()

    def test_empty_lists_usage_error(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nkappa =\neps = 0.25\ngrids =\n"
        cfg = write_config(tmp_path, text, "sweep.ini")
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "s")]) == 2

    def test_ini_without_section_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nr = 3\n" + BASE_CONFIG, "sweep.ini")
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith("sweep: ")

    def test_missing_section(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "s")]) == 2


class TestKernelTable:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        assert cli.main(["kernel-table", "--lo", "1e-4", "--hi", "1e4",
                         "--count", "50", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,F,Fprime,regime,estimated_error"
        assert len(lines) == 51
        F = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(F, F[1:]))
        regimes = {line.split(",")[3] for line in lines[1:]}
        assert regimes == {"elliptic", "hypergeometric"}

    def test_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        assert cli.main(["kernel-table", "--lo", "0.5", "--hi", "0.5",
                         "--count", "1", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize("argv", [
        ["--lo", "-1", "--hi", "1", "--count", "5"],
        ["--lo", "nan", "--hi", "1"],
        ["--lo", "1", "--hi", "inf", "--count", "3"],
        ["--lo", "1", "--hi", "1e400"],
        ["--lo", "1", "--hi", "2", "--count", "0"],
        ["--lo", "1", "--hi", "2", "--out", "{tmp}/missing/table.csv"],
    ], ids=["negative_lo", "nan_lo", "inf_hi", "overflow_hi", "zero_count",
            "out_in_missing_dir"])
    def test_bad_input_exits_2(self, tmp_path, capsys, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert cli.main(["kernel-table", *argv]) == 2
        assert capsys.readouterr().err.startswith("kernel-table: ")


# simulate, then verify --suite all, in one fresh interpreter; prints the
# two exit codes and the scipy modules loaded by then
CHILD = """\
import json, os, sys
from ringlab import cli
config, out = sys.argv[1:3]
codes = [cli.main(["simulate", "--config", config, "--out", out])]
run = os.path.join(out, sorted(os.listdir(out))[-1], "manifest.json")
codes.append(cli.main(["verify", "--manifest", run, "--suite", "all"]))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy"), "pool": sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("concurrent", "multiprocessing"))}))
"""


# simulate, then verify alone, in one fresh interpreter with ctypes.CDLL
# wrapped before ringlab is imported; prints their exit codes, the hashlib
# modules loaded by then and the libraries loaded through ctypes.CDLL
VERIFY_CHILD = """\
import ctypes, json, os, sys
loaded = []
cdll = ctypes.CDLL
def counting_cdll(name, *args, **kwargs):
    loaded.append(name)
    return cdll(name, *args, **kwargs)
ctypes.CDLL = counting_cdll
from ringlab import cli
config, out, manifest = sys.argv[1:4]
codes = [cli.main(["simulate", "--config", config, "--out", out]),
         cli.main(["verify", "--manifest", manifest, "--suite", "all"])]
print(json.dumps({"codes": codes, "hashlib": sorted(
    m for m in sys.modules if m in ("hashlib", "_hashlib")),
    "cdll": loaded}))
"""


# simulate alone in one fresh interpreter; prints its exit code, the
# OpenSSL-backed hashlib module if loaded, the manifest's config hash and
# the run directory's name
SIMULATE_CHILD = """\
import json, os, sys
from ringlab import cli
config, out = sys.argv[1:3]
code = cli.main(["simulate", "--config", config, "--out", out])
run = sorted(os.listdir(out))[-1]
with open(os.path.join(out, run, "manifest.json")) as fh:
    cfg_hash = json.load(fh)["config_sha256"]
print(json.dumps({"code": code, "openssl": "_hashlib" in sys.modules,
                  "config_sha256": cfg_hash, "run_dir": run}))
"""


class TestRuntimeImports:
    def test_simulate_loads_no_openssl(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", SIMULATE_CHILD, write_config(tmp_path),
             str(tmp_path / "runs")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = hashlib.sha256(BASE_CONFIG.encode()).hexdigest()[:12]
        assert (result["code"], result["openssl"]) == (0, False)
        assert result["config_sha256"] == want
        assert result["run_dir"].startswith(want + "-")

    def test_simulate_and_verify_load_no_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, write_config(tmp_path),
             str(tmp_path / "runs")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"codes": [0, 0], "scipy": [], "pool": []}

    def test_verify_loads_no_openssl(self, run_dir, tmp_path):
        # and neither simulate nor verify loads a library through ctypes
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_CHILD, write_config(tmp_path),
             str(tmp_path / "runs"), run_dir],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"codes": [0, 0], "hashlib": [], "cdll": []}
