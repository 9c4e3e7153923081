"""Command-line behavior: config handling, manifests, files, determinism."""

import ast
import concurrent.futures
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from watermelon import acceptance, cli, grsk, kernels
from watermelon.cli import git_revision, main, resolve_workers
from watermelon.errors import WatermelonError
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import BridgeSpec, sample_bridge


def run(args):
    return main(args)


class TestSample:
    def test_enumeration_listing(self, tmp_path):
        out = tmp_path / "enum"
        code = run(
            ["sample", "--d", "2", "--n-star", "2", "--x-star", "0",
             "--enumerate-all", "--out-dir", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"]["enumeration_count"] == 3
        assert len(list(out.glob("trajectory_*.csv"))) == 3

    def test_two_step_smoke(self, tmp_path):
        out = tmp_path / "smoke"
        code = run(
            ["sample", "--d", "1", "--n-star", "2", "--x-star", "0",
             "--count", "2", "--seed", "5", "--out-dir", str(out)]
        )
        assert code == 0
        rows = (out / "trajectory_00000.csv").read_text().splitlines()
        assert rows[0] == "step,walker_1"
        assert len(rows) == 4

    def test_budget_refusal(self, tmp_path):
        code = run(
            ["sample", "--d", "4", "--n-star", "40", "--x-star", "0",
             "--enumerate-all", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2

    def test_seed_mandatory(self, tmp_path):
        code = run(
            ["sample", "--d", "1", "--n-star", "2", "--x-star", "0",
             "--count", "1", "--out-dir", str(tmp_path / "y")]
        )
        assert code == 2

    # sha256 of every data file of one small run; the files hold integers
    # only, so the bytes are the same on every platform
    PINNED = {
        "trajectory_00000.csv": "b405b16322e4c5a12b002e93a0f1ffc66b5b7876be30271aa230a42730d38971",
        "trajectory_00000.json": "55556e8347f039894457bc0484cdf3dedfd856bc90366fe0c6b7d4977b3c8969",
        "trajectory_00001.csv": "dcf0a59150c03dd72f7d9806b039a3d2d631e1f1b8c38da83180c4c49c62968d",
        "trajectory_00001.json": "536c3a18bec1b592ec3af65fddd2c12fc9386b447a81ec49df8bc7a034cd3641",
        "trajectory_00002.csv": "91fdf31745b8a3c732a332309d233e8ae83d8b125a8f5d3a8b21e51afa79876c",
        "trajectory_00002.json": "26e2f47890e481377988e7d6c19b01d96f4d7f8e2e731c5b17b1b78b77fa41e9",
    }

    def test_files_are_pinned(self, tmp_path):
        out = tmp_path / "s"
        assert run(["sample", "--d", "2", "--n-star", "6", "--x-star", "0",
                    "--count", "3", "--seed", "99", "--out-dir", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.name != "manifest.json"}
        assert digests == self.PINNED
        manifest = json.loads((out / "manifest.json").read_text())
        assert [Path(p).name for p in manifest["outputs"]] == sorted(self.PINNED)

    def test_replay_from_envelope(self, tmp_path):
        out = tmp_path / "s"
        assert run(["sample", "--d", "2", "--n-star", "6", "--x-star", "2",
                    "--count", "2", "--seed", "3", "--out-dir", str(out)]) == 0
        for i in range(2):
            with open(out / f"trajectory_{i:05d}.csv", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == ["step", "walker_1", "walker_2"]
            assert [int(r[0]) for r in rows] == list(range(7))
            envelope = json.loads((out / f"trajectory_{i:05d}.json").read_text())
            spec = BridgeSpec(**envelope["spec"])
            s = sample_bridge(spec, SeedRecord(**envelope["seed_record"]))
            assert s.trajectory.tolist() == [[int(v) for v in r[1:]] for r in rows]

    def test_deterministic_given_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["sample", "--d", "2", "--n-star", "6", "--x-star", "0",
                 "--count", "1", "--seed", "99", "--out-dir", str(out)])
            outs.append((out / "trajectory_00000.csv").read_text())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1, "n_star": 2, "x_star": 0, "count": 1, "seed": 3}))
        out = tmp_path / "out"
        code = run(["--config", str(cfg), "sample", "--count", "2", "--out-dir", str(out)])
        assert code == 0
        assert len(list(out.glob("trajectory_*.csv"))) == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WATERMELON_OUTPUT_ROOT", str(tmp_path))
        code = run(["sample", "--d", "1", "--n-star", "2", "--x-star", "0",
                    "--count", "1", "--seed", "1", "--out-dir", "nested"])
        assert code == 0
        assert (tmp_path / "nested" / "manifest.json").exists()


class TestBadInputs:
    """Inputs that used to crash or pass vacuously exit 2 and create no out dir."""

    def _run_with_config(self, tmp_path, capsys, payload, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        code = run(["--config", str(cfg), *args, "--out-dir", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload,args", [
        ({}, ["sample", "--d", "4", "--n-star", "40", "--enumerate-all"]),
        ({}, ["kernels", "--d", "1", "--t-star", "-1"]),
        ({}, ["polymer", "--seed", "3", "--d", "1", "--t-star", "-1"]),
        ({}, ["grsk", "--seed", "5", "--d", "2", "--N-list", "1", "--replicas", "4"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "12", "--window", "2", "3"]),
        ({}, ["verify", "--criteria", "99"]),
        ({}, ["overlap", "--seed", "3", "--d", "2", "--N-list", "12", "16", "--replicas", "200",
              "--k-max", "2", "--window", "nan", "0.5"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "12", "--replicas", "1"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "12", "--replicas", "0"]),
        ({}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16", "--replicas", "1",
              "--inner-paths", "4"]),
    ], ids=["sample", "kernels", "polymer", "grsk", "overlap", "verify", "overlap_nan_window",
            "overlap_one_replica", "overlap_no_replicas", "polymer_one_replica"])
    def test_failing_command_creates_no_out_dir(self, tmp_path, capsys, payload, args):
        self._run_with_config(tmp_path, capsys, payload, args)

    @pytest.mark.parametrize("args", [
        ["kernels", "--d", "1"],
        ["polymer", "--seed", "3", "--d", "1", "--replicas", "4", "--inner-paths", "4"],
        ["grsk", "--seed", "5", "--d", "2", "--replicas", "4"],
    ])
    def test_empty_n_list(self, tmp_path, capsys, args):
        self._run_with_config(tmp_path, capsys, {"N_list": []}, args)

    def test_unknown_config_key(self, tmp_path, capsys):
        self._run_with_config(tmp_path, capsys, {"foo": 1},
                              ["sample", "--d", "1", "--n-star", "2", "--enumerate-all"])

    def test_kernels_needs_two_scales(self, tmp_path, capsys):
        out = tmp_path / "k"
        code = run(["kernels", "--d", "1", "--N-list", "50", "--out-dir", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        ("sample", "--workers"), ("kernels", "--workers"), ("polymer", "--workers"),
        ("grsk", "--workers"), ("overlap", "--workers"), ("kernels", "--seed"),
        ("verify", "--seed"), ("verify", "--d"),
    ])
    def test_flags_the_command_ignores_are_rejected(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "7", "--out-dir", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


class TestKernelsCommand:
    def test_convergence_outputs(self, tmp_path):
        out = tmp_path / "k"
        code = run(["kernels", "--d", "1", "--t-star", "1.0", "--z-star", "0.0",
                    "--N-list", "32", "64", "128", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "kernel_convergence.csv").read_text().splitlines()
        assert lines[0].startswith("N,pair_id")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"]["duplicate_query_is_zero"] is True

    def test_csv_and_summary_files(self, tmp_path):
        out = tmp_path / "k"
        assert run(["kernels", "--d", "1", "--N-list", "32", "64", "--out-dir", str(out)]) == 0
        grid = kernels.convergence_grid(kernels.ContinuumEndpoint(1.0, 0.0), 0.1, 0.1, 2.0)
        raw = (out / "kernel_convergence.csv").read_bytes()
        lines = raw.decode().split("\r\n")
        assert lines[0] == "N,pair_id,t,z,t_prime,z_prime,K_N,K,abs_err"
        assert lines[-1] == "" and len(lines) == 2 + 2 * len(grid)
        summary = json.loads((out / "kernel_convergence_summary.json").read_text())
        assert summary.keys() == {"sup_error", "slope", "decreasing", "note"}
        assert list(summary["sup_error"]) == ["32", "64"]

    def test_nonzero_duplicate_query_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "rescaled_psi_k", lambda *args: 0.5)
        out = tmp_path / "k"
        code = run(["kernels", "--N-list", "20", "40", "--out-dir", str(out)])
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"]["duplicate_query_is_zero"] is False
        assert manifest["assertions"]["sup_error_decreasing"] is True


class TestPolymerCommand:
    def test_beta_zero_mean_one(self, tmp_path):
        out = tmp_path / "p"
        code = run(["polymer", "--seed", "3", "--beta", "0.0", "--d", "1",
                    "--N-list", "16", "--replicas", "20", "--inner-paths", "8",
                    "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "polymer_report.json").read_text())
        lv = payload["levels"][0]
        assert lv["centered_mean_interior_sites"] == pytest.approx(1.0)
        assert lv["centered_se_interior_sites"] == pytest.approx(0.0)

    def test_report_and_draws_files(self, tmp_path):
        out = tmp_path / "p"
        assert run(["polymer", "--seed", "14", "--beta", "0.4", "--d", "1",
                    "--N-list", "16", "32", "--replicas", "20", "--inner-paths", "8",
                    "--out-dir", str(out)]) == 0
        report = json.loads((out / "polymer_report.json").read_text())
        assert [lv["N"] for lv in report["levels"]] == [16, 32]
        lines = (out / "polymer_draws.csv").read_text().splitlines()
        assert lines[0] == "N,replica,centered_Z_interior_sites"
        assert len(lines) == 1 + 2 * 20
        assert [r.split(",")[:2] for r in lines[1:3]] == [["16", "0"], ["16", "1"]]

    def test_sigma_ratio_column_present(self, tmp_path):
        out = tmp_path / "p2"
        run(["polymer", "--seed", "4", "--beta", "1.0", "--d", "1",
             "--N-list", "16", "64", "--replicas", "10", "--inner-paths", "8",
             "--out-dir", str(out)])
        payload = json.loads((out / "polymer_report.json").read_text())
        ratios = [lv["sigma_ratio"] for lv in payload["levels"]]
        assert ratios[0] < ratios[1] < 2.0


class TestGrskCommand:
    def test_oracle_assertions(self, tmp_path):
        out = tmp_path / "g"
        code = run(["grsk", "--seed", "5", "--beta", "1.0", "--d", "2",
                    "--N-list", "16", "--replicas", "10", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"]["lgv_equals_enumeration"] is True
        assert manifest["assertions"]["log_dp_matches_lgv"] is True
        assert manifest["assertions"]["all_ones_count_matches"] is True

    def test_wrong_log_dp_fails(self, tmp_path, monkeypatch):
        real = grsk.log_tau_lgv
        monkeypatch.setattr(grsk, "log_tau_lgv", lambda log_w, d: real(log_w, d) + 1e-6)
        out = tmp_path / "g"
        code = run(["grsk", "--seed", "5", "--beta", "1.0", "--d", "2",
                    "--N-list", "16", "--replicas", "10", "--out-dir", str(out)])
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"]["log_dp_matches_lgv"] is False
        assert manifest["assertions"]["lgv_equals_enumeration"] is True


class TestOverlapCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run(["overlap", "--seed", "6", "--d", "2", "--N-list", "12", "16",
                    "--replicas", "1500", "--k-max", "2", "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "overlap_summary.json").read_text())
        assert payload["l2_bound"]["holds"] is True

    def test_moments_csv(self, tmp_path):
        out = tmp_path / "o"
        assert run(["overlap", "--seed", "17", "--d", "1", "--N-list", "16", "--replicas", "200",
                    "--k-max", "2", "--t-grid", "0.5", "1.0", "--out-dir", str(out)]) in (0, 1)
        lines = (out / "overlap_moments.csv").read_text().splitlines()
        assert lines[0] == "N,t,k,moment_over_k_factorial,se"
        assert [r.split(",")[:3] for r in lines[1:]] == [
            ["16", "0.5", "1"], ["16", "0.5", "2"], ["16", "1.0", "1"], ["16", "1.0", "2"]]

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_k_max_below_one_rejected(self, tmp_path, k_max):
        code = run(["overlap", "--seed", "6", "--d", "2", "--N-list", "12", "16",
                    "--replicas", "100", "--k-max", k_max, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_window_outside_bridge_rejected(self, tmp_path):
        # rejected before any sampling: no moments file is left behind
        code = run(["overlap", "--seed", "6", "--d", "2", "--N-list", "12",
                    "--replicas", "100", "--k-max", "2", "--window", "2", "3",
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_defaults_follow_t_star(self, tmp_path):
        out = tmp_path / "o"
        code = run(["overlap", "--seed", "3", "--d", "2", "--N-list", "12",
                    "--replicas", "100", "--k-max", "2", "--t-star", "0.5",
                    "--out-dir", str(out)])
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["window"] == [0.0, 0.5]
        assert config["t_grid"] == [0.05, 0.125, 0.25, 0.5]
        rows = (out / "overlap_moments.csv").read_text().splitlines()[1:]
        assert sorted({float(r.split(",")[1]) for r in rows}) == config["t_grid"]

    def test_time_beyond_t_star_rejected(self, tmp_path):
        code = run(["overlap", "--seed", "3", "--d", "2", "--N-list", "12",
                    "--replicas", "100", "--k-max", "2", "--t-star", "0.5",
                    "--window", "0", "0.5", "--t-grid", "0.25", "1.0",
                    "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_empty_n_list_in_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_list": []}))
        code = run(["--config", str(cfg), "overlap", "--seed", "6", "--d", "2",
                    "--replicas", "100", "--k-max", "2", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()


SHA = "0123456789abcdef0123456789abcdef01234567"


class TestGitRevision:
    def _enum_manifest(self, tmp_path):
        out = tmp_path / "enum"
        assert run(["sample", "--d", "1", "--n-star", "2", "--enumerate-all",
                    "--out-dir", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_manifest_records_checkout_revision(self, tmp_path):
        want = git_revision(Path(cli.__file__).resolve().parent)
        if (Path(cli.__file__).resolve().parents[2] / ".git").exists():
            assert want is not None and len(want) == 40
        assert self._enum_manifest(tmp_path)["git_revision"] == want

    def test_manifest_outside_checkout_is_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_source_revision", lambda: git_revision(tmp_path))
        manifest = self._enum_manifest(tmp_path)
        assert "git_revision" in manifest and manifest["git_revision"] is None

    def test_loose_ref(self, tmp_path):
        (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (tmp_path / ".git" / "refs" / "heads" / "main").write_text(SHA + "\n")
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        assert git_revision(tmp_path / "src" / "pkg") == SHA

    def test_packed_ref_and_detached_head(self, tmp_path):
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/dev\n")
        (tmp_path / ".git" / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/main\n{SHA} refs/heads/dev\n^{'e' * 40}\n"
        )
        assert git_revision(tmp_path) == SHA
        (tmp_path / ".git" / "HEAD").write_text(SHA + "\n")
        assert git_revision(tmp_path) == SHA

    def test_worktree_gitdir_file(self, tmp_path):
        common = tmp_path / "main" / ".git"
        linked = common / "worktrees" / "wt"
        (common / "refs" / "heads").mkdir(parents=True)
        linked.mkdir(parents=True)
        (common / "refs" / "heads" / "topic").write_text(SHA + "\n")
        (linked / "HEAD").write_text("ref: refs/heads/topic\n")
        (linked / "commondir").write_text("../..\n")
        (tmp_path / "wt").mkdir()
        (tmp_path / "wt" / ".git").write_text(f"gitdir: {linked}\n")
        assert git_revision(tmp_path / "wt") == SHA

    def test_unborn_branch_and_no_checkout(self, tmp_path):
        assert git_revision(tmp_path) is None
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        assert git_revision(tmp_path) is None


class TestVerifyCommand:
    def test_subset_pass(self, tmp_path):
        out = tmp_path / "v"
        code = run(["verify", "--criteria", "4", "5", "7", "14", "16",
                    "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(v for k, v in manifest["assertions"].items())
        criteria = manifest["criteria"]
        assert criteria.keys() == manifest["assertions"].keys()
        for rec in criteria.values():
            assert rec.keys() == {"seconds", "cpu_seconds", "load_avg", "limit_seconds", "detail"}
            assert rec["seconds"] >= 0 and isinstance(rec["detail"], str)
            assert rec["cpu_seconds"] >= 0
            assert len(rec["load_avg"]) == 3 and all(v >= 0 for v in rec["load_avg"])
        assert criteria["criterion_07_discrete_tanaka"]["limit_seconds"] == 5.0


class FakePool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list[int] = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkers:
    def test_zero_resolves_to_available_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert resolve_workers(0, 16) == 16
        assert resolve_workers(0, 3) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert resolve_workers(0, 16) == 2
        assert resolve_workers(5, 16) == 5
        assert resolve_workers(1, 16) == 1

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(WatermelonError):
            resolve_workers(-1, 4)
        code = run(["verify", "--criteria", "7", "--workers", "-1",
                    "--out-dir", str(tmp_path / "v")])
        assert code == 2

    def test_verify_uses_resolved_pool(self, tmp_path, monkeypatch):
        def fake_criterion(cid):
            return acceptance.CheckResult(cid, "stub", True, "ok", 0.0, None)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(acceptance, "run_criterion", fake_criterion)
        FakePool.sizes.clear()
        out = tmp_path / "v"
        code = run(["verify", "--criteria", "8", "1", "3", "1", "--workers", "0",
                    "--out-dir", str(out)])
        assert code == 0
        assert FakePool.sizes == [3]
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["criteria"]) == [
            "criterion_01_stub", "criterion_03_stub", "criterion_08_stub"]

    def test_unknown_criterion_rejected(self, tmp_path):
        code = run(["verify", "--criteria", "7", "99", "--out-dir", str(tmp_path / "v")])
        assert code == 2


def test_cli_import_loads_no_scipy():
    # scipy.sparse alone takes ~0.4 s to import on a 2-core host, several
    # times the rest of the package's start-up. Library code that needs scipy
    # (for example a sparse chamber-transfer engine) imports it inside the
    # function that uses it, so that commands which never reach it do not pay.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import watermelon.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_only_cli_touches_the_file_system():
    # library modules return data; cli.run_command writes every file
    pkg = Path(cli.__file__).resolve().parent
    io_modules = {"csv", "pathlib", "shutil", "tempfile"}
    io_calls = {"open", "write_text", "write_bytes", "mkdir", "touch", "unlink",
                "save", "savez", "savetxt", "tofile"}
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {a.name.split(".")[0] for a in node.names} & io_modules
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]} & io_modules
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                names = {name} & io_calls
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names]
    assert found == []
