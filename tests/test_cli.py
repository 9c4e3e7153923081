"""Command-line behavior: config handling, manifests, files, determinism."""

import argparse
import ast
import concurrent.futures
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from watermelon import acceptance, chaos_polymer, cli, grsk, kernels, overlap
from watermelon.cli import git_revision, main, resolve_workers
from watermelon.errors import WatermelonError
from watermelon.rng import SeedRecord
from watermelon import walk_ensembles
from watermelon.walk_ensembles import BridgeSpec, sample_bridges_lockstep


def run(args):
    return main(args)


def data_digests(out):
    """sha256 of every file a run wrote but its manifest."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if p.name != "manifest.json"}


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
            traj = sample_bridges_lockstep(spec, 1, SeedRecord(**envelope["seed_record"]))[0]
            assert traj.tolist() == [[int(v) for v in r[1:]] for r in rows]

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
        ({}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16", "--replicas", "4",
              "--inner-paths", "0"]),
        ({}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16", "--replicas", "4",
              "--beta", "nan"]),
        ({}, ["grsk", "--seed", "3", "--d", "2", "--N-list", "16", "--replicas", "1"]),
        ({}, ["grsk", "--seed", "3", "--d", "2", "--N-list", "16", "--replicas", "4",
              "--beta", "nan"]),
        ({}, ["sample", "--d", "2", "--n-star", "4", "--count", "-3", "--seed", "1"]),
        ({}, ["sample", "--d", "2", "--n-star", "4", "--count", "0", "--seed", "1"]),
        ({}, ["sample", "--d", "2", "--n-star", "2", "--x-star", "6", "--enumerate-all"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "8", "--window", "0.5", "0.5"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "8", "--window", "0", "0.1"]),
        ({}, ["kernels", "--d", "2", "--z-star", "nan"]),
        ({}, ["kernels", "--d", "2", "--z-star", "inf"]),
        ({}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16", "--replicas", "4",
              "--inner-paths", "4", "--z-star", "nan"]),
        ({}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16", "--replicas", "4",
              "--inner-paths", "4", "--z-star", "inf"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "8", "--t-star", "inf"]),
        ({}, ["kernels", "--d", "2", "--N-list", "-4", "50"]),
        ({}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "-4", "--replicas", "4",
              "--inner-paths", "4"]),
        ({}, ["grsk", "--seed", "3", "--d", "2", "--N-list", "-4", "--replicas", "4"]),
        # one N only would fail the two-scale rule of the kernels study first
        ({}, ["kernels", "--d", "2", "--z-star", "7.3", "--N-list", "50", "100"]),
        ({}, ["polymer", "--seed", "3", "--d", "2", "--z-star", "7.3", "--N-list", "50",
              "--replicas", "4", "--inner-paths", "4"]),
        ({}, ["overlap", "--seed", "6", "--d", "2", "--z-star", "7.3", "--N-list", "50"]),
        # a config-file value its flag could not give, even where a flag overrides it
        ({"d": "two"}, ["sample", "--n-star", "4", "--seed", "1"]),
        ({"d": True}, ["sample", "--n-star", "4", "--seed", "1"]),
        ({"d": None}, ["sample", "--n-star", "4", "--seed", "1"]),
        ({"enumerate_all": 1}, ["sample", "--d", "1", "--n-star", "2"]),
        ({"out_dir": 5}, ["sample", "--d", "1", "--n-star", "2", "--enumerate-all"]),
        ({"N_list": 64}, ["grsk", "--seed", "1", "--replicas", "4"]),
        ({"beta": "0.5"}, ["grsk", "--seed", "1", "--N-list", "16", "--replicas", "4"]),
        ({"distribution": ["gaussian"]}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16",
                                          "--replicas", "4", "--inner-paths", "4"]),
        ({"t_grid": 0.5}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "8"]),
        ({"window": [0.0]}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "8"]),
    ], ids=["sample", "kernels", "polymer", "grsk", "overlap", "verify", "overlap_nan_window",
            "overlap_one_replica", "overlap_no_replicas", "polymer_one_replica",
            "polymer_no_inner_paths", "polymer_nan_beta", "grsk_one_replica", "grsk_nan_beta",
            "sample_negative_count", "sample_zero_count", "sample_empty_enumeration",
            "overlap_empty_window", "overlap_window_without_lattice_step", "kernels_nan_z_star",
            "kernels_inf_z_star", "polymer_nan_z_star", "polymer_inf_z_star",
            "overlap_inf_t_star", "kernels_negative_N", "polymer_negative_N", "grsk_negative_N",
            "kernels_empty_bridge", "polymer_empty_bridge", "overlap_empty_bridge",
            "config_string_for_int", "config_bool_for_int", "config_null_for_int",
            "config_int_for_switch", "config_int_for_out_dir", "config_int_for_list",
            "config_string_for_float", "config_list_for_choice", "config_float_for_list",
            "config_short_window"])
    def test_failing_command_creates_no_out_dir(self, tmp_path, capsys, payload, args):
        self._run_with_config(tmp_path, capsys, payload, args)

    @pytest.mark.parametrize("args", [
        ["--window", "0", "0.1"],
        ["--window", "0.5", "0.5"],
        ["--z-star", "7.3", "--N-list", "50"],
    ], ids=["window_without_lattice_step", "empty_window", "empty_bridge"])
    def test_overlap_fails_before_sampling(self, tmp_path, capsys, monkeypatch, args):
        calls = []
        walk = overlap.walk_bridges_lockstep

        def counting(*a):
            calls.append(a)
            return walk(*a)

        monkeypatch.setattr(overlap, "walk_bridges_lockstep", counting)
        self._run_with_config(
            tmp_path, capsys, {}, ["overlap", "--seed", "6", "--d", "2", "--N-list", "8", *args]
        )
        assert calls == []

    def test_polymer_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        # the bridge at N = 4 is empty (x* = 6 > n* = 4); N = 400 comes first
        calls = []
        smc = chaos_polymer.smc_partition_estimates

        def counting(*a, **k):
            calls.append(a)
            return smc(*a, **k)

        monkeypatch.setattr(chaos_polymer, "smc_partition_estimates", counting)
        self._run_with_config(
            tmp_path, capsys, {}, ["polymer", "--seed", "3", "--d", "1", "--z-star", "3",
                                   "--N-list", "400", "4", "--replicas", "4",
                                   "--inner-paths", "4"]
        )
        assert calls == []

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

    @pytest.mark.parametrize("payload,args", [
        ({"inner_paths": 3}, ["grsk", "--seed", "3", "--d", "2", "--N-list", "9", "--replicas", "4"]),
        ({"k_max": 2}, ["polymer", "--seed", "3", "--d", "1", "--N-list", "16", "--replicas", "4",
                        "--inner-paths", "4"]),
        ({"seed": 3}, ["kernels", "--d", "1", "--N-list", "20", "40"]),
        ({"workers": 1}, ["sample", "--d", "1", "--n-star", "2", "--enumerate-all"]),
        ({"N_list": [16]}, ["verify", "--criteria", "7"]),
        ({"command": "sample"}, ["grsk", "--seed", "3", "--d", "2", "--N-list", "9",
                                 "--replicas", "4"]),
    ], ids=["grsk_inner_paths", "polymer_k_max", "kernels_seed", "sample_workers",
            "verify_N_list", "grsk_other_command"])
    def test_config_key_the_command_does_not_read(self, tmp_path, capsys, payload, args):
        self._run_with_config(tmp_path, capsys, payload, args)

    def test_kernels_needs_two_scales(self, tmp_path, capsys):
        out = tmp_path / "k"
        code = run(["kernels", "--d", "1", "--N-list", "50", "--out-dir", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_checks_its_trajectories(self, tmp_path, capsys, monkeypatch):
        # a sampler whose walkers jump by 3 from delta(0) and back
        def jumping(spec, count, rng):
            return np.array([[[0, 2], [3, 5], [0, 2]]] * count, dtype=np.int64)

        monkeypatch.setattr(walk_ensembles, "sample_bridges_lockstep", jumping)
        out = tmp_path / "s"
        code = run(["sample", "--d", "2", "--n-star", "2", "--count", "2", "--seed", "1",
                    "--out-dir", str(out)])
        assert code == 2
        assert "walkers must move by +-1 each step" in capsys.readouterr().err
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


class TestCommandTable:
    # each command's options in order, and each option's (type, nargs,
    # choices), as the hand-written subparsers declared them
    ACCEPTED = {
        "sample": ["--out-dir", "--seed", "--d", "--n-star", "--x-star", "--count",
                   "--enumerate-all", "--step-budget"],
        "kernels": ["--out-dir", "--d", "--t-star", "--z-star", "--N-list"],
        "polymer": ["--out-dir", "--seed", "--d", "--t-star", "--z-star", "--beta", "--N-list",
                    "--replicas", "--inner-paths", "--distribution"],
        "grsk": ["--out-dir", "--seed", "--d", "--beta", "--N-list", "--replicas"],
        "overlap": ["--out-dir", "--seed", "--d", "--t-star", "--z-star", "--N-list",
                    "--replicas", "--k-max", "--t-grid", "--window"],
        "verify": ["--out-dir", "--workers", "--criteria"],
    }
    KINDS = {
        "--out-dir": (None, None, None), "--seed": (int, None, None), "--d": (int, None, None),
        "--n-star": (int, None, None), "--x-star": (int, None, None),
        "--count": (int, None, None), "--enumerate-all": (None, 0, None),
        "--step-budget": (int, None, None), "--t-star": (float, None, None),
        "--z-star": (float, None, None), "--N-list": (int, "+", None),
        "--beta": (float, None, None), "--replicas": (int, None, None),
        "--inner-paths": (int, None, None),
        "--distribution": (None, None, ["rademacher", "gaussian", "shifted_exponential"]),
        "--k-max": (int, None, None), "--t-grid": (float, "+", None),
        "--window": (float, 2, None), "--workers": (int, None, None),
        "--criteria": (int, "+", None),
    }

    @staticmethod
    def _subparser(command):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices[command]

    @pytest.mark.parametrize("command", list(ACCEPTED))
    def test_options_are_pinned(self, command):
        actions = [a for a in self._subparser(command)._actions if a.option_strings != ["-h", "--help"]]
        assert [a.option_strings for a in actions] == [[o] for o in self.ACCEPTED[command]]
        for a in actions:
            choices = list(a.choices) if a.choices else None
            assert (a.type, a.nargs, choices) == self.KINDS[a.option_strings[0]]
            assert a.dest == a.option_strings[0][2:].replace("-", "_")

    @pytest.mark.parametrize("command", list(ACCEPTED))
    def test_every_other_flag_is_an_error(self, command, capsys):
        table = ["--" + key.replace("_", "-") for key in cli.FLAGS]
        assert sorted(table) == sorted(self.KINDS)
        for flag in sorted(set(table) - set(self.ACCEPTED[command])):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([command, flag, "1"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_manifest_config_replays_the_run(self, tmp_path):
        out = tmp_path / "g"
        assert run(["grsk", "--seed", "5", "--beta", "1.0", "--d", "2", "--N-list", "16",
                    "--replicas", "10", "--out-dir", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config.keys() == {"command", "out_dir", "seed", "d", "beta", "N_list", "replicas"}
        report = (out / "grsk_report.json").read_bytes()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        shutil.rmtree(out)
        assert run(["--config", str(cfg), "grsk"]) == 0
        assert (out / "grsk_report.json").read_bytes() == report
        assert json.loads((out / "manifest.json").read_text())["config"] == config


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

    def test_files_are_pinned(self, tmp_path):
        # same bytes from the same config; the files hold floats from numpy's
        # linear algebra and special functions, so the pin is that of one
        # numpy build
        out = tmp_path / "k"
        assert run(["kernels", "--d", "2", "--N-list", "50", "100", "--out-dir", str(out)]) == 0
        assert data_digests(out) == {
            "kernel_convergence.csv":
                "dc6ee513b7985cdcf4b331066d1199a741bbdcb2b5be82a3f35ec3ac67784e4c",
            "kernel_convergence_summary.json":
                "64d9650d820253f8cea3d0fb12725fd653b574357b6f97f6840eeea9037ae265",
        }


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

    def test_files_are_pinned(self, tmp_path):
        # replay contract: the same seed and config give the same bits, on
        # one numpy build
        out = tmp_path / "p"
        assert run(["polymer", "--seed", "3", "--d", "2", "--N-list", "16", "64",
                    "--replicas", "20", "--inner-paths", "16", "--out-dir", str(out)]) == 0
        assert data_digests(out) == {
            "polymer_report.json":
                "d2bbcc4f2aec7c0716032ca7116405cfaa2465599e863d8d88e9b30dea1ae4a9",
            "polymer_draws.csv":
                "b5556c0a79247594c6456281df3be15bd91f4a6c9ad966b14fe90961dc496d69",
        }


class TestGrskCommand:
    def test_oracle_assertions(self, tmp_path):
        out = tmp_path / "g"
        code = run(["grsk", "--seed", "5", "--beta", "1.0", "--d", "2",
                    "--N-list", "16", "--replicas", "10", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"] == {
            "lgv_equals_enumeration": True, "all_ones_count_matches": True,
        }

    def test_report_is_pinned(self, tmp_path):
        # replay contract: the same seed and config give the same report
        # bits.  The report holds floats from numpy's gamma sampler and the
        # log-space DP, so the pin is that of one numpy build.
        out = tmp_path / "g"
        assert run(["grsk", "--seed", "3", "--d", "2", "--N-list", "9", "16",
                    "--replicas", "8", "--out-dir", str(out)]) == 0
        report = (out / "grsk_report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "be9fbecd26f7269bef71834357fe82b9ce8323962c6b319df099555d20d4e543"
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"] == {
            "lgv_equals_enumeration": True, "all_ones_count_matches": True,
        }

    def test_wrong_log_dp_fails(self, tmp_path, monkeypatch):
        # float weights send tau_lgv through the DP, so enumeration catches it
        real = grsk.log_tau_lgv
        monkeypatch.setattr(grsk, "log_tau_lgv", lambda log_w, d: real(log_w, d) + 1e-6)
        out = tmp_path / "g"
        code = run(["grsk", "--seed", "5", "--beta", "1.0", "--d", "2",
                    "--N-list", "16", "--replicas", "10", "--out-dir", str(out)])
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"]["lgv_equals_enumeration"] is False


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

    def test_files_are_pinned(self, tmp_path):
        # replay contract: the same seed and config give the same bits, on
        # one numpy build
        out = tmp_path / "o"
        assert run(["overlap", "--seed", "3", "--d", "2", "--N-list", "8", "16",
                    "--replicas", "300", "--out-dir", str(out)]) == 0
        assert data_digests(out) == {
            "overlap_moments.csv":
                "edcc2eab08f60a703102e594d90a12e268363911111fd4ed789d2f4e9e9a77b1",
            "overlap_summary.json":
                "4a6b73050a55accad0fa75d73ebe70ce3c7e40eaffb5c8bb3bb9a76ad665ebe5",
        }


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

    def test_serial_run_matches_pool_run(self, tmp_path, monkeypatch, capsys):
        events = []

        class Result(acceptance.CheckResult):
            def line(self):
                events.append(("print", self.crit_id))
                return super().line()

        def fake_criterion(cid):
            events.append(("run", cid))
            return Result(cid, "stub", cid != 3, "ok", 0.0, None)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(acceptance, "run_criterion", fake_criterion)
        runs = []
        for workers in ("0", "1"):
            events.clear()
            out = tmp_path / workers
            assert run(["verify", "--criteria", "8", "1", "3", "--workers", workers,
                        "--out-dir", str(out)]) == 1
            lines = capsys.readouterr().out.splitlines()
            manifest = json.loads((out / "manifest.json").read_text())
            # each line is printed as soon as its criterion is in
            assert events == [(e, cid) for cid in (1, 3, 8) for e in ("run", "print")]
            runs.append((lines[:-1], list(manifest["criteria"]), manifest["assertions"]))
        assert runs[0] == runs[1]
        assert runs[0][0] == [
            "[PASS] criterion  1 stub (0.0s): ok", "[FAIL] criterion  3 stub (0.0s): ok",
            "[PASS] criterion  8 stub (0.0s): ok"]

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
