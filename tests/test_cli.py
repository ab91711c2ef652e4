import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import tenspart
from tenspart import SparseTensor3, load_coordinate_file, save_coordinate_file
from tenspart.cli import EXIT_IO, EXIT_NONCONVERGED, EXIT_OK, EXIT_VALIDATION, main

from conftest import pow2_scaled


def write_symmetric_tensor(path, seed=0, l=10, n=3, base=0.2):
    """Two connected diagonal blocks; easy to approximate and partition."""
    rng = np.random.default_rng(seed)
    d = np.full((l, l, n), base)
    h = l // 2
    d[0:h, 0:h, :] += 1.0
    d[h:, h:, :] += 0.8
    pert = rng.normal(scale=0.01, size=d.shape)
    d += pert + pert.transpose(1, 0, 2)
    T = SparseTensor3.from_dense(d)
    save_coordinate_file(T, path)
    return T


class TestIngest:
    def test_tns_roundtrip_idempotent(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["ingest", str(src), "--format", "tns", "--out", str(out1)]) == EXIT_OK
        assert (
            main(["ingest", str(out1 / "tensor.tns"), "--format", "tns", "--out", str(out2)])
            == EXIT_OK
        )
        assert (out1 / "tensor.tns").read_bytes() == (out2 / "tensor.tns").read_bytes()

    def test_log_csv(self, tmp_path):
        src = tmp_path / "log.csv"
        src.write_text(
            "source,destination,timestamp\n"
            "alice,bob,1\n"
            "bob,alice,2\n"
            "carol,alice,2\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        rc = main(
            ["ingest", str(src), "--format", "log-csv", "--bin-size", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert (out / "tensor.tns").exists()
        assert (out / "labels.txt").exists()
        T = load_coordinate_file(out / "tensor.tns")
        assert T.dims[2] == 2

    def test_log_dropped_before_the_writers(self, tmp_path, monkeypatch):
        # a loaded log keeps about 17 bytes per record; once binned, nothing
        # reads it, so it is gone before labels.txt and tensor.tns are written
        from tenspart import preprocess

        load, save = preprocess.load_record_log, preprocess.save_coordinate_file
        logs, alive = [], []

        def loaded(path):
            log = load(path)
            logs.append(weakref.ref(log))
            return log

        def saved(T, path):
            alive.append(logs[0]() is not None)
            save(T, path)

        monkeypatch.setattr(preprocess, "load_record_log", loaded)
        monkeypatch.setattr(preprocess, "save_coordinate_file", saved)
        src = tmp_path / "log.csv"
        src.write_text("source,destination,timestamp\nalice,bob,1\nbob,carol,2\n", encoding="utf-8")
        argv = ["ingest", str(src), "--format", "log-csv", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK
        assert alive == [False]

    def test_csv_error_exits_validation(self, tmp_path, capsys):
        src = tmp_path / "log.csv"
        src.write_text('source,destination,timestamp\n"' + "x" * 131073 + '",b,1\n', encoding="utf-8")
        argv = ["ingest", str(src), "--format", "log-csv", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_VALIDATION
        assert "log.csv:2: field larger than field limit" in capsys.readouterr().err

    def test_nul_in_id_exits_validation(self, tmp_path, capsys):
        src = tmp_path / "log.csv"
        src.write_bytes(b"source,destination,timestamp\na,b,1\nb,c\0,2\n")
        out = tmp_path / "o"
        argv = ["ingest", str(src), "--format", "log-csv", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert "log.csv:3: line contains NUL" in capsys.readouterr().err
        assert not (out / "labels.txt").exists()

    def test_labels_roundtrip_into_partition(self, tmp_path):
        # ids holding U+0085 and U+2028, which str.splitlines takes for line ends
        group_a = ["a\x85", "b\u2028", "\u2028c"]
        group_b = ["d", "e\x85\u2028", "f"]
        rows = [f"{s},{d},0" for g in (group_a, group_b) for s in g for d in g if s != d]
        src = tmp_path / "log.csv"
        src.write_text("source,destination,timestamp\n" + "\n".join(rows * 2) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["ingest", str(src), "--format", "log-csv", "--bin-size", str(len(rows)), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert tenspart.load_labels(out / "labels.txt").labels == tuple(group_a + group_b)
        argv = ["partition", str(out / "tensor.tns"), "--symmetric", "--rank", "2", "2", "1",
                "--labels", str(out / "labels.txt"), "--out", str(tmp_path / "part")]
        assert main(argv) == EXIT_OK

    def test_label_with_line_end_exits_validation(self, tmp_path, capsys):
        src = tmp_path / "log.csv"
        src.write_text('source,destination,timestamp\n"x\ry",b,1\n', encoding="utf-8", newline="")
        argv = ["ingest", str(src), "--format", "log-csv", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_VALIDATION
        assert "'x\\ry'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tensor.tns").exists()

    def test_malformed_line_exits_validation(self, tmp_path):
        src = tmp_path / "bad.tns"
        src.write_text("dims 2 2 1\n1 1 1 1.0\n1 x 1 2.0\n", encoding="utf-8")
        rc = main(["ingest", str(src), "--format", "tns", "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    def test_missing_file_exits_io(self, tmp_path):
        rc = main(
            ["ingest", str(tmp_path / "nope.tns"), "--format", "tns", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_IO

    def test_run_config_written(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        main(["ingest", str(src), "--format", "tns", "--out", str(out)])
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["format"] == "tns"
        assert str(src) in cfg["input_checksums"]


class TestRunConfig:
    """main writes run_config.json into --out once a command returns an exit code."""

    @pytest.mark.parametrize("cmd, extra", [
        ("ingest", ["--format", "tns"]),
        ("normalize", ["--normalize", "frobenius"]),
        ("approx", []),
        ("partition", ["--symmetric", "--rank", "2", "2", "1"]),
        ("expand", ["--theta", "0.1", "--terms", "1"]),
    ])
    def test_written_by_every_command(self, tmp_path, cmd, extra):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        assert main([cmd, str(src), *extra, "--out", str(out)]) == EXIT_OK
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["command"] == cmd and cfg["out"] == str(out)
        assert str(src) in cfg["input_checksums"]
        # only the flags a command reads are recorded: expand's ranks are fixed
        if cmd == "expand":
            assert "rank" not in cfg and "symmetric" not in cfg
        if cmd == "approx":
            assert "labels" not in cfg

    @pytest.mark.parametrize("cmd, extra", [
        ("expand", ["--theta", "0.1", "--terms", "1", "--rank", "2", "2", "1"]),
        ("expand", ["--theta", "0.1", "--terms", "1", "--symmetric"]),
        ("approx", ["--labels", "f"]),
    ], ids=["expand-rank", "expand-symmetric", "approx-labels"])
    def test_unread_flag_rejected(self, tmp_path, capsys, cmd, extra):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(src), *extra, "--out", str(out)])
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_every_read_file_checksummed(self, tmp_path):
        # partition reads the tensor, the labels and the --recurse index sets;
        # all three are checksummed, and a labels file that differs (which
        # changes the report's top terms) gives a different checksum
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, l=12)
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps({"I": list(range(6)), "J": list(range(6))}))
        checksums = []
        for n, name in enumerate(("node", "vertex")):
            labels = tmp_path / f"labels{n}.txt"
            labels.write_text("".join(f"{name}{t}\n" for t in range(12)), encoding="utf-8")
            out = tmp_path / f"out{n}"
            argv = ["partition", str(src), "--symmetric", "--rank", "2", "2", "1",
                    "--labels", str(labels), "--recurse", str(sets), "--out", str(out)]
            assert main(argv) == EXIT_OK
            cfg = json.loads((out / "run_config.json").read_text())
            assert set(cfg["input_checksums"]) == {str(src), str(labels), str(sets)}
            checksums.append(cfg["input_checksums"])
        assert checksums[0][str(src)] == checksums[1][str(src)]
        assert checksums[0][str(sets)] == checksums[1][str(sets)]
        assert checksums[0][str(tmp_path / "labels0.txt")] != checksums[1][str(tmp_path / "labels1.txt")]

    def test_same_path_new_labels_new_checksum(self, tmp_path):
        # one labels path rewritten between two runs: equal configs but for the
        # checksum, so the runs are told apart
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        labels = tmp_path / "labels.txt"
        configs = []
        for n, name in enumerate(("node", "vertex")):
            labels.write_text("".join(f"{name}{t}\n" for t in range(10)), encoding="utf-8")
            out = tmp_path / "out"
            argv = ["expand", str(src), "--theta", "0.1", "--terms", "1",
                    "--labels", str(labels), "--out", str(out)]
            assert main(argv) == EXIT_OK
            configs.append(json.loads((out / "run_config.json").read_text()))
        assert configs[0]["input_checksums"].keys() == {str(src), str(labels)}
        assert configs[0]["input_checksums"] != configs[1]["input_checksums"]
        for cfg in configs:
            del cfg["input_checksums"]
        assert configs[0] == configs[1]

    def test_written_when_not_converged(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["approx", str(src), "--max-iter", "1", "--out", str(out)])
        assert rc == EXIT_NONCONVERGED
        assert (out / "approx_report.json").exists() and (out / "run_config.json").exists()

    def test_not_written_on_failure(self, tmp_path):
        bad = tmp_path / "bad.tns"
        bad.write_text("dims 2 2 1\n1 x 1 2.0\n", encoding="utf-8")
        runs = [(bad, EXIT_VALIDATION), (tmp_path / "nope.tns", EXIT_IO)]
        for n, (src, want) in enumerate(runs):
            out = tmp_path / f"out{n}"
            assert main(["ingest", str(src), "--format", "tns", "--out", str(out)]) == want
            assert out.is_dir() and not any(out.iterdir())


class TestNormalize:
    def test_adjacency(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, base=0.3)
        out = tmp_path / "out"
        rc = main(["normalize", str(src), "--normalize", "adjacency", "--out", str(out)])
        assert rc == EXIT_OK
        T = load_coordinate_file(out / "tensor.tns")
        top = np.linalg.eigvalsh(T.to_dense()[:, :, 0]).max()
        assert top == pytest.approx(1.0, abs=1e-8)

    def test_frobenius(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        rc = main(["normalize", str(src), "--normalize", "frobenius", "--out", str(out)])
        assert rc == EXIT_OK
        d = load_coordinate_file(out / "tensor.tns").to_dense()
        for k in range(d.shape[2]):
            assert np.linalg.norm(d[:, :, k]) == pytest.approx(1.0, rel=1e-10)


class TestApprox:
    def test_writes_factors_and_report(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        rc = main(
            [
                "approx",
                str(src),
                "--rank", "2", "2", "1",
                "--symmetric",
                "--tol", "1e-10",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "approx_report.json").read_text())
        assert report["converged"]
        U = np.loadtxt(out / "approx_U.csv", delimiter=",", skiprows=1)
        assert U.shape == (10, 2)
        assert np.abs(U.T @ U - np.eye(2)).max() <= 1e-10

    def test_symmetric_flag_on_asymmetric_input(self, tmp_path):
        rng = np.random.default_rng(1)
        src = tmp_path / "in.tns"
        save_coordinate_file(SparseTensor3.from_dense(rng.random((5, 5, 2))), src)
        rc = main(["approx", str(src), "--symmetric", "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    def test_rank_too_large_rejected(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        rc = main(
            ["approx", str(src), "--rank", "11", "2", "1", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, tmp_path, tol):
        # a nan tolerance never stops the sweeps: it ran all of them and then
        # exited as not converged
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        rc = main(["approx", str(src), "--tol", tol, "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION


class TestPartition:
    def test_end_to_end(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, l=12)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"node{t}\n" for t in range(12)), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            [
                "partition",
                str(src),
                "--rank", "2", "2", "1",
                "--symmetric",
                "--tol", "1e-10",
                "--labels", str(labels),
                "--corner-width", "2",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        data = json.loads((out / "partition_report.json").read_text())
        assert data["split_points"]["1"] == 6
        assert data["symmetric"]
        assert len(data["block_norm_table"]) == 3
        perm = np.loadtxt(out / "partition_perm_mode1.txt", dtype=int)
        split_groups = {frozenset(perm[:6].tolist()), frozenset(perm[6:].tolist())}
        assert split_groups == {frozenset(range(6)), frozenset(range(6, 12))}

    def test_builds_no_reordered_tensor(self, tmp_path, monkeypatch):
        # the command writes the report only, so it reorders nothing
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, l=12)
        monkeypatch.setattr(tenspart.partition, "permute_modes", lambda *a: pytest.fail("reordered"))
        argv = ["partition", str(src), "--rank", "2", "2", "1", "--symmetric", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK

    def test_writes_approximation_report(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, l=12)
        out = tmp_path / "out"
        argv = ["partition", str(src), "--rank", "2", "2", "1", "--symmetric", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = json.loads((out / "approx_report.json").read_text())
        assert report["converged"] is True
        history = report["objective_history"]
        assert len(history) >= 1 and all(h > 0 for h in history)
        assert report["shapes"]["U"] == [12, 2]
        assert (out / "approx_U.csv").exists()

    def test_recurse_option(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, l=12)
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps({"I": list(range(6)), "J": list(range(6))}))
        out = tmp_path / "out"
        rc = main(
            [
                "partition",
                str(src),
                "--rank", "2", "2", "1",
                "--symmetric",
                "--recurse", str(sets),
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert (out / "partition_nested_report.json").exists()

    def test_recurse_builds_no_reordered_tensor(self, tmp_path, monkeypatch):
        # the nested run writes its report only, as a top-level run of the
        # subtensor does, and its files are that run's, byte for byte
        src = tmp_path / "in.tns"
        T = write_symmetric_tensor(src, l=12)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"node{t}\n" for t in range(12)), encoding="utf-8")
        I = [0, 1, 2, 3, 6, 7]
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps({"I": I, "J": I}))
        monkeypatch.setattr(tenspart.partition, "permute_modes", lambda *a: pytest.fail("reordered"))
        common = ["--rank", "2", "2", "1", "--symmetric", "--labels"]
        argv = ["partition", str(src), *common, str(labels), "--recurse", str(sets),
                "--out", str(tmp_path / "nested")]
        assert main(argv) == EXIT_OK
        save_coordinate_file(tenspart.subtensor(T, I, I, range(3)), tmp_path / "sub.tns")
        (tmp_path / "sub_labels.txt").write_text("".join(f"node{t}\n" for t in I), encoding="utf-8")
        argv = ["partition", str(tmp_path / "sub.tns"), *common, str(tmp_path / "sub_labels.txt"),
                "--out", str(tmp_path / "top")]
        assert main(argv) == EXIT_OK
        for part in ("report.json", "perm_mode1.txt", "perm_mode2.txt", "perm_mode3.txt", "tables.txt"):
            nested = (tmp_path / "nested" / f"partition_nested_{part}").read_bytes()
            assert nested == (tmp_path / "top" / f"partition_{part}").read_bytes(), part

    @pytest.mark.parametrize(
        "content, message",
        [('{"I": [0, 1, 2]}', "missing index set J"), ("[[0, 1], [0, 1]]", "expected a JSON object")],
    )
    def test_recurse_malformed_index_file(self, tmp_path, capsys, content, message):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src, l=12)
        sets = tmp_path / "sets.json"
        sets.write_text(content)
        argv = ["partition", str(src), "--rank", "2", "2", "1", "--symmetric",
                "--recurse", str(sets), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(sets) in err and message in err


class TestExpand:
    def test_end_to_end(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        out = tmp_path / "out"
        rc = main(
            [
                "expand",
                str(src),
                "--terms", "2",
                "--theta", "0.0",
                "--threshold-mode", "absolute",
                "--tol", "1e-10",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        data = json.loads((out / "expansion_report.json").read_text())
        assert data["num_terms"] == 2
        assert len(data["residual_norms"]) == 3
        assert (out / "expansion_term1_edges.txt").exists()

    def test_asymmetric_input_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "in.tns"
        save_coordinate_file(SparseTensor3.from_dense(rng.random((5, 5, 2))), src)
        rc = main(
            ["expand", str(src), "--terms", "1", "--theta", "0.1", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_VALIDATION

    def test_bad_theta_rejected(self, tmp_path, capsys, monkeypatch):
        # refused before the first solve, which would raise here
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(tenspart.expansion, "rank221_term", no_solve)
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        for theta in ("1.5", "nan"):
            rc = main(["expand", str(src), "--terms", "1", "--theta", theta, "--out", str(tmp_path / "o")])
            assert rc == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith("error: theta must satisfy 0 <= theta < 1")

    def test_one_empty_term_message(self, tmp_path):
        # theta close to 1 in positive mode on an all-negative B empties B_hat;
        # the library's warning, pointing at the caller, is the only message
        d = np.zeros((6, 6, 2))
        d[0:3, 3:6, :] = -1.0
        d[3:6, 0:3, :] = -1.0
        src = tmp_path / "in.tns"
        save_coordinate_file(SparseTensor3.from_dense(d), src)
        path = [str(Path(tenspart.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "tenspart.cli", "expand", str(src), "--terms", "1",
             "--theta", "0.9", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "empty" in line]
        assert len(lines) == 1 and "cli.py" in lines[0] and "UserWarning" in lines[0]

    @pytest.mark.parametrize("s", [531, -545])
    def test_extreme_scales(self, tmp_path, s):
        # squares of the entries, and products of two B_hat norms, leave the
        # float range; the report stays finite and its cosines do not move
        def no_constant(name):
            raise ValueError(f"{name} in expansion_report.json")

        src, scaled = tmp_path / "in.tns", tmp_path / "scaled.tns"
        save_coordinate_file(pow2_scaled(write_symmetric_tensor(src), s), scaled)
        cosines = []
        for path, out in ((src, tmp_path / "a"), (scaled, tmp_path / "b")):
            argv = ["expand", str(path), "--terms", "2", "--theta", "0.1", "--threshold-mode", "absolute"]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            report = json.loads((out / "expansion_report.json").read_text(), parse_constant=no_constant)
            cosines.append(report["overlap_cosines"])
        np.testing.assert_allclose(cosines[1], cosines[0], rtol=1e-12)


class TestReproducibility:
    def test_identical_runs_identical_reports(self, tmp_path):
        src = tmp_path / "in.tns"
        write_symmetric_tensor(src)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                [
                    "partition",
                    str(src),
                    "--rank", "2", "2", "1",
                    "--symmetric",
                    "--seed", "7",
                    "--out", str(out),
                ]
            )
            assert rc == EXIT_OK
            outs.append((out / "partition_report.json").read_bytes())
        assert outs[0] == outs[1]
