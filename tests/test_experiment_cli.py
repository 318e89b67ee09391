import json
from pathlib import Path

import numpy as np
import pytest

from relumhe.experiment_cli import (
    Dataset,
    ExperimentConfig,
    MalformedCsv,
    MissingColumn,
    gen_synthetic,
    load_csv,
    main,
    run,
)
from relumhe.mhe_train import BatchSchedule
from relumhe.neighborhood import membership
from relumhe.pe_design import verify_pe
from relumhe.relu_net import observability_map


def small_config(**kw):
    base = dict(mode="synthetic", m=2, n=4, k=4, n1=4, n_train=16, n_test=10, epochs=3, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_partition_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="synthetic", k=4, n1=5, n_train=19)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="banana")

    def test_from_json_rejects_unknown_fields(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"mode": "synthetic", "bogus": 1}')
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(p)


class TestGenSynthetic:
    def test_defaults_satisfy_assumptions(self):
        cfg = ExperimentConfig(seed=0)
        teacher, ds, neigh, init = gen_synthetic(cfg)
        assert ds.train_inputs.shape == (90, 2)
        assert ds.test_inputs.shape == (90, 2)
        # the training input is persistently exciting for the student anchor
        assert verify_pe(ds.train_inputs, init).pe
        # the teacher is a member of the student-anchored neighborhood
        assert membership(neigh, teacher)
        # noise is bounded by eps_bar
        resid = ds.train_targets - observability_map(teacher, ds.train_inputs)
        assert np.abs(resid).max() <= cfg.eps_bar

    def test_zero_noise_targets_exact(self):
        cfg = small_config(eps_bar=0.0)
        teacher, ds, _, _ = gen_synthetic(cfg)
        np.testing.assert_array_equal(
            ds.train_targets, observability_map(teacher, ds.train_inputs)
        )

    def test_deterministic_given_seed(self):
        a = gen_synthetic(small_config())
        b = gen_synthetic(small_config())
        np.testing.assert_array_equal(a[1].inputs, b[1].inputs)
        np.testing.assert_array_equal(a[0].w, b[0].w)
        np.testing.assert_array_equal(a[3].w, b[3].w)

    def test_different_repeats_differ(self):
        a = gen_synthetic(small_config(), repeat=0)
        b = gen_synthetic(small_config(), repeat=1)
        assert not np.array_equal(a[0].w, b[0].w)


class TestLoadCsv:
    def test_toy_comma_csv(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, "y")
        assert ds.inputs.shape == (3, 2)
        assert ds.targets.shape == (3,)
        assert ds.feature_names == ("a", "b")

    def test_semicolon_autodetect(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text('"a";"b";"y"\n1;2;3\n4;5;6\n')
        ds = load_csv(p, "y")
        assert ds.inputs.shape == (2, 2)

    def test_standardization_on_training_split(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["x1,x2,y"]
        for _ in range(200):
            v = rng.normal(5.0, 3.0, 2)
            rows.append(f"{v[0]},{v[1]},{v.sum()}")
        p = tmp_path / "data.csv"
        p.write_text("\n".join(rows) + "\n")
        ds = load_csv(p, "y", seed=3)
        assert np.abs(ds.train_inputs.mean(axis=0)).max() <= 1e-10
        np.testing.assert_allclose(ds.train_inputs.std(axis=0), 1.0, atol=1e-10)

    def test_split_sizes_floor_arithmetic(self, tmp_path):
        p = tmp_path / "big.csv"
        lines = ["f,y"] + [f"{i},{i % 7}" for i in range(1599)]
        p.write_text("\n".join(lines) + "\n")
        ds = load_csv(p, "y")
        assert ds.train_idx.size == 1439
        assert ds.test_idx.size == 160

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,2\nnope,4\n")
        with pytest.raises(MalformedCsv) as exc:
            load_csv(p, "y")
        assert exc.value.line == 3

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(MalformedCsv) as exc:
            load_csv(p, "y")
        assert exc.value.line == 3

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, "quality")

    def test_split_disjoint_and_deterministic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n" + "\n".join(f"{i},{i}" for i in range(50)) + "\n")
        d1 = load_csv(p, "y", seed=5)
        d2 = load_csv(p, "y", seed=5)
        assert set(d1.train_idx) & set(d1.test_idx) == set()
        np.testing.assert_array_equal(d1.inputs, d2.inputs)


class TestRunSynthetic:
    def test_writes_metrics_and_summary(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        summary = run(cfg)
        out = tmp_path / "out"
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "timing.json").exists()
        assert (out / "dataset.csv").exists()
        assert (out / "teacher_weights.csv").exists()
        assert "mhe" in summary["methods"] and "gd" in summary["methods"]
        report = summary["convergence_report"]
        assert report["theorem5_violations"] == 0
        assert report["bound"] >= 0

    def test_determinism_byte_identical(self, tmp_path):
        c1 = small_config(out_dir=str(tmp_path / "a"))
        c2 = small_config(out_dir=str(tmp_path / "b"))
        run(c1)
        run(c2)
        for name in ("trajectory.csv", "summary.json", "dataset.csv"):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            if name == "summary.json":
                # out_dir differs inside the config dump; compare with it masked
                b1 = b1.replace(str(tmp_path / "a").encode(), b"X")
                b2 = b2.replace(str(tmp_path / "b").encode(), b"X")
            assert b1 == b2, name

    def test_trajectory_has_expected_rows(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        run(cfg)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "repeat", "step", "epoch", "method",
            "train_loss", "test_loss", "estimation_error",
        ]
        assert len(lines) == 1 + 2 * cfg.epochs * cfg.k  # two methods


class TestAnalysisModes:
    def test_observability_analysis_example_one(self, tmp_path):
        # one input, three hidden nodes: never observable
        weights = tmp_path / "w.csv"
        weights.write_text("1.0,2.0,-1.0\n")
        cfg = ExperimentConfig(
            mode="observability-analysis", csv_path=str(weights), out_dir=str(tmp_path / "out")
        )
        payload = run(cfg)
        assert payload["observable"] is False
        assert "explanation" in payload
        assert (tmp_path / "out" / "certificate.json").exists()

    def test_input_design_mode(self, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1.0,0.0\n0.0,1.0\n")
        cfg = ExperimentConfig(
            mode="input-design", csv_path=str(weights), out_dir=str(tmp_path / "out"), n_train=0
        )
        payload = run(cfg)
        assert payload["certified"] is True
        U = np.loadtxt(tmp_path / "out" / "pe_input.csv", delimiter=",")
        assert U.shape == (4, 2)


class TestWineMode:
    def make_stand_in_csv(self, path, rows=240, seed=0):
        # wine-quality-shaped regression data: 11 features, integer scores
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, (rows, 11))
        coef = rng.normal(0.0, 0.4, 11)
        y = np.clip(np.round(5.6 + X @ coef + rng.normal(0, 0.5, rows)), 3, 8)
        cols = [f"f{i}" for i in range(11)] + ["quality"]
        lines = [";".join(cols)]
        for i in range(rows):
            lines.append(";".join(f"{v:.4f}" for v in X[i]) + f";{y[i]:.1f}")
        Path(path).write_text("\n".join(lines) + "\n")

    def test_wine_pipeline_on_stand_in_data(self, tmp_path):
        csv_path = tmp_path / "standin.csv"
        self.make_stand_in_csv(csv_path)
        cfg = ExperimentConfig(
            mode="wine",
            csv_path=str(csv_path),
            target_column="quality",
            n=8,
            epochs=20,
            repeats=2,
            seed=0,
            out_dir=str(tmp_path / "out"),
        )
        summary = run(cfg)
        stats = summary["methods"]
        assert set(stats) == {"regularized-mhe", "adam"}
        for name, entry in stats.items():
            assert len(entry["test_rmse"]) == 2
            assert 0.0 < entry["test_rmse_mean"] < 5.0
        # training actually reduced the loss: compare against predicting the mean
        ds = load_csv(csv_path, "quality", seed=0)
        baseline = float(np.sqrt(np.mean((ds.test_targets - ds.train_targets.mean()) ** 2)))
        assert stats["regularized-mhe"]["test_rmse_mean"] < baseline
        assert stats["adam"]["test_rmse_mean"] < baseline


class TestCli:
    def test_analyze_subcommand(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("1.0,0.0\n0.0,1.0\n")
        rc = main(["analyze", str(weights), "--out", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observable"] is True

    def test_design_input_subcommand(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("1.0,0.0\n0.0,1.0\n")
        rc = main(["design-input", str(weights), "--out", str(tmp_path / "out"), "--samples", "8"])
        assert rc == 0
        U = np.loadtxt(tmp_path / "out" / "pe_input.csv", delimiter=",")
        assert U.shape == (8, 2)

    def test_train_subcommand_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mode": "synthetic", "m": 2, "n": 4, "k": 4, "n1": 4,
            "n_train": 16, "n_test": 8, "epochs": 5, "seed": 3,
            "out_dir": str(tmp_path / "out"),
        }))
        rc = main(["train", str(cfg_path), "--epochs", "2", "--method", "mhe"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary["methods"]) == ["mhe"]
        assert summary["config"]["epochs"] == 2

    def test_default_synthetic_gd_stays_finite(self, tmp_path, capsys):
        # The default design rescales rows by up to 1e4, so a fixed GD step
        # diverges; the smoothness-scaled step must not.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "synthetic", "seed": 0}))
        rc = main(["train", str(cfg_path), "--epochs", "2", "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        err = summary["methods"]["gd"]["final_estimation_error"]
        assert np.isfinite(err) and err < 1e-2

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "missing.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
