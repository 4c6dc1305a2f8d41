from __future__ import annotations

import json

import pytest

from vidannot.cli import EXIT_CONFIG, EXIT_OK, main
from vidannot.config import PipelineConfig
from vidannot.pipeline import run_dataset


def write_tiny_config(path, **extra):
    payload = {
        "world": {
            "frame_width": 160,
            "frame_height": 120,
            "num_objects": 2,
            "num_frames": 10,
            "velocities": [[0.3, 0.1], [-0.2, 0.2]],
            "rng_seed": 3,
            "occlusion_enabled": False,
        },
        "ash": {"alpha": 1.0},
        "chunker": {"chi": 8, "omega": 2},
    }
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return str(path)


class TestCliVerbs:
    def test_simulate(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "c.json")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--seq", "s"])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "s_gt.txt").exists()

    def test_detect(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json")
        rc = main(["detect", "--config", cfg, "--out", str(tmp_path / "out"), "--seq", "s"])
        assert rc == EXIT_OK
        lines = (tmp_path / "out" / "s_det.txt").read_text().splitlines()
        assert lines and all(line.split(",")[1] == "-1" for line in lines)

    def test_annotate_and_evaluate(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "c.json")
        out = tmp_path / "out"
        rc = main(["annotate", "--config", cfg, "--out", str(out), "--seq", "s"])
        assert rc == EXIT_OK
        assert (out / "s_annotations.jsonl").exists()
        rc = main(["simulate", "--config", cfg, "--out", str(out), "--seq", "s"])
        assert rc == EXIT_OK
        rc = main(
            [
                "evaluate",
                "--pred", str(out / "s_track.txt"),
                "--gt", str(out / "s_gt.txt"),
                "--seq", "s",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "MOTA" in captured.out
        assert (out / "s_metrics.csv").exists()

    def test_resume_requires_checkpoint_dir(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json")
        rc = main(["resume", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_annotate_then_resume(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json")
        out = tmp_path / "out"
        ck = tmp_path / "ck"
        rc = main(["annotate", "--config", cfg, "--out", str(out), "--seq", "s",
                   "--checkpoint-dir", str(ck)])
        assert rc == EXIT_OK
        first = (out / "s_annotations.jsonl").read_bytes()
        rc = main(["resume", "--config", cfg, "--out", str(out), "--seq", "s",
                   "--checkpoint-dir", str(ck)])
        assert rc == EXIT_OK
        assert (out / "s_annotations.jsonl").read_bytes() == first

    def test_deploy(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "c.json")
        rc = main(["deploy", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--sequences", "2", "--seq", "d"])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["failures"] == []
        assert set(summary["qa"]) == {"d00", "d01"}

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"chunker": {"omega": 60, "chi": 50}}))
        rc = main(["annotate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_mode_flag_accepted(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json")
        for mode in ("full", "chunk", "auto"):
            rc = main(["annotate", "--config", cfg, "--out", str(tmp_path / mode),
                       "--seq", "s", "--mode", mode])
            assert rc == EXIT_OK

    def test_deploy_rejects_an_unknown_grid_key(self, tmp_path, capsys):
        grid = {"theta_typo": [0.1]}
        cfg = write_tiny_config(tmp_path / "c.json", deploy={"parameter_grid": grid})
        rc = main(["deploy", "--config", cfg, "--out", str(tmp_path / "out"), "--sequences", "2"])
        assert rc == EXIT_CONFIG
        assert "theta_typo" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{"theta_v": 0.1}, {"threshold_method": "kmeans"}])
    def test_deploy_rejects_a_grid_value_that_is_not_a_list(self, tmp_path, capsys, grid):
        cfg = write_tiny_config(tmp_path / "c.json", deploy={"parameter_grid": grid})
        rc = main(["deploy", "--config", cfg, "--out", str(tmp_path / "out"), "--sequences", "2"])
        assert rc == EXIT_CONFIG
        assert next(iter(grid)) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, extra, name",
        [
            # Once QA 0.000 and exit 0.
            ("auto", {"smart_od": {"slice_size": 0}}, "slice_size"),
            # Once "inverted box" and exit 1.
            ("auto", {"smart_od": {"slice_size": -4}}, "slice_size"),
            # Once QA 0.000 and exit 0: no box IoU exceeds it.
            ("auto", {"smart_od": {"theta_v": 1.5}}, "theta_v"),
            ("auto", {"smart_od": {"theta_n": 2.0}}, "theta_n"),
            ("auto", {"smart_od": {"theta_min": -1.0}}, "theta_min"),
            # Once a float-index error and exit 1.
            ("chunk", {"chunker": {"chi": 4.5, "omega": 2}}, "chi"),
            ("chunk", {"chunker": {"chi": 4, "omega": 1.5}}, "omega"),
            ("auto", {"chunker": {"chi": 8, "omega": 2, "full_budget": "10"}}, "full_budget"),
            ("auto", {"chunker": {"chi": 8, "omega": 2, "full_budget": -5}}, "full_budget"),
            ("auto", {"chunker": {"chi": 8, "omega": 2, "checkpoint_interval": 2.5}},
             "checkpoint_interval"),
            # Once a raw TypeError and exit 1.
            ("auto", {"seed": None}, "seed"),
            # Once taken as 3 and as 1.
            ("auto", {"seed": 3.7}, "seed"),
            ("auto", {"seed": True}, "seed"),
            # Once taken, and the outlines resampled at 64.5 points.
            ("auto", {"ash": {"alpha": 1.0, "resample_n": 64.5}}, "resample_n"),
            # Removed: no value of either changed an output byte.
            ("auto", {"ash": {"alpha": 1.0, "beta": 5}}, "beta"),
            ("auto", {"rescale_confidences": False}, "rescale_confidences"),
            # Removed: every chunk start is searched for within omega frames.
            ("chunk", {"chunker": {"chi": 8, "omega": 2, "window": 2}}, "window"),
            ("chunk", {"chunker": {"chi": 8, "omega": 2, "window": None}}, "window"),
            # Removed: chunks continue their objects, so no IoU hands ids over.
            ("chunk", {"chunker": {"chi": 8, "omega": 2, "tau_overlap": 0.7}}, "tau_overlap"),
        ],
    )
    def test_annotate_rejects_a_bad_value_at_load(self, tmp_path, capsys, mode, extra, name):
        cfg = write_tiny_config(tmp_path / "c.json", **extra)
        rc = main(["annotate", "--config", cfg, "--out", str(tmp_path / "out"), "--mode", mode])
        assert rc == EXIT_CONFIG
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["annotate", "--config", "{missing}"],
            ["deploy", "--config", "{missing}"],
            ["evaluate", "--pred", "{missing}", "--gt", "{empty}"],
            ["evaluate", "--pred", "{empty}", "--gt", "{missing}"],
        ],
    )
    def test_an_input_file_that_cannot_be_read_is_a_usage_error(self, tmp_path, capsys, argv):
        missing, empty = tmp_path / "missing.json", tmp_path / "empty.txt"
        empty.write_text("")
        argv = [a.format(missing=missing, empty=empty) for a in argv]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(missing) in err

    @pytest.mark.parametrize(
        "verb,workers", [("annotate", "0"), ("annotate", "2"), ("resume", "2"), ("deploy", "0")]
    )
    def test_fewer_than_one_worker_is_a_usage_error(self, tmp_path, capsys, verb, workers):
        """annotate and resume run one sequence, so they take no --workers at
        all; deploy takes it, but not below 1."""
        cfg = write_tiny_config(tmp_path / "c.json")
        argv = [verb, "--config", cfg, "--out", str(tmp_path / "out"), "--workers", workers]
        if verb == "deploy":
            assert main(argv) == EXIT_CONFIG
        else:
            with pytest.raises(SystemExit) as exit_:
                main(argv + ["--checkpoint-dir", str(tmp_path / "ck")])
            assert exit_.value.code == EXIT_CONFIG
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_dataset_rejects_fewer_than_one_worker(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_dataset({}, PipelineConfig().smart_od, PipelineConfig(), tmp_path / "out", workers=0)
