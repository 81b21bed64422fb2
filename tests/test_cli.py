"""End-to-end CLI coverage on tiny budgets."""

import json

import pytest

from vjlab.cli import main
from vjlab.config import RECIPE_FIELDS, load_config, variant_defaults, variant_slug
from vjlab.synth import load_dataset


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.lab"
    path.write_text(
        "variant = Baseline\n"
        "steps = 3\n"
        "batch_size = 2\n"
        "n_per_class = 2\n"
        f"out = {tmp_path / 'run'}\n"
    )
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGendata:
    def test_writes_dataset_with_all_classes(self, tiny_config, tmp_path, capsys):
        assert run_cli("gendata", "--config", tiny_config) == 0
        ds = load_dataset(tmp_path / "run" / "dataset.synv")
        assert len(ds.clips) == 16
        assert sorted({c.label for c in ds.clips}) == list(range(8))
        assert "16 clips" in capsys.readouterr().out

    def test_seed_and_out_flags_override_config(self, tiny_config, tmp_path):
        other = tmp_path / "elsewhere"
        assert run_cli("gendata", "--config", tiny_config, "--seed", 9,
                       "--out", other) == 0
        a = load_dataset(other / "dataset.synv")
        run_cli("gendata", "--config", tiny_config)
        b = load_dataset(tmp_path / "run" / "dataset.synv")
        assert not all(
            (ca.pixels == cb.pixels).all() for ca, cb in zip(a.clips, b.clips)
        )


class TestPretrainProbe:
    def test_pipeline_writes_checkpoint_then_probe_json(self, tiny_config, tmp_path, capsys):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.jpck").exists()
        assert (out / "metrics.jsonl").exists()
        assert run_cli("probe", "--config", tiny_config,
                       "--train-per-class", 2, "--test-per-class", 2) == 0
        payload = json.loads((out / "probe.json").read_text())
        assert payload["variant"] == "Baseline"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert "top-1" in capsys.readouterr().out

    def test_probe_reads_the_runs_own_config(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "kin"
        assert run_cli("pretrain", "--config", tiny_config, "--variant", "Kin.-L1",
                       "--out", out) == 0
        assert run_cli("probe", "--out", out, "--train-per-class", 2,
                       "--test-per-class", 2) == 0
        assert json.loads((out / "probe.json").read_text())["variant"] == "Kin.-L1"
        capsys.readouterr()
        assert run_cli("probe", "--out", out, "--variant", "Baseline") == 1
        assert "holds a Kin.-L1 run, not Baseline" in capsys.readouterr().err
        assert run_cli("probe", "--config", tiny_config, "--out", out) == 1
        assert "not Baseline" in capsys.readouterr().err

    def test_probe_without_checkpoint_fails(self, tiny_config, capsys):
        assert run_cli("probe", "--config", tiny_config) == 1
        assert "no checkpoint" in capsys.readouterr().err

    def test_variant_flag_selects_recipe(self, tiny_config, tmp_path):
        out = tmp_path / "amg"
        assert run_cli("pretrain", "--config", tiny_config,
                       "--variant", "AMG-JEPA", "--out", out) == 0
        snap = load_config(out / "config.lab")
        assert snap.variant == "AMG-JEPA"
        assert snap.motion_guided is True
        assert snap.motion_guided_strength == 5.0
        assert snap.motion_guided_random_rate == 0.0

    def test_defaults_without_config_file(self, tmp_path):
        # no --config: variant defaults with explicit out; keep it tiny via config-less gendata only
        assert run_cli("gendata", "--out", tmp_path / "d", "--seed", 1) == 0
        assert (tmp_path / "d" / "dataset.synv").exists()


class TestVerify:
    def test_verify_passes_and_prints_summary(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "checks passed" in out

    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys):
        for argv in (("verify", "--config", "x.lab"), ("report", "--seed", 1)):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err


class TestSweepReport:
    def test_sweep_then_report(self, tiny_config, tmp_path, capsys):
        root = tmp_path / "sw"
        # recipe fields in the file are overridden by each variant's recipe
        tiny_config.write_text(tiny_config.read_text() + "motion_guided = true\nlambda_hw = 0.7\n")
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Delta-JEPA",
                       "--train-per-class", 2, "--test-per-class", 2) == 0
        rows = json.loads((root / "sweep.json").read_text())
        assert [r["variant"] for r in rows] == ["Baseline", "Delta-JEPA"]
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
        for name in ("Baseline", "Delta-JEPA"):
            snap = load_config(root / variant_slug(name) / "config.lab")
            recipe = variant_defaults(name)
            for key in RECIPE_FIELDS:
                assert getattr(snap, key) == getattr(recipe, key), (name, key)
        capsys.readouterr()
        assert run_cli("report", "--out", root) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Delta-JEPA" in out and "vs base" in out

    def test_sweep_rejects_unknown_variant(self, tiny_config, tmp_path, capsys):
        assert run_cli("sweep", "--config", tiny_config,
                       "--out", tmp_path / "x", "--variants", "Nope") == 1
        assert "unknown variant" in capsys.readouterr().err

    def test_report_without_results_fails(self, tmp_path, capsys):
        assert run_cli("report", "--out", tmp_path / "empty") == 1
        assert "no sweep.json" in capsys.readouterr().err
