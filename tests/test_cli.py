"""End-to-end CLI coverage on tiny budgets."""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from vjlab import cli, probing, training
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


# Where a cut leaves a checkpoint's first record: after magic and version
# (8 bytes) come its name length (4), name, rank (4), shape and payload;
# "truncated" cuts inside the payload.
CHECKPOINT_CUTS = ["in name length", "in name", "in rank", "in shape", "truncated"]


def damage_checkpoint(ck, damage):
    if damage == "missing":
        ck.unlink()
        return
    raw = ck.read_bytes()
    name = 12 + struct.unpack("<I", raw[8:12])[0]
    cut = {"in name length": 10, "in name": name - 2, "in rank": name + 2,
           "in shape": name + 6, "truncated": 100}[damage]
    ck.write_bytes(raw[:cut])


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
        payload = json.loads((out / "probe-linear.json").read_text())
        assert payload["variant"] == "Baseline"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert "top-1" in capsys.readouterr().out

    def test_probe_reads_the_runs_own_config(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "kin"
        assert run_cli("pretrain", "--config", tiny_config, "--variant", "Kin.-L1",
                       "--out", out) == 0
        assert run_cli("probe", "--out", out, "--train-per-class", 2,
                       "--test-per-class", 2) == 0
        assert json.loads((out / "probe-linear.json").read_text())["variant"] == "Kin.-L1"
        capsys.readouterr()
        assert run_cli("probe", "--out", out, "--variant", "Baseline") == 1
        assert "holds a Kin.-L1 run, not Baseline" in capsys.readouterr().err
        assert run_cli("probe", "--config", tiny_config, "--out", out) == 1
        assert "not Baseline" in capsys.readouterr().err

    def test_each_probe_kind_keeps_its_own_file(self, tiny_config, tmp_path, capsys):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        for kind in ("linear", "attentive"):
            assert run_cli("probe", "--config", tiny_config, "--probe", kind,
                           "--train-per-class", 2, "--test-per-class", 2) == 0
        out = tmp_path / "run"
        # report still reads the single probe.json that older runs wrote
        (out / "probe-linear.json").rename(out / "probe.json")
        capsys.readouterr()
        assert run_cli("report", "--out", out) == 0
        rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:]]
        assert sorted(rows) == [["Baseline", "attentive"], ["Baseline", "linear"]]

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

    def test_pretrain_trains_on_a_fitting_dataset_file(self, tiny_config, tmp_path):
        assert run_cli("gendata", "--config", tiny_config, "--seed", 5) == 0
        assert run_cli("pretrain", "--config", tiny_config) == 0
        fresh = tmp_path / "fresh"
        assert run_cli("pretrain", "--config", tiny_config, "--out", fresh) == 0
        # the seed-5 file, not the config's seed-0 data, is what the run saw
        out = tmp_path / "run"
        assert (out / "metrics.jsonl").read_bytes() != (fresh / "metrics.jsonl").read_bytes()

    @pytest.mark.parametrize("change", ["n_per_class = 1\n", "n_per_class = 2\nframes = 4\n"])
    def test_pretrain_refuses_a_dataset_that_does_not_fit(self, tiny_config, tmp_path,
                                                         capsys, change):
        assert run_cli("gendata", "--config", tiny_config) == 0
        other = tmp_path / "other.lab"
        other.write_text(tiny_config.read_text().replace("n_per_class = 2\n", change))
        assert run_cli("pretrain", "--config", other, "--seed", 7) == 1
        err = capsys.readouterr().err
        assert "dataset.synv holds 16 clips of shape (8, 32, 32, 1)" in err
        assert "regenerate it with `lab gendata`" in err
        out = tmp_path / "run"
        assert not (out / "checkpoint.jpck").exists()
        assert not (out / "metrics.jsonl").exists()
        assert not (out / "config.lab").exists()

    @pytest.mark.parametrize("damage", ["cut", "nan pixel"])
    def test_pretrain_refuses_a_dataset_it_cannot_read(self, tiny_config, tmp_path, capsys,
                                                       damage):
        assert run_cli("gendata", "--config", tiny_config) == 0
        path = tmp_path / "run" / "dataset.synv"
        raw = bytearray(path.read_bytes())
        if damage == "cut":
            del raw[1000:]
        else:  # the first pixel of the third clip: 28 header bytes, 4 label bytes per clip
            pixel = 28 + 2 * (4 + 4 * 8 * 32 * 32) + 4
            raw[pixel:pixel + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run_cli("pretrain", "--config", tiny_config) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot read {path}: ")
        assert ("truncated SYNV file" if damage == "cut" else "[nan, nan]") in err
        assert not (tmp_path / "run" / "config.lab").exists()

    def test_defaults_without_config_file(self, tmp_path):
        # no --config: variant defaults with explicit out; keep it tiny via config-less gendata only
        assert run_cli("gendata", "--out", tmp_path / "d", "--seed", 1) == 0
        assert (tmp_path / "d" / "dataset.synv").exists()


class TestRunFilesThatDoNotFit:
    """A checkpoint or config.lab that does not fit the run is refused with
    one line on stderr and exit status 1, before any file is written."""

    @pytest.fixture
    def fwm_run_with_baseline_checkpoint(self, tiny_config, tmp_path, capsys):
        base, fwm = tmp_path / "base", tmp_path / "fwm"
        assert run_cli("pretrain", "--config", tiny_config, "--out", base) == 0
        assert run_cli("pretrain", "--config", tiny_config, "--variant", "FWM-HW-LD",
                       "--out", fwm) == 0
        shutil.copyfile(base / "checkpoint.jpck", fwm / "checkpoint.jpck")
        capsys.readouterr()
        return fwm

    def test_probe_refuses_another_variants_checkpoint(self, fwm_run_with_baseline_checkpoint,
                                                       capsys):
        fwm = fwm_run_with_baseline_checkpoint
        assert run_cli("probe", "--out", fwm, "--train-per-class", 1,
                       "--test-per-class", 1) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert "checkpoint.jpck does not fit this config" in err
        assert "heads.dyn_w1" in err
        assert not (fwm / "probe-linear.json").exists()

    def test_resume_refuses_another_variants_checkpoint(self, fwm_run_with_baseline_checkpoint,
                                                        tiny_config, capsys):
        fwm = fwm_run_with_baseline_checkpoint
        log = (fwm / "metrics.jsonl").read_bytes()
        assert run_cli("pretrain", "--config", tiny_config, "--variant", "FWM-HW-LD",
                       "--out", fwm, "--resume") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "checkpoint.jpck does not fit this config" in err
        assert "heads.dyn_w1" in err
        assert (fwm / "metrics.jsonl").read_bytes() == log

    @pytest.mark.parametrize("damage", ["missing", *CHECKPOINT_CUTS])
    def test_resume_refuses_a_checkpoint_it_cannot_read(self, tiny_config, tmp_path, capsys,
                                                        damage):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        ck = tmp_path / "run" / "checkpoint.jpck"
        damage_checkpoint(ck, damage)
        log = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        capsys.readouterr()
        assert run_cli("pretrain", "--config", tiny_config, "--resume") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot read checkpoint {ck}: ")
        assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == log

    @pytest.mark.parametrize("damage", CHECKPOINT_CUTS)
    def test_probe_refuses_a_checkpoint_it_cannot_read(self, tiny_config, tmp_path, capsys,
                                                       damage):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        ck = tmp_path / "run" / "checkpoint.jpck"
        damage_checkpoint(ck, damage)
        capsys.readouterr()
        assert run_cli("probe", "--config", tiny_config,
                       "--train-per-class", 1, "--test-per-class", 1) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"cannot read checkpoint {ck}: ")
        assert not (tmp_path / "run" / "probe-linear.json").exists()

    def test_resume_refuses_a_run_without_config(self, tiny_config, tmp_path, capsys):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        (tmp_path / "run" / "config.lab").unlink()
        capsys.readouterr()
        assert run_cli("pretrain", "--config", tiny_config, "--resume") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config.lab is missing" in err
        assert not (tmp_path / "run" / "config.lab").exists()

    @pytest.mark.parametrize("line", [b"garbage", b'{"step": 2', b"[2]", b"{}", b"\xff"],
                             ids=["text", "cut", "list", "no step", "not utf-8"])
    def test_resume_refuses_a_kept_log_line_it_cannot_parse(self, tiny_config, tmp_path,
                                                            capsys, line):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        log = tmp_path / "run" / "metrics.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(lines[0] + line + b"\n" + b"".join(lines[2:]))
        damaged = log.read_bytes()
        capsys.readouterr()
        assert run_cli("pretrain", "--config", tiny_config, "--resume") == 1
        err = capsys.readouterr().err
        assert err == f"{log} does not hold steps 1..3 of the checkpoint\n"
        assert log.read_bytes() == damaged

    @pytest.mark.parametrize("command", ["resume", "probe"])
    @pytest.mark.parametrize("text", [b"garbage\n", b"lr_peak = 6e-4\nlr_peak = 1e-3\n",
                                      b"variant = \xff\n"],
                             ids=["no key", "duplicate key", "not utf-8"])
    def test_a_config_lab_it_cannot_parse_is_refused(self, tiny_config, tmp_path, capsys,
                                                     command, text):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        saved = tmp_path / "run" / "config.lab"
        saved.write_bytes(text)
        log = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        capsys.readouterr()
        if command == "resume":
            assert run_cli("pretrain", "--config", tiny_config, "--resume") == 1
        else:
            assert run_cli("probe", "--out", tmp_path / "run", "--train-per-class", 1,
                           "--test-per-class", 1) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"cannot read {saved}: ")
        assert saved.read_bytes() == text
        assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == log
        assert not (tmp_path / "run" / "probe-linear.json").exists()

    def test_resume_refuses_a_changed_config(self, tiny_config, tmp_path, capsys):
        assert run_cli("pretrain", "--config", tiny_config) == 0
        capsys.readouterr()
        assert run_cli("pretrain", "--config", tiny_config, "--seed", 3, "--resume") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "differs from" in err and "in seed" in err


class TestVerify:
    def test_verify_passes_and_prints_summary(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "checks passed" in out

    def test_failing_check_is_reported(self, monkeypatch, capsys):
        def boom():
            raise AssertionError("boom")

        monkeypatch.setattr(cli, "CHECKS", cli.CHECKS[:5] + (boom,) + cli.CHECKS[6:])
        assert run_cli("verify") == 1
        lines = capsys.readouterr().out.splitlines()
        assert "[FAIL] boom  AssertionError: boom" in lines
        assert lines[-1] == "13/14 checks passed"
        passes = [line for line in lines if line.startswith("[PASS]")]
        assert len(passes) == 13
        assert all(line == line.rstrip() for line in passes)

    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys):
        for argv in (("verify", "--config", "x.lab"), ("verify", "--seed", "0"),
                     ("report", "--seed", 1), ("gendata", "--variant", "Kin.-L1")):
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

    def test_report_files_sweep_rows_under_their_probe_kind(self, tiny_config, tmp_path,
                                                             capsys):
        root = tmp_path / "sw"
        tiny_config.write_text(tiny_config.read_text() + "probe_kind = attentive\n")
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Delta-JEPA",
                       "--train-per-class", 2, "--test-per-class", 2) == 0
        rows = json.loads((root / "sweep.json").read_text())
        assert [r["kind"] for r in rows] == ["attentive", "attentive"]
        assert run_cli("probe", "--out", root / "baseline", "--probe", "attentive",
                       "--train-per-class", 2, "--test-per-class", 2) == 0
        probed = json.loads((root / "baseline" / "probe-attentive.json").read_text())["accuracy"]
        capsys.readouterr()
        assert run_cli("report", "--out", root) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["variant", "kind", "top-1", "vs", "base"]
        # the probe refreshes the sweep's Baseline row instead of adding a second one
        base_rows = [line.split() for line in lines if line.split()[0] == "Baseline"]
        assert base_rows == [["Baseline", "attentive", f"{probed:.4f}", "+0.00"]]

    def test_sweep_renders_the_training_set_once(self, tiny_config, tmp_path, monkeypatch):
        renders = []

        def counted(render):
            def wrapper(*args, **kwargs):
                renders.append(args)
                return render(*args, **kwargs)
            return wrapper

        for module in (cli, training):
            monkeypatch.setattr(module, "gen_motion_dataset", counted(module.gen_motion_dataset))
        root = tmp_path / "sw"
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Delta-JEPA",
                       "--train-per-class", 1, "--test-per-class", 1) == 0
        assert len(renders) == 1
        # each variant's log and checkpoint are those of a pretrain run of its own
        for name in ("Baseline", "Delta-JEPA"):
            alone = tmp_path / "alone" / variant_slug(name)
            assert run_cli("pretrain", "--config", tiny_config, "--variant", name,
                           "--out", alone) == 0
            for file in ("metrics.jsonl", "checkpoint.jpck"):
                assert (root / variant_slug(name) / file).read_bytes() == \
                    (alone / file).read_bytes(), (name, file)

    def test_sweep_renders_the_probe_sets_once(self, tiny_config, tmp_path, monkeypatch):
        renders = []

        def counted(render):
            def wrapper(*args, **kwargs):
                renders.append(args)
                return render(*args, **kwargs)
            return wrapper

        for module in (cli, training, probing):
            monkeypatch.setattr(module, "gen_motion_dataset", counted(module.gen_motion_dataset))
        root = tmp_path / "sw"
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Delta-JEPA,HW-JEPA",
                       "--train-per-class", 2, "--test-per-class", 2) == 0
        assert len(renders) == 3  # one training set and two probe sets, shared by all variants
        # each variant's accuracy is that of a probe run of its own
        rows = json.loads((root / "sweep.json").read_text())
        assert [row["variant"] for row in rows] == ["Baseline", "Delta-JEPA", "HW-JEPA"]
        for row in rows:
            run = root / variant_slug(row["variant"])
            assert run_cli("probe", "--out", run,
                           "--train-per-class", 2, "--test-per-class", 2) == 0
            alone = json.loads((run / "probe-linear.json").read_text())
            assert row["accuracy"] == alone["accuracy"], row["variant"]

    def test_sweep_refuses_a_dataset_that_does_not_fit(self, tiny_config, tmp_path, capsys):
        root = tmp_path / "sw"
        assert run_cli("gendata", "--config", tiny_config,
                       "--out", root / variant_slug("Delta-JEPA")) == 0
        tiny_config.write_text(tiny_config.read_text() + "frames = 4\n")
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Delta-JEPA",
                       "--train-per-class", 2, "--test-per-class", 2) == 1
        err = capsys.readouterr().err
        assert "holds 16 clips of shape (8, 32, 32, 1)" in err
        assert "asks for 16 of shape (4, 32, 32, 1)" in err
        assert not (root / "sweep.json").exists()
        assert not (root / variant_slug("Baseline")).exists()  # refused before any training

    def test_sweep_refuses_a_dataset_it_cannot_read_before_training(self, tiny_config,
                                                                     tmp_path, capsys):
        root = tmp_path / "sw"
        path = root / variant_slug("Delta-JEPA") / "dataset.synv"
        assert run_cli("gendata", "--config", tiny_config, "--out", path.parent) == 0
        path.write_bytes(path.read_bytes()[:1000])
        capsys.readouterr()
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Delta-JEPA",
                       "--train-per-class", 1, "--test-per-class", 1) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot read {path}: truncated SYNV file")
        assert not (root / variant_slug("Baseline")).exists()  # refused before any training

    def test_sweep_loads_each_dataset_when_its_variant_trains(self, tiny_config, tmp_path,
                                                              monkeypatch):
        root = tmp_path / "sw"
        names = ("Baseline", "Delta-JEPA")
        for seed, name in enumerate(names):
            assert run_cli("gendata", "--config", tiny_config, "--seed", seed,
                           "--out", root / variant_slug(name)) == 0
        events = []

        def load(path):
            events.append(("load", path.parent.name))
            return load_dataset(path)

        def pretrain(cfg, dataset):
            events.append(("train", Path(cfg.out).name))
            return training.run_pretrain(cfg, dataset=dataset)

        monkeypatch.setattr(cli, "load_dataset", load)
        monkeypatch.setattr(cli, "run_pretrain", pretrain)
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", ",".join(names),
                       "--train-per-class", 1, "--test-per-class", 1) == 0
        assert events == [(step, variant_slug(name)) for name in names
                          for step in ("load", "train")]

    def test_sweep_refuses_a_variant_the_geometry_cannot_train(self, tiny_config, tmp_path,
                                                               capsys):
        tiny_config.write_text(tiny_config.read_text() + "frames = 4\n")
        root = tmp_path / "sw"
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", "Baseline,Kin.-Accel") == 1
        assert "needs >= 3 temporal blocks, got 2" in capsys.readouterr().err
        assert not root.exists()  # refused before any training

    def test_sweep_rejects_unknown_variant(self, tiny_config, tmp_path, capsys):
        assert run_cli("sweep", "--config", tiny_config,
                       "--out", tmp_path / "x", "--variants", "Nope") == 1
        assert "unknown variant" in capsys.readouterr().err

    @pytest.mark.parametrize("variants", ["", " , "], ids=["empty", "blank entries"])
    def test_sweep_refuses_an_empty_variant_list(self, tiny_config, tmp_path, capsys,
                                                 variants):
        root = tmp_path / "sw"
        assert run_cli("sweep", "--config", tiny_config, "--out", root,
                       "--variants", variants) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "names no variant" in err
        assert not root.exists()

    @pytest.mark.parametrize("command", ["probe", "sweep"])
    @pytest.mark.parametrize("flag", ["--train-per-class", "--test-per-class"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_a_per_class_count_below_one_is_rejected_before_any_work(
            self, tiny_config, tmp_path, monkeypatch, capsys, command, flag, value):
        if command == "probe":  # a trained run, so probe would get as far as its checkpoint
            assert run_cli("pretrain", "--config", tiny_config) == 0
            capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "load_train_state", no_work)
        monkeypatch.setattr(cli, "gen_motion_dataset", no_work)
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", tiny_config, flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, problem", [
        ("probe-linear.json", '{"variant": "Baseline", "kind": "linear", "accu',
         "Unterminated string"),
        ("probe-linear.json", '[{"variant": "Baseline", "accuracy": 0.5}]',
         "it does not hold one result row"),
        ("probe-linear.json", '{"variant": "Baseline", "kind": ["linear"], "accuracy": 0.5}',
         "it does not hold one result row"),
        ("probe-attentive.json", '{"variant": "Baseline", "accuracy": "high"}',
         "it does not hold one result row"),
        ("sweep.json", '{"variant": "Baseline", "accuracy": 0.5}',
         "it does not hold a list of result rows"),
        ("sweep.json", '[{"variant": "Baseline", "accuracy": 0.5}, 3]',
         "it does not hold a list of result rows"),
        ("sweep.json", "\xff", "can't decode"),
    ], ids=["cut probe", "probe list", "unhashable kind", "text accuracy", "sweep object",
            "sweep non-row", "not utf-8"])
    def test_report_refuses_a_result_file_it_cannot_read(self, tmp_path, capsys, name, text,
                                                        problem):
        run = tmp_path / "sw" / "baseline"
        run.mkdir(parents=True)
        (run / "probe-linear.json").write_text('{"variant": "Baseline", "accuracy": 0.5}\n')
        bad = (tmp_path / "sw" if name == "sweep.json" else run) / name
        bad.write_bytes(text.encode("latin-1"))
        assert run_cli("report", "--out", tmp_path / "sw") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"cannot read {bad}: ") and problem in err

    def test_report_without_results_fails(self, tmp_path, capsys):
        assert run_cli("report", "--out", tmp_path / "empty") == 1
        assert "no sweep.json" in capsys.readouterr().err
