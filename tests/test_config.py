"""Config parsing, variant defaults, canonical serialization."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vjlab.cli import main as lab_main
from vjlab.config import (
    VARIANTS,
    RunConfig,
    apply_overrides,
    load_config,
    parse_config,
    save_config,
    serialize_config,
    variant_defaults,
    with_variant,
)
from vjlab.training import init_state

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig().validate()

    def test_round_trip_defaults(self):
        cfg = RunConfig().validate()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_exotic_floats(self):
        cfg = dataclasses.replace(RunConfig(), lr_peak=6e-4, tau=0.3333333333333333,
                                  mask_ratio=0.49999999999999994)
        again = parse_config(serialize_config(cfg))
        assert again.lr_peak == cfg.lr_peak
        assert again.tau == cfg.tau
        assert again.mask_ratio == cfg.mask_ratio

    def test_round_trip_every_variant(self):
        for variant, spec in VARIANTS.items():
            cfg = variant_defaults(variant).validate()
            assert parse_config(serialize_config(cfg)) == cfg, variant
            assert cfg.lambda_hw == spec.lambda_hw, variant
            for key, val in spec.masking.items():
                assert getattr(cfg, key) == val, (variant, key)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n  \nseed = 3\n# another\n")
        assert cfg.seed == 3

    def test_variant_brings_recipe_defaults(self):
        cfg = parse_config("variant = AMG-JEPA\n")
        assert cfg.motion_guided
        assert cfg.motion_guided_strength == 5.0
        assert cfg.motion_guided_random_rate == 0.0

    def test_future_predictive_defaults(self):
        cfg = parse_config("variant = Future-Predictive\n")
        assert cfg.full_complement
        assert cfg.max_temporal_keep == 0.5

    def test_hw_lambda_default_follows_variant(self):
        assert parse_config("variant = HW-JEPA\n").lambda_hw == 0.3
        assert parse_config("variant = HW-LD-JEPA\n").lambda_hw == 1.0

    def test_explicit_key_beats_variant_default_any_order(self):
        a = parse_config("variant = Motion-Guided\nmotion_guided_strength = 9.0\n")
        b = parse_config("motion_guided_strength = 9.0\nvariant = Motion-Guided\n")
        assert a.motion_guided_strength == 9.0
        assert b.motion_guided_strength == 9.0
        assert a == b

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 3: unknown key 'tubelets'"):
            parse_config("seed = 1\n# fine\ntubelets = 2\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
            parse_config("seed = 1\nnot a pair\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ValueError, match="line 3: duplicate key 'seed' \\(first on line 1\\)"):
            parse_config("seed = 1\nsteps = 5\nseed = 2\n")

    def test_bad_value_types_report_line(self):
        with pytest.raises(ValueError, match="line 1: bad int value 'x'"):
            parse_config("seed = x\n")
        with pytest.raises(ValueError, match="line 1: bad float value 'fast'"):
            parse_config("lr_peak = fast\n")
        with pytest.raises(ValueError, match="line 1: bad bool value 'yes'"):
            parse_config("motion_guided = yes\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError, match="line 1: empty value"):
            parse_config("seed =\n")

    def test_unknown_variant_reports_line(self):
        with pytest.raises(ValueError, match="line 2: unknown variant 'Basline'"):
            parse_config("seed = 1\nvariant = Basline\n")

    def test_value_may_contain_equals(self):
        cfg = parse_config("out = runs/a=b\n")
        assert cfg.out == "runs/a=b"


class TestValidation:
    def test_geometry_divisibility(self):
        with pytest.raises(ValueError, match="not divisible"):
            dataclasses.replace(RunConfig(), frames=7).validate()
        with pytest.raises(ValueError, match="not divisible"):
            dataclasses.replace(RunConfig(), height=30).validate()

    def test_mask_ratio_range(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            dataclasses.replace(RunConfig(), mask_ratio=0.0).validate()

    def test_warmup_frac_range(self):
        with pytest.raises(ValueError, match="warmup_frac"):
            dataclasses.replace(RunConfig(), warmup_frac=1.0).validate()

    def test_probe_kind_checked(self):
        with pytest.raises(ValueError, match="probe_kind"):
            dataclasses.replace(RunConfig(), probe_kind="mlp").validate()

    def test_momentum_range(self):
        with pytest.raises(ValueError, match="ema_momentum"):
            dataclasses.replace(RunConfig(), ema_momentum=1.5).validate()

    def test_model_invariants_surface(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            dataclasses.replace(RunConfig(), dim=20).validate()

    def test_objective_invariants_surface(self):
        with pytest.raises(ValueError, match="lambda_kin"):
            dataclasses.replace(RunConfig(), lambda_kin=-1.0).validate()

    def test_positive_counts(self):
        with pytest.raises(ValueError, match="steps"):
            dataclasses.replace(RunConfig(), steps=0).validate()

    @pytest.mark.parametrize("field", ["tubelet", "patch", "heads", "pred_heads"])
    def test_zero_geometry_named_before_any_modulo(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
            parse_config(f"{field} = 0\n")

    def test_channels_other_than_one_rejected(self):
        # the synthetic clips have one channel, so a 3-channel model cannot train on them
        with pytest.raises(ValueError, match="channels must be 1, got 3"):
            parse_config("channels = 3\n")

    @pytest.mark.parametrize("variant, geometry, message", [
        ("Kin.-Accel", {"frames": 4, "tubelet": 2},
         "acceleration penalty needs >= 3 temporal blocks, got 2"),
        ("Kin.-Split", {"frames": 4, "tubelet": 2},
         "acceleration penalty needs >= 3 temporal blocks, got 2"),
        ("SIGReg", {"frames": 2, "tubelet": 2, "height": 16, "width": 16},
         "sigreg needs at least 8 tokens, got 4"),
        ("Baseline", {"height": 16, "width": 16, "patch": 16},
         "grid of 1 spatial tokens cannot hit ratio 0.5 within 10%"),
        ("FWM-JEPA", {"app_ratio": 0.3}, "app_ratio 0.3 does not split 32 channels integrally"),
    ])
    def test_geometry_the_variant_cannot_train_on(self, tmp_path, capsys, variant, geometry,
                                                  message):
        # each of these used to crash at the first step, after config.lab was written
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(variant_defaults(variant), **geometry).validate()
        path = tmp_path / "bad.lab"
        path.write_text(f"variant = {variant}\n"
                        + "".join(f"{key} = {val}\n" for key, val in geometry.items()))
        out = tmp_path / "run"
        assert lab_main(["pretrain", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_every_float_field_must_be_finite(self, value):
        # a NaN passes every range check, since each comparison with it is false
        names = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]
        assert "lr_peak" in names and "lambda_hw" in names and len(names) == 23
        for name in names:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                dataclasses.replace(RunConfig(), **{name: value}).validate()

    @pytest.mark.parametrize("variant, key, value", [
        ("Baseline", "lr_peak", "nan"),
        ("Baseline", "weight_decay", "nan"),
        ("Baseline", "lambda_hw", "nan"),
        ("HW-JEPA", "lambda_hw", "nan"),
        ("Kin.-L1", "lambda_kin", "inf"),
    ])
    def test_pretrain_refuses_a_non_finite_value(self, tmp_path, capsys, variant, key, value):
        # each of these used to write config.lab, then crash or train on a NaN
        path = tmp_path / "bad.lab"
        out = tmp_path / "run"
        path.write_text(f"variant = {variant}\nsteps = 2\nbatch_size = 2\nn_per_class = 1\n"
                        f"{key} = {value}\nout = {out}\n")
        assert lab_main(["pretrain", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid config: {key} must be finite, got {value}\n"
        assert not (out / "config.lab").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("lr_start", 0.0, "learning rates must be positive"),
        ("lr_peak", -6e-4, "learning rates must be positive"),
        ("probe_lr", -1e-3, "learning rates must be positive"),
        ("weight_decay", -0.1, "weight_decay must be non-negative"),
        ("max_temporal_keep", 0.0, "max_temporal_keep must lie in (0, 1]"),
        ("max_temporal_keep", 1.5, "max_temporal_keep must lie in (0, 1]"),
        ("motion_guided_random_rate", 1.5, "motion_guided_random_rate must lie in [0, 1]"),
        ("motion_guided_random_rate", -0.5, "motion_guided_random_rate must lie in [0, 1]"),
        ("motion_guided_strength", -1.0, "motion_guided_strength must be non-negative"),
    ])
    def test_out_of_range_value_refused(self, tmp_path, capsys, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(RunConfig(), **{key: value}).validate()
        path = tmp_path / "bad.lab"
        out = tmp_path / "run"
        path.write_text(f"{key} = {value}\nout = {out}\n")
        assert lab_main(["pretrain", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid config: {message}\n"
        assert not out.exists()

    def test_variants_without_ema_have_a_part(self):
        # without a teacher, batch_parts takes the targets from the part's full-grid encode
        for name, spec in VARIANTS.items():
            assert spec.ema or spec.components, name

    def test_single_temporal_block_needs_no_acceleration(self):
        # one block has no transition: batch_parts gives every part in TEMPORAL_PARTS,
        # the kinematic one too, 0 without calling its loss, so there is nothing to refuse
        for variant in ("Kin.-Accel", "Kin.-Split"):
            dataclasses.replace(variant_defaults(variant), frames=2, tubelet=2).validate()


def test_config_imports_no_model_losses_or_training():
    code = "import sys, vjlab.config; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "vjlab.config" in loaded
    for module in ("vjlab.model", "vjlab.objectives", "vjlab.training"):
        assert module not in loaded, module


class TestDerived:
    def test_variant_ema_flag_decides_teacher(self):
        assert init_state(RunConfig()).teacher is not None
        assert init_state(variant_defaults("SIGReg-no-EMA")).teacher is None
        assert init_state(variant_defaults("Kin.-L1")).teacher is None

    def test_with_variant_switches_between_any_two_recipes(self):
        # every recipe field follows the new variant, so a masked recipe
        # (AMG-JEPA) switched back to Baseline keeps none of its flags
        for a in VARIANTS:
            start = variant_defaults(a)
            for b in VARIANTS:
                got = dataclasses.replace(with_variant(start, b), out="")
                assert got == dataclasses.replace(variant_defaults(b), out=""), (a, b)

    def test_out_slug(self):
        assert variant_defaults("Kin.-L1").out == "runs/kin-l1"
        assert variant_defaults("AC+HW-JEPA").out == "runs/ac-hw-jepa"

    def test_apply_overrides(self):
        cfg = RunConfig().validate()
        cfg2 = apply_overrides(cfg, seed=9, out="elsewhere")
        assert (cfg2.seed, cfg2.out) == (9, "elsewhere")
        assert cfg.seed == 0  # original untouched

    def test_apply_overrides_validates(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            apply_overrides(RunConfig(), mask_ratio=2.0)


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        cfg = variant_defaults("Combo")
        path = tmp_path / "run.lab"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_serialized_booleans_lowercase(self):
        text = serialize_config(variant_defaults("Motion-Guided"))
        assert "motion_guided = true" in text
        assert "full_complement = false" in text
