"""Run configuration: `RunConfig`, the variant tables, `key = value` files.

`RunConfig` is the one config of a run; the model, masking, the losses and
their composition all read it directly. `VARIANTS` says what each variant
is: its loss parts, kinematic kind, EMA flag and recipe, the `RunConfig`
fields it sets. A variant is factorized (`VariantSpec.fwm`) exactly when its
parts include `static` and `orth`. `PART_WEIGHTS` maps each loss part, in
summation order, to the field that weights it; `TEMPORAL_PARTS` names the
parts that read 0 on one temporal block. `with_variant` lays a variant's
recipe over a config, every other field of any recipe (`RECIPE_FIELDS`, the
union of their keys) taking its default; `validate` refuses a non-finite
float field, and a token grid or channel split the variant cannot train on.

Parsing resolves variant-dependent defaults first, then applies the
remaining keys, so a file containing just ``variant = AMG-JEPA`` picks up
that recipe's sampler settings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .masking import feasible_counts


@dataclass(frozen=True)
class VariantSpec:
    """What a named variant adds on top of the masked-prediction loss."""

    components: frozenset[str] = frozenset()
    kin_kind: str | None = None
    ema: bool = True
    recipe: dict = field(default_factory=dict)  # RunConfig fields the variant sets

    @property
    def fwm(self) -> bool:
        """Factorized: the dynamics and action heads read the dynamics slice."""
        return {"static", "orth"} <= self.components


_MG = {"motion_guided": True, "motion_guided_strength": 2.0, "motion_guided_random_rate": 0.1}
_AMG = {"motion_guided": True, "motion_guided_strength": 5.0, "motion_guided_random_rate": 0.0}
_FP = {"full_complement": True, "max_temporal_keep": 0.5}

VARIANTS: dict[str, VariantSpec] = {
    "Baseline": VariantSpec(),
    "Motion-Guided": VariantSpec(recipe=_MG),
    "AMG-JEPA": VariantSpec(recipe=_AMG),
    "Future-Predictive": VariantSpec(recipe=_FP),
    "Motion-Future": VariantSpec(recipe={**_MG, **_FP}),
    "Kin.-L1": VariantSpec(components=frozenset({"kin"}), kin_kind="l1", ema=False),
    "Kin.-Huber": VariantSpec(components=frozenset({"kin"}), kin_kind="huber", ema=False),
    "Kin.-Accel": VariantSpec(components=frozenset({"kin"}), kin_kind="accel", ema=False),
    "Kin.-Split": VariantSpec(components=frozenset({"kin"}), kin_kind="split", ema=False),
    "Kin.-Anneal": VariantSpec(components=frozenset({"kin"}), kin_kind="anneal", ema=False),
    "SIGReg": VariantSpec(components=frozenset({"sigreg"})),
    "SIGReg-no-EMA": VariantSpec(components=frozenset({"sigreg"}), ema=False),
    "Hamiltonian": VariantSpec(components=frozenset({"ham"})),
    "VelGate": VariantSpec(components=frozenset({"velgate"})),
    "Delta-JEPA": VariantSpec(components=frozenset({"delta"})),
    "LD-JEPA": VariantSpec(components=frozenset({"ld"})),
    "Spectral-JEPA": VariantSpec(components=frozenset({"spectral"})),
    "LTC-JEPA": VariantSpec(components=frozenset({"ltc"})),
    "FWM-JEPA": VariantSpec(components=frozenset({"static", "orth"})),
    "HW-JEPA": VariantSpec(components=frozenset({"hw_jepa"})),
    "HW-LD-JEPA": VariantSpec(components=frozenset({"hw_jepa", "ld_hw"}),
                              recipe={"lambda_hw": 1.0}),
    "FWM-LD-JEPA": VariantSpec(components=frozenset({"static", "orth", "ld"})),
    "AC-JEPA": VariantSpec(components=frozenset({"ac"})),
    "FAC-JEPA": VariantSpec(components=frozenset({"ac", "static", "orth"})),
    "AC+HW-JEPA": VariantSpec(components=frozenset({"ac", "hw_jepa"})),
    "Combo": VariantSpec(components=frozenset({"delta", "hw_jepa"}), recipe=_AMG),
    "FWM-HW-LD": VariantSpec(components=frozenset({"hw_jepa", "static", "orth", "ld_hw"}),
                             recipe={"lambda_hw": 1.0}),
}

# Each loss part and the RunConfig field that weights it (None: weight 1). The
# key order is the summation order, fixed so that float totals reproduce.
PART_WEIGHTS: dict[str, str | None] = {
    "jepa": None, "hw_jepa": "lambda_hw", "static": "lambda_s", "orth": "lambda_o",
    "ld_hw": "lambda_d", "kin": "lambda_kin", "sigreg": None, "ham": None, "velgate": None,
    "delta": "lambda_delta", "ld": "lambda_d", "spectral": "lambda_spec", "ltc": "lambda_ltc",
    "ac": "lambda_ac",
}

# The parts that compare time blocks. On a token grid of one temporal block
# there is no transition, and each of them reads 0 without being computed.
TEMPORAL_PARTS = frozenset({"static", "ld_hw", "kin", "ham", "velgate", "delta", "ld",
                            "spectral", "ltc", "ac"})


@dataclass
class RunConfig:
    # run identity
    variant: str = "Baseline"
    seed: int = 0
    out: str = "runs/baseline"

    # synthetic data
    n_per_class: int = 8
    frames: int = 8
    height: int = 32
    width: int = 32
    channels: int = 1

    # encoder / predictor geometry
    patch: int = 8
    tubelet: int = 2
    dim: int = 32
    heads: int = 2
    layers: int = 2
    ff: int = 64
    pred_layers: int = 2
    pred_heads: int = 2
    dyn_hidden: int = 64
    ham_hidden: int = 32

    # optimization schedule
    steps: int = 500
    batch_size: int = 8
    warmup_frac: float = 0.1
    lr_start: float = 1e-4
    lr_peak: float = 6e-4
    weight_decay: float = 0.04
    ema_momentum: float = 0.99925

    # masking
    mask_ratio: float = 0.5
    motion_guided: bool = False
    motion_guided_strength: float = 2.0
    motion_guided_random_rate: float = 0.1
    full_complement: bool = False
    max_temporal_keep: float = 1.0

    # loss coefficients
    lambda_kin: float = 0.1
    lambda_s: float = 0.05
    lambda_o: float = 0.01
    lambda_d: float = 1.0
    lambda_hw: float = 0.3
    lambda_ac: float = 1.0
    lambda_delta: float = 0.5
    lambda_spec: float = 1.0
    lambda_ltc: float = 0.5
    tau: float = 1.0
    huber_delta: float = 1.0
    ltc_margin: float = 0.5
    app_ratio: float = 0.5
    anneal_horizon: int = 500
    sigreg_projections: int = 8

    # probing
    probe_kind: str = "linear"
    probe_epochs: int = 50
    probe_batch: int = 16
    probe_lr: float = 1e-3

    def validate(self) -> "RunConfig":
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant '{self.variant}'")
        # before the range checks, which a NaN passes: every comparison with it is false
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ["seed", "layers", "pred_layers", "lambda_kin", "lambda_s", "lambda_o",
                     "lambda_d", "lambda_hw", "lambda_ac", "lambda_delta", "lambda_spec",
                     "lambda_ltc"]:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # the geometry fields first: the divisibility checks below take them modulo
        for name in ["frames", "height", "width", "patch", "tubelet", "dim", "heads", "ff",
                     "pred_heads", "dyn_hidden", "ham_hidden", "n_per_class", "steps",
                     "batch_size", "probe_epochs", "probe_batch", "anneal_horizon",
                     "sigreg_projections"]:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.channels != 1:
            raise ValueError(f"channels must be 1, got {self.channels}: the synthetic "
                             f"clips are rendered with one channel")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie in [0, 1)")
        if self.lr_start <= 0.0 or self.lr_peak <= 0.0 or self.probe_lr <= 0.0:
            raise ValueError("learning rates must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError("ema_momentum must lie in [0, 1]")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in (0, 1)")
        if not 0.0 < self.max_temporal_keep <= 1.0:
            raise ValueError("max_temporal_keep must lie in (0, 1]")
        if not 0.0 <= self.motion_guided_random_rate <= 1.0:
            raise ValueError("motion_guided_random_rate must lie in [0, 1]")
        if self.motion_guided_strength < 0.0:
            raise ValueError("motion_guided_strength must be non-negative")
        if self.frames % self.tubelet or self.height % self.patch or self.width % self.patch:
            raise ValueError(
                f"clip {self.frames}x{self.height}x{self.width} not divisible by "
                f"tubelet {self.tubelet} / patch {self.patch}"
            )
        if self.dim % 8:
            raise ValueError(f"dim must be a multiple of 8 for position codes, got {self.dim}")
        if self.dim % self.heads or self.dim % self.pred_heads:
            raise ValueError("heads must divide dim")
        if self.tau <= 0.0 or self.huber_delta <= 0.0 or self.ltc_margin <= 0.0:
            raise ValueError("tau, huber_delta and ltc_margin must be positive")
        if not 0.0 < self.app_ratio < 1.0:
            raise ValueError(f"app_ratio must be in (0, 1), got {self.app_ratio}")
        if self.probe_kind not in ("linear", "attentive"):
            raise ValueError(f"probe_kind must be linear or attentive, got '{self.probe_kind}'")
        # config.lab holds out on one stripped line; any other value would not read back
        if self.out.strip() != self.out or self.out.splitlines() != [self.out]:
            raise ValueError(f"out must be one non-empty line without surrounding whitespace, "
                             f"got {self.out!r}")
        # the variant's masks and losses on this token grid (one block: TEMPORAL_PARTS read 0)
        spec = VARIANTS[self.variant]
        tp = self.frames // self.tubelet
        n_space = (self.height // self.patch) * (self.width // self.patch)
        feasible_counts(n_space, self.mask_ratio)
        if spec.kin_kind in ("accel", "split") and tp == 2:
            raise ValueError(f"acceleration penalty needs >= 3 temporal blocks, got {tp}")
        if "sigreg" in spec.components and tp * n_space < 8:
            raise ValueError(f"sigreg needs at least 8 tokens, got {tp * n_space}")
        if spec.fwm:
            app_width(self.app_ratio, self.dim)
        return self


# The RunConfig fields some variant's recipe sets.
RECIPE_FIELDS = frozenset().union(*(spec.recipe for spec in VARIANTS.values()))


def app_width(app_ratio: float, dim: int) -> int:
    """Appearance channels of a ``dim``-wide latent; the rest are dynamics."""
    d_app = app_ratio * dim
    if abs(d_app - round(d_app)) > 1e-9:
        raise ValueError(f"app_ratio {app_ratio} does not split {dim} channels integrally")
    d_app = int(round(d_app))
    if not 0 < d_app < dim:
        raise ValueError(f"appearance split {d_app} of {dim} leaves an empty side")
    return d_app


def with_variant(cfg: RunConfig, variant: str) -> RunConfig:
    """``cfg`` switched to ``variant``: every recipe field takes its
    RunConfig default unless the variant's spec sets it."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant '{variant}'")
    spec = VARIANTS[variant]
    defaults = RunConfig()
    recipe = {name: getattr(defaults, name) for name in RECIPE_FIELDS}
    recipe.update(spec.recipe)
    return dataclasses.replace(cfg, variant=variant, **recipe).validate()


def variant_defaults(variant: str) -> RunConfig:
    """Baseline defaults overlaid with the variant's recipe settings."""
    return with_variant(RunConfig(out=f"runs/{variant_slug(variant)}"), variant)


def variant_slug(variant: str) -> str:
    out = []
    for ch in variant.lower():
        out.append(ch if ch.isalnum() else "-")
    text = "".join(out)
    while "--" in text:
        text = text.replace("--", "-")
    return text.strip("-")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _coerce(name: str, raw: str, lineno: int):
    kind = _FIELDS[name].type
    try:
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ValueError(f"line {lineno}: bad {kind} value '{raw}' for key '{name}'") from None


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; '#' lines are comments; unknown keys fail."""
    pairs: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        if not raw:
            raise ValueError(f"line {lineno}: empty value for key '{key}'")
        pairs.append((lineno, key, raw))

    seen: dict[str, int] = {}
    for lineno, key, _ in pairs:
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key '{key}' (first on line {seen[key]})")
        seen[key] = lineno

    variant = "Baseline"
    for lineno, key, raw in pairs:
        if key == "variant":
            if raw not in VARIANTS:
                raise ValueError(f"line {lineno}: unknown variant '{raw}'")
            variant = raw
    cfg = variant_defaults(variant)
    for lineno, key, raw in pairs:
        if key == "variant":
            continue
        setattr(cfg, key, _coerce(key, raw, lineno))
    return cfg.validate()


def serialize_config(cfg: RunConfig) -> str:
    """Canonical full dump; parse(serialize(cfg)) reproduces cfg exactly."""
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(serialize_config(cfg))


def apply_overrides(cfg: RunConfig, seed: int | None = None, out: str | None = None,
                    **extra) -> RunConfig:
    updates = dict(extra)
    if seed is not None:
        updates["seed"] = seed
    if out is not None:
        updates["out"] = out
    return dataclasses.replace(cfg, **updates).validate() if updates else cfg
