"""scripts/trajectories.py: diff's exit status gates on byte-identical runs,
and every variant replays the trajectory pinned in tests/data/trajectories.json."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from vjlab.config import variant_slug
from vjlab.config import VARIANTS
from vjlab.training import CHECKPOINT_NAME, METRICS_NAME

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trajectories.py"


def fake_run(root: Path) -> Path:
    for i, name in enumerate(VARIANTS):
        run_dir = root / variant_slug(name)
        run_dir.mkdir(parents=True)
        (run_dir / METRICS_NAME).write_text(
            "".join(json.dumps({"step": s, "total": 1.0 + i + s}) + "\n" for s in (1, 2)))
        (run_dir / CHECKPOINT_NAME).write_bytes(bytes(range(16)))
    return root


def script_globals(monkeypatch) -> dict:
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends its src tree
    return runpy.run_path(str(SCRIPT))


def test_every_variant_replays_its_pinned_trajectory(tmp_path, monkeypatch):
    """Per-step totals within 1e-9 relative on any machine; both files byte
    for byte where numpy, its BLAS and the CPU are those of the pin."""
    script = script_globals(monkeypatch)
    pinned = json.loads(script["PIN"].read_text())
    assert pinned["fixed"] == script["FIXED"]
    assert list(pinned["variants"]) == list(VARIANTS)
    same_machine = pinned["identity"] == script["identity"]()
    for name, want in pinned["variants"].items():
        got = script["fingerprint"](script["train"](name, tmp_path))
        assert len(got["totals"]) == len(want["totals"]), name
        for step, (a, b) in enumerate(zip(got["totals"], want["totals"]), start=1):
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (name, step, a, b)
        if same_machine:
            assert (got["metrics"], got["ckpt"]) == (want["metrics"], want["ckpt"]), name


def diff_exit(monkeypatch, old: Path, new: Path) -> int:
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "diff", str(old), str(new)])
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends its src tree
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exc.value.code


def test_diff_exit_status(tmp_path, monkeypatch, capsys):
    old, new = fake_run(tmp_path / "old"), fake_run(tmp_path / "new")
    assert diff_exit(monkeypatch, old, new) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"0 of {len(VARIANTS)} variants differ in a file"
    ckpt = new / variant_slug("Baseline") / CHECKPOINT_NAME
    data = bytearray(ckpt.read_bytes())
    data[3] ^= 1
    ckpt.write_bytes(bytes(data))
    assert diff_exit(monkeypatch, old, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"1 of {len(VARIANTS)} variants differ in a file"
    assert sum("ckpt DIFF" in line for line in out) == 1

    # trees that cannot be compared: a truncated log (whole lines or mid-line),
    # a log line without a total, and a missing checkpoint
    for damage in ("cut_lines", "cut_mid_line", "unparsable", "no_ckpt"):
        old, new = fake_run(tmp_path / damage / "old"), fake_run(tmp_path / damage / "new")
        run_dir = new / variant_slug("HW-JEPA")
        log = run_dir / METRICS_NAME
        text = log.read_text()
        if damage == "cut_lines":
            log.write_text(text.splitlines(keepends=True)[0])
        elif damage == "cut_mid_line":
            log.write_text(text[:-7])
        elif damage == "unparsable":
            log.write_text(text.replace("total", "tot", 1))
        else:
            (run_dir / CHECKPOINT_NAME).unlink()
        assert diff_exit(monkeypatch, old, new) == 2, damage
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [f"0 of {len(VARIANTS)} variants differ in a file",
                            f"1 of {len(VARIANTS)} variants cannot be compared"], damage
        assert sum("cannot compare" in line for line in out) == 1, damage
