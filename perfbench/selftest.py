#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The tracer's bookkeeping on a fake module with a fake clock: spans,
   self times, counters, a missing name, and restored attributes.
2. One short traced run of the ``baseline`` workload in this process, with
   one wrapped name renamed to something vjlab does not have. The run must
   pass its own checks (traced and untraced rounds byte-identical, every
   wrapper restored), report the renamed name's metric as absent and every
   other per-layer metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

from tracer import HOOKS, Patches, Tracer, self_times, step_profile, totals

HERE = Path(__file__).resolve().parent


def check_tracer() -> None:
    fake = types.ModuleType("fake")
    fake.inner = lambda x: x + 1
    fake.outer = lambda x: fake.inner(x) * 2
    originals = (fake.inner, fake.outer)

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    patches = Patches()
    assert tracer.wrap(patches, fake, "outer", "outer_ms")
    assert tracer.wrap(patches, fake, "inner", "inner_ms", count=lambda a, r: {"seen": a[0]})
    assert not tracer.wrap(patches, fake, "renamed_away", "gone_ms")
    assert patches.missing == ["fake.renamed_away"], patches.missing

    tracer.step = 7
    assert fake.outer(3) == 8
    tracer.step = None
    assert fake.outer(1) == 4
    # outer [0, 5] holds inner [1, 2] and the counter's span [3, 4].
    names = [s[0] for s in tracer.spans]
    assert names == ["outer_ms", "inner_ms", HOOKS] * 2, names
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert [s[4] for s in tracer.spans] == [7, 7, 7, None, None, None]
    assert self_times(tracer.spans)[:3] == [3.0, 1.0, 1.0]
    assert tracer.counts["seen"] == 3 + 1
    own, whole, calls = totals(tracer.spans)
    assert own["outer_ms"] == 6.0 and whole["outer_ms"] == 10.0 and calls["outer_ms"] == 2
    assert step_profile(tracer.spans) == {"outer_ms": 3.0, "inner_ms": 1.0, HOOKS: 1.0}
    bursty = [["s", 0.0, float(d), -1, i] for i, d in enumerate([1, 2, 3, 100])]
    assert step_profile(bursty) == {"s": 2.5}

    tracer.enabled = False
    assert fake.outer(2) == 6 and len(tracer.spans) == 6
    tracer.record("timed_outside", 10.0, 12.0)
    assert tracer.spans[-1] == ["timed_outside", 10.0, 12.0, -1, None]

    assert patches.restore() == []
    assert (fake.inner, fake.outer) == originals


def check_run() -> None:
    import run

    renamed = ("training", "predict_masked_renamed", "model.predictor_ms")
    run.WRAPS[:] = [renamed if w[2] == renamed[2] else w for w in run.WRAPS]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "baseline", "--seed", "0", "--seconds", "1",
                         "--trace", "1"])
    out = buf.getvalue()
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out
    assert "absent: vjlab.training.predict_masked_renamed" in out, out

    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
                ["per_layer"]}
    got = set(result["metrics"])
    assert got == declared - {"model.predictor_ms"}, (declared ^ got)

    from vjlab import probing, synth, training
    modules = {"training": training, "synth": synth, "probing": probing}
    for module, attr, _ in run.WRAPS:
        fn = getattr(modules[module], attr, None)
        code_file = getattr(getattr(fn, "__code__", None), "co_filename", "")
        assert not code_file.startswith(str(HERE)), f"{module}.{attr} still wrapped"


def main() -> int:
    check_tracer()
    print("tracer bookkeeping: ok")
    check_run()
    print("traced run: ok (byte-identical rounds, wrappers restored, renamed name absent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
