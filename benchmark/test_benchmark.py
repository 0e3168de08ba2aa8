"""Self-tests of the benchmark, on small sizes.

    python3 -m pytest -q benchmark/test_benchmark.py
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dickesim.cli  # noqa: E402
import dickesim.core  # noqa: E402
import dickesim.correlations  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Scan  # noqa: E402

SMALL_EXACT = Scan("small_exact", "exact", n=4, m=2, steps=11, fmt="json", reference="closed")
SMALL_PATHSUM = Scan("small_pathsum", "pathsum", n=4, m=2, steps=11, fmt="json",
                     reference="closed")
SMALL_CLOSED = Scan("small_closed", "closed", n=5, m=3, steps=50, fmt="csv",
                    reference="exact", checked=5)


def one_op(workload, tmp_path, seed=0, tracer=None):
    inputs = workload.draw(random.Random(seed))
    seconds, error, size = run.run_op(dickesim.cli.main, workload, inputs, tmp_path, tracer)
    return inputs, error, size


@pytest.mark.parametrize("workload", [SMALL_EXACT, SMALL_PATHSUM, SMALL_CLOSED])
def test_planted_wrong_value_fails_the_check(workload, tmp_path):
    inputs, error, size = one_op(workload, tmp_path)
    assert error is None and size > 0
    out = tmp_path / "out"
    text = out.read_text()
    if workload.fmt == "json":
        payload = json.loads(text)
        payload["curve"]["value"][3] *= 1 + 1e-6
        out.write_text(json.dumps(payload))
    else:
        lines = text.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line[0].isdigit() or line[0] == "-")
        # Plant the fault in every row, so that whichever rows are sampled see it.
        for i in range(first, len(lines)):
            fields = lines[i].split(",")
            fields[2] = repr(float(fields[2]) * (1 + 1e-6) + 1e-6)
            lines[i] = ",".join(fields)
        out.write_text("".join(lines))
    assert "deviates" in workload.check(inputs, 0, str(out), str(tmp_path / "stdout"))


def test_planted_fault_in_the_program_counts_as_a_failed_operation(tmp_path, monkeypatch):
    original = dickesim.correlations.g_m_exact
    monkeypatch.setattr(
        dickesim.correlations, "g_m_exact", lambda *a, **k: original(*a, **k) * (1 + 1e-6)
    )
    result = run.run(dickesim.cli.main, SMALL_EXACT, seed=1, seconds=0, trace=False, tmp=tmp_path)
    assert len(result["errors"]) == len(result["plain"]) == run.MIN_OPS
    assert all("deviates" in error for error in result["errors"])
    # Every untraced round also timed a fresh import and the reference kernel.
    assert len(result["setups"]) == len(result["refs"]) == run.MIN_OPS
    assert all(ref > 0 for ref in result["refs"])


def test_tracer_rebinds_every_importer_and_restores(tmp_path):
    tracer = spans.Tracer()
    _, error, _ = one_op(SMALL_EXACT, tmp_path, tracer=tracer)
    assert error is None
    (metrics,) = tracer.op_metrics()
    # g_m_exact reaches apply_field through correlations' own import of it.
    assert metrics["core.apply_field.calls"] == SMALL_EXACT.steps * SMALL_EXACT.m
    assert metrics["core.apply_field.amps"] == SMALL_EXACT.steps * SMALL_EXACT.m * 2**4
    # One StateVector per apply_field call, plus the fully excited start state.
    assert metrics["core.StateVector.calls"] == metrics["core.apply_field.calls"] + 1
    assert metrics["correlations.scan_curve.self_s"] > 0
    assert dickesim.correlations.apply_field is dickesim.core.apply_field
    assert dickesim.cli.scan_curve is dickesim.correlations.scan_curve
    assert not hasattr(dickesim.core.apply_field, "__wrapped__")


@pytest.mark.parametrize("workload", [SMALL_EXACT, SMALL_CLOSED])
def test_self_times_add_up_to_the_span_that_holds_them(workload, tmp_path):
    tracer = spans.Tracer()
    one_op(workload, tmp_path, tracer=tracer)
    (metrics,) = tracer.op_metrics()
    # A scan has a single top-level span, cli.run_scan, and every span under
    # it reports its self time, so those self times add up to its duration.
    # StateVector opens no span: its time stays in apply_field's self time.
    (top,) = [i for i in range(len(tracer.start)) if tracer.parent[i] == 0]
    assert tracer.names[tracer.name_id[top]] == "cli.run_scan"
    self_times = [metrics[f"{span}.self_s"] for span, kinds in spans.LAYERS.items()
                  if "self_s" in kinds]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) == pytest.approx(tracer.end[top] - tracer.start[top], rel=1e-9)


def test_work_counts_repeat_across_seeds(tmp_path):
    counts = []
    for seed in (1, 2):
        result = run.run(dickesim.cli.main, SMALL_EXACT, seed=seed, seconds=0, trace=True,
                         tmp=tmp_path)
        medians, unsteady = spans.summarize_ops(result["tracer"].op_metrics())
        assert unsteady == []
        counts.append({k: v for k, v in medians.items()
                       if k.rsplit(".", 1)[1] in spans.EXACT_KINDS})
    assert counts[0] == counts[1]
    assert counts[0]["core.apply_field.calls"] > 0


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "ok_frac"
    ]


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="extract_gm rejects ~1e-11 imaginary rounding residues as not real")
def test_known_defect_verify_fails_at_other_seeds():
    # `dickesim --verify --n-atoms 8 --seed 5` runs this suite with seed 5 + 3.
    # When this passes, a --verify workload can take its --seed from the
    # benchmark seed (see README.md, Held back).
    from dickesim.verify import functional_invariant_suite

    functional_invariant_suite(n_max=8, seed=5 + 3)
