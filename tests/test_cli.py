import contextlib
import csv
import io
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dickesim.cli
import dickesim.correlations
import dickesim.verify
from dickesim import __version__
from dickesim.cli import WRITE_ROWS, main
from dickesim.core import EmitterGeometry
from dickesim.correlations import METHODS, CorrelationCurve, scan_curve, summarize


def run(args):
    return main(args)


def test_two_atom_csv_scan(tmp_path):
    out = tmp_path / "fringe.csv"
    code = run(
        [
            "--n-atoms", "2", "--order", "2", "--method", "closed",
            "--theta2-min", str(-math.pi / 2), "--theta2-max", str(math.pi / 2),
            "--theta2-steps", "181", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "theta2_rad,phase_x,value,method"
    values = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert max(values) == pytest.approx(4.0, abs=1e-9)
    assert min(values) == pytest.approx(0.0, abs=1e-9)
    assert all(ln.endswith(",closed") for ln in lines[1:])


def test_json_scan_has_metadata_and_summary(tmp_path):
    out = tmp_path / "scan.json"
    code = run(
        ["--n-atoms", "4", "--order", "3", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["version"]
    assert payload["config"]["n_emitters"] == 4
    assert payload["config"]["order_m"] == 3
    assert set(payload["summary"]) == {
        "visibility", "peak_value", "first_zero_phase", "angular_mean",
    }
    assert len(payload["curve"]["value"]) == payload["config"]["theta2_steps"]


def test_output_deterministic(tmp_path):
    args = [
        "--n-atoms", "3", "--order", "2", "--method", "exact",
        "--format", "json", "--seed", "42",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exact_and_closed_agree(tmp_path):
    outs = {}
    for method in ("exact", "closed"):
        out = tmp_path / f"{method}.json"
        assert run(
            [
                "--n-atoms", "6", "--order", "6", "--method", method,
                "--theta2-steps", "61", "--format", "json", "--out", str(out),
            ]
        ) == 0
        outs[method] = np.array(json.loads(out.read_text())["curve"]["value"])
    scale = np.maximum(np.abs(outs["exact"]), np.abs(outs["closed"]))
    dev = np.abs(outs["exact"] - outs["closed"]) / np.maximum(scale, 1e-12)
    assert dev.max() <= 1e-9


def test_config_errors_exit_nonzero(capsys):
    assert run(["--theta2-steps", "1"]) == 2
    assert run(["--n-atoms", "3", "--order", "4"]) == 2
    assert run(["--n-atoms", "2", "--kd", "-1.0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_unwritable_output_path(tmp_path):
    target = tmp_path / "missing_dir" / "out.csv"
    assert run(["--out", str(target)]) == 2


def test_path_budget_error(capsys):
    # C(20, 14) * 2^13 = 3.2e8 path-sum terms for one point, over the fixed 1e8 budget.
    assert run(["--n-atoms", "20", "--order", "14", "--method", "pathsum"]) == 2
    assert "exceed the budget of 1e+08" in capsys.readouterr().err


def test_budget_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--method", "pathsum", "--path-budget", "1e9"])
    assert exc.value.code == 2


def test_verify_checks_the_budget_before_any_suite(capsys):
    tracemalloc.start()
    try:
        # 25 tuples x sum over N <= 14, m <= N of 2 pathsum_terms(N, m) terms
        code = run(["--verify", "--n-atoms", "14"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "149157000 path-sum terms exceed the budget" in capsys.readouterr().err
    assert peak < 1 << 20


def test_verify_stops_counting_at_the_first_n_over_the_budget(monkeypatch, capsys):
    # The running total passes the budget at N = 14, whatever --n-atoms is above it.
    terms, calls = dickesim.verify.pathsum_terms, []

    def counted(n, m):
        calls.append((n, m))
        return terms(n, m)

    monkeypatch.setattr(dickesim.verify, "pathsum_terms", counted)
    assert run(["--verify", "--n-atoms", "100000"]) == 2
    assert "149157000 path-sum terms exceed the budget" in capsys.readouterr().err
    assert calls == [(n, m) for n in range(2, 15) for m in range(1, n + 1)]


@pytest.mark.parametrize("tuples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_tuple(tuples, capsys):
    assert run(["--verify", "--n-atoms", "4", "--tuples", tuples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"n_tuples must be >= 1, got {tuples}" in err


def test_verify_rejects_a_negative_seed(capsys):
    assert run(["--verify", "--n-atoms", "4", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "seed must be >= 0, got -1" in err


def test_verify_passes(capsys):
    code = run(["--verify", "--n-atoms", "4", "--tuples", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_verify_reports_the_five_suites_in_order(capsys):
    assert run(["--verify", "--n-atoms", "4", "--tuples", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "PASS cross-method (exact vs pathsum)",
        "PASS coincident four-way oracle",
        "PASS conditioning factorization",
        "PASS Dicke preparation",
        "PASS generating polynomial vs exact",
    ]


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # Plant the fault in the path-sum route only: it negates the first angle of each tuple.
    original = dickesim.verify.g_m_pathsum

    def flipped(geometry, stack, **kwargs):
        stack = np.array(stack, dtype=float)
        stack[:, 0] = -stack[:, 0]
        return original(geometry, stack, **kwargs)

    monkeypatch.setattr(dickesim.verify, "g_m_pathsum", flipped)
    code = run(["--verify", "--n-atoms", "4", "--tuples", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "worst case" in out


def test_inject_fault_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--verify", "--inject-fault"])
    assert exc.value.code == 2


def test_verify_rejects_single_atom():
    assert run(["--verify", "--n-atoms", "1"]) == 2


@pytest.mark.parametrize(
    "args, bad",
    [
        (["--theta1", "nan"], "nan"),
        (["--kd", "inf"], "inf"),
        (["--kd", "nan"], "nan"),
        (["--theta2-min=-inf"], "inf"),
        (["--theta2-max", "nan"], "nan"),
        (["--theta2-max", "inf"], "inf"),
        (["--theta1", "inf", "--method", "exact"], "inf"),
        (["--verify", "--kd", "inf"], "inf"),
        # argparse alone takes -inf and -nan for options and exits through SystemExit.
        (["--theta1", "-inf"], "theta1 must be finite, got -inf"),
        (["--theta1", "-nan"], "theta1 must be finite, got nan"),
    ],
    ids=["theta1-nan", "kd-inf", "kd-nan", "theta2-min-inf", "theta2-max-nan",
         "theta2-max-inf", "exact-theta1-inf", "verify-kd-inf", "theta1-minus-inf",
         "theta1-minus-nan"],
)
def test_non_finite_input_exits_2_naming_the_value(args, bad, capsys):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert bad in err


@pytest.mark.parametrize("value", ["-1e-05", "-1.5e-07", "-1E+00"])
def test_negative_theta1_in_exponent_notation_parses(value, tmp_path):
    # argparse alone takes "-1e-05" for an option and exits through SystemExit.
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    args = ["--theta2-steps", "3", "--out"]
    assert run(["--theta1", value] + args + [str(spaced)]) == 0
    assert run([f"--theta1={value}"] + args + [str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert f'"theta1_rad": {float(value)!r}' in spaced.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "option, code", [("--kd", 2), ("--theta2-min", 0), ("--theta2-max", 0)]
)
def test_every_float_option_takes_an_exponent_value(option, code, capsys):
    # kd must be positive: the library, not argparse, rejects -1e-3.
    assert run([option, "-1e-3", "--theta2-steps", "3"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.count("\n") == 6 and "-0.001" in out
    else:
        assert err == "error: kd must be positive and finite, got -0.001\n"


def test_a_value_that_is_no_float_is_left_to_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--theta1", "--kd", "3"])
    assert exc.value.code == 2
    assert "--theta1: expected one argument" in capsys.readouterr().err


def test_an_option_prefix_is_unknown_in_either_spelling(capsys):
    # With prefixes allowed, the spaced form failed on its value while the joined one scanned.
    for argv in (["--theta2-mi", "-1e-3"], ["--theta2-mi=-1e-3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--theta2-steps", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --theta2-mi" in err


def test_overflowing_theta2_span_exits_2_with_one_line(capsys):
    # Both ends are finite, their difference is not: np.linspace would warn
    # (an error under pytest) and then blame the grid.
    assert run(["--theta2-min=-1e308", "--theta2-max=1e308", "--theta2-steps", "3"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: --theta2-max minus --theta2-min overflows a float, got -1e+308 and 1e+308\n"
    )


@pytest.mark.parametrize("extra, code", [([], 0), (["--order", "9"], 2)], ids=["scan", "refused"])
def test_a_theta2_span_near_the_float_maximum_warns_nothing(extra, code, capsys):
    # The span is finite, but np.linspace's step product overflows at its last
    # point, which it then sets to the end point: the grid is finite.
    top = 1.7976931348623157e308
    args = ["--theta2-min", "-3.75", "--theta2-max", repr(top), "--theta2-steps", "7"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + extra) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err == "error: order must lie in 1..2, got 9\n"
        return
    assert err == ""
    grid = [float(line.split(",")[0]) for line in out.splitlines()[3:]]
    assert len(grid) == 7 and grid[0] == -3.75 and grid[-1] == top
    assert all(map(math.isfinite, grid))


def test_run_config_is_filled_from_the_parsed_options(capsys):
    args = ["--n-atoms", "3", "--order", "2", "--kd", "3.5", "--theta1", "0.25",
            "--theta2-min", "-1", "--theta2-max", "1", "--theta2-steps", "4",
            "--method", "exact", "--format", "json", "--seed", "9"]
    assert run(args) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "n_emitters": 3, "order_m": 2, "kd": 3.5, "theta1_rad": 0.25,
        "theta2_min": -1.0, "theta2_max": 1.0, "theta2_steps": 4,
        "method": "exact", "output_format": "json", "seed": 9,
    }


def test_dense_cap_checked_before_allocation(capsys):
    tracemalloc.start()
    try:
        code = run(["--n-atoms", "24", "--method", "exact"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "1..20 emitters, got 24" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n, m", [(12, 2), (4, 2), (5, 3)], ids=["symmetric", "subsets-4", "subsets-5"]
)
def test_pathsum_scan_memory_is_bounded_by_its_blocks(n, m):
    # One stack of 1e5 points: each block of points holds at most PATH_CHUNK
    # complex entries (16 MiB), beside the scan's own arrays of 1e5 floats.
    # (12, 2) runs the symmetric form, (4, 2) and (5, 3) the subset walk.
    # The scan is bounded directly: the CSV writer's streaming is pinned by
    # test_csv_scan_is_written_row_by_row.
    tracemalloc.start()
    try:
        grid = np.linspace(-math.pi / 2, math.pi / 2, 10**5)
        scan_curve(EmitterGeometry(n, 2 * math.pi), m, 0.0, grid, "pathsum")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_a_pathsum_scan_holds_one_stack_of_points_at_a_time(monkeypatch):
    # At PATH_CHUNK = 2^14 a (4, 2) scan of 1e5 points passes stacks of 8,192
    # points, 131 kB each.  The scan's phases and values take 1.6 MB; one
    # (1e5, 2) stack of the whole grid would add 1.6 MB, and its theta1 column 0.8 MB.
    monkeypatch.setattr(dickesim.correlations, "PATH_CHUNK", 2**14)
    grid = np.linspace(-math.pi / 2, math.pi / 2, 10**5)
    tracemalloc.start()
    try:
        scan_curve(EmitterGeometry(4, 2 * math.pi), 2, 0.0, grid, "pathsum")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_refused_pathsum_scan_builds_no_stack(capsys):
    # (20, 20) takes 2^19 subset terms a point, so 1e6 points are refused before
    # any stack is built: the peak is the 8 MB grid and a few arrays like it,
    # not the 160 MB of twenty angles a point.
    tracemalloc.start()
    try:
        code = run(["--method", "pathsum", "--n-atoms", "20", "--order", "20",
                    "--theta2-steps", "1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 524288000000 path-sum terms exceed the budget of 1e+08\n"
    )
    assert peak < 4 * 8_000_000


def test_theta2_steps_bounded_before_the_grid_is_built(capsys):
    tracemalloc.start()
    try:
        code = run(["--theta2-steps", "1000000000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "got 1000000000000" in err
    assert peak < 1 << 20


def test_oversized_exact_scan_exits_2(capsys):
    assert run(["--n-atoms", "40", "--method", "exact"]) == 2
    assert "got 40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, m, message",
    [
        (200, 100, "too large"),  # the integer count itself does not fit a float
        (152, 87, "non-finite"),  # the count fits, the value at the fringe peak is inf
    ],
    ids=["count-overflow", "value-overflow"],
)
def test_closed_form_overflow_exits_2(n, m, message, capsys):
    assert run(["--n-atoms", str(n), "--order", str(m), "--method", "closed"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    # One line: the overflow itself raises no RuntimeWarning.
    assert err.count("\n") == 1


def test_json_is_strict_when_first_zero_is_undefined(tmp_path):
    out = tmp_path / "scan.json"
    assert run(["--n-atoms", "4", "--order", "1", "--format", "json", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
    assert payload["summary"]["first_zero_phase"] is None


@pytest.mark.parametrize(
    "args",
    [["--method", m, "--n-atoms", "3", "--order", "2"] for m in METHODS]
    + [["--verify", "--n-atoms", "2", "--tuples", "1"]],
    ids=[*METHODS, "verify"],
)
def test_huge_finite_kd_exits_2_with_one_line(args, capsys):
    # kd is finite, but 2 * N * kd is not: rejected before any phase is formed,
    # so no RuntimeWarning (an error under pytest) precedes the message.
    assert run(args + ["--kd", "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kd = 1e+308 is too large")
    assert err.count("\n") == 1


# kd just below the 2 * N * kd bound: phase steps times values overflow a float.
NEAR_BOUND_KD = ["--n-atoms", "3", "--order", "2", "--kd", "2.9e307", "--theta2-steps", "7"]


def test_json_summary_near_the_kd_bound_is_finite(capsys):
    # A RuntimeWarning from the angular mean is an error under pytest.
    assert run(NEAR_BOUND_KD + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert math.isfinite(json.loads(out)["summary"]["angular_mean"])


def test_json_summary_of_values_near_the_float_maximum_is_finite(capsys):
    # Every value is finite (peak 1.4e308), but the sum of two neighbours is not.
    args = ["--method", "closed", "--n-atoms", "115", "--order", "92",
            "--theta2-steps", "181", "--format", "json"]
    assert run(args) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["summary"]["angular_mean"] == pytest.approx(2.1556156483271146e306)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_out_file_are_identical(fmt, tmp_path, capsys):
    args = ["--n-atoms", "5", "--order", "3", "--theta2-steps", "41", "--format", fmt]
    assert run(args) == 0
    out = tmp_path / f"scan.{fmt}"
    assert run(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_csv_scan_is_written_row_by_row(tmp_path):
    # The three 20,000-point float arrays take 0.5 MB; the whole CSV text 1.3 MB.
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        code = run(["--n-atoms", "12", "--order", "6", "--theta2-steps", "20000",
                    "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") == 20003
    assert peak < 2.5 * (1 << 20)


def test_json_scan_is_streamed(tmp_path):
    # The three lists of 20,000 floats take 2.3 MiB; the text rendered whole first, 8.5 MiB.
    out = tmp_path / "scan.json"
    tracemalloc.start()
    try:
        code = run(["--n-atoms", "12", "--order", "6", "--theta2-steps", "20000",
                    "--format", "json", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))["curve"]["value"]) == 20000
    assert peak < 4 * (1 << 20)


def test_json_scan_keeps_the_indented_sorted_layout(tmp_path):
    out = tmp_path / "scan.json"
    assert run(["--n-atoms", "5", "--order", "3", "--theta2-steps", "41",
                "--format", "json", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_csv_rows_match_numpy_scalar_formatting(tmp_path):
    # At the fringe zeros of N=2, m=2 the functional route gives values near
    # 1e-32, which print in exponent form; the zero phase prints as 0.
    out = tmp_path / "scan.csv"
    assert run(["--method", "functional", "--n-atoms", "2", "--order", "2",
                "--out", str(out)]) == 0
    grid = np.linspace(-math.pi / 2, math.pi / 2, 181)
    curve = scan_curve(EmitterGeometry(2, 2 * math.pi), 2, 0.0, grid, "functional")
    assert 0.0 < curve.values.min() < 1e-29 and (curve.phase_x == 0.0).sum() == 1
    rows = [f"{t:.17g},{x:.17g},{v:.17g},functional"
            for t, x, v in zip(curve.theta2_grid, curve.phase_x, curve.values)]
    assert out.read_text(encoding="utf-8").splitlines()[3:] == rows


# Floats the writers must render as the reference does: both zeros, the
# smallest subnormal, the largest float and values in exponent form.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e-32, 2.5e-7, 1e16, 6.02214076e23]
# Option-like text that holds the characters of the JSON writer's placeholders.
ODD_CONFIG = {"label": '"[]" and \\u0000value\\u0000', "list": "[]", "kd": 1e300}


def hand_curve(size: int) -> CorrelationCurve:
    rng = np.random.default_rng(size)
    special = np.resize(SPECIAL_FLOATS, size)
    magnitudes = 10.0 ** rng.uniform(-300, 300, size)
    return CorrelationCurve(
        theta2_grid=special * rng.choice([-1.0, 1.0], size),
        phase_x=rng.permutation(special),
        values=np.where(rng.random(size) < 0.5, magnitudes, special),
        method="closed",
    )


def reference_csv(config: dict, curve: CorrelationCurve) -> str:
    """The writer's text one f-string a row."""
    rows = [f"{t:.17g},{x:.17g},{v:.17g},{curve.method}\n"
            for t, x, v in zip(curve.theta2_grid.tolist(), curve.phase_x.tolist(),
                               curve.values.tolist())]
    return (f"# dickesim {__version__}\n# config {json.dumps(config, sort_keys=True)}\n"
            "theta2_rad,phase_x,value,method\n" + "".join(rows))


def reference_json(config: dict, curve: CorrelationCurve) -> str:
    """The writer's text through json, the curve as lists."""
    summary = {k: None if math.isnan(v) else v for k, v in asdict(summarize(curve)).items()}
    payload = {
        "tool": "dickesim",
        "version": __version__,
        "config": config,
        "curve": {
            "theta2_rad": curve.theta2_grid.tolist(),
            "phase_x": curve.phase_x.tolist(),
            "value": curve.values.tolist(),
            "method": curve.method,
        },
        "summary": summary,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "size", [2, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, 3 * WRITE_ROWS + 1],
)
@pytest.mark.parametrize(
    "write, reference",
    [(dickesim.cli._write_csv, reference_csv), (dickesim.cli._write_json, reference_json)],
    ids=["csv", "json"],
)
def test_writers_render_the_reference_text_a_chunk_at_a_time(write, reference, size):
    curve = hand_curve(size)
    fh = io.StringIO()
    write(fh, ODD_CONFIG, curve)
    got, want = fh.getvalue(), reference(ODD_CONFIG, curve)
    # The first differing line, not a diff of two texts of up to 1 MB.
    lines = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    assert next((pair for pair in lines if pair[0] != pair[1]), None) is None
    assert len(got) == len(want)


def test_json_writer_holds_no_list_of_the_curve(tmp_path):
    # Three lists of 1e5 Python floats take 9.6 MB; summarize's sorted copies
    # and masks, freed before the curve is written, take 5.7 MB.
    grid = np.linspace(-math.pi / 2, math.pi / 2, 10**5)
    curve = scan_curve(EmitterGeometry(12, 2 * math.pi), 6, 0.0, grid, "closed")
    with open(tmp_path / "scan.json", "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            dickesim.cli._write_json(fh, {}, curve)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8_000_000


def test_csv_scan_computes_no_summary(capsys, monkeypatch):
    def no_summary(curve):
        raise AssertionError("a CSV scan computed a summary")

    monkeypatch.setattr(dickesim.cli, "summarize", no_summary)
    assert run(NEAR_BOUND_KD + ["--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("# dickesim ")


def test_functional_term_bound_checked_before_allocation(capsys):
    # Box (299, 1): 1 + 299 * 2^2 + 1 = 1198 coefficients, updated by each of 2000 emitters.
    tracemalloc.start()
    try:
        code = run(["--method", "functional", "--n-atoms", "2000", "--order", "300"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "N=2000 on the box (299, 1)" in err and f"{2000 * 1198} coefficient updates" in err
    assert peak < 1 << 20


def test_functional_scan_runs_where_the_full_polynomial_did_not():
    # The full polynomial at N=400, K=2 held over 2^20 terms; the box (1, 1) holds 6.
    assert run(["--method", "functional", "--n-atoms", "400", "--theta2-steps", "5"]) == 0


# Floats at the edges of what the float options parse: both zeros, subnormals,
# the float maximum, infinities and NaN, beside ordinary values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, 0.3141, -1.2,
               2 * math.pi, 1e308, -1e308, sys.float_info.max, -sys.float_info.max,
               math.inf, -math.inf, math.nan]
FUZZ_EMITTERS = [-1, 0, 1, 2, 3, 5, 8]


@st.composite
def cli_argv(draw):
    """An argv that argparse accepts, each option given or left to its default.

    Drawn so that every run is cheap: N <= 8, and N <= 3 for the one run in ten
    that is --verify.
    """
    verify = draw(st.integers(0, 9)) == 0
    n = draw(st.sampled_from([n for n in FUZZ_EMITTERS if n <= 3 or not verify]))
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
    options = {
        "--n-atoms": n,
        "--order": draw(st.sampled_from([-1, 0, 1, 2, n - 1, n, n + 1])),
        "--kd": draw(floats),
        "--theta1": draw(floats),
        "--theta2-min": draw(floats),
        "--theta2-max": draw(floats),
        "--theta2-steps": draw(st.integers(0, 50)),
        "--method": draw(st.sampled_from(METHODS)),
        "--format": draw(st.sampled_from(["csv", "json"])),
        "--seed": draw(st.integers(-1, 3)),
        "--tuples": draw(st.integers(0, 3)),
    }
    argv = ["--verify"] if verify else []
    for option in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        value = options[option]
        argv += [option, repr(value) if isinstance(value, float) else str(value)]
    return argv


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@given(argv=cli_argv())
@settings(max_examples=100, deadline=None)
def test_every_argv_of_the_grammar_exits_0_1_or_2_cleanly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")
        return
    assert err == ""
    if "--verify" in argv:
        assert out.startswith(("PASS ", "FAIL "))
        return
    assert code == 0
    if dict(zip(argv, argv[1:])).get("--format") == "json":
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert len(payload["curve"]["value"]) == payload["config"]["theta2_steps"]
        return
    lines = out.splitlines()
    assert lines[0].startswith("# dickesim ")
    config = json.loads(lines[1].removeprefix("# config "), parse_constant=_refuse_constant)
    rows = list(csv.reader(lines[2:]))
    assert rows[0] == ["theta2_rad", "phase_x", "value", "method"]
    assert len(rows) == 1 + config["theta2_steps"]
    for row in rows[1:]:
        assert len(row) == 4 and row[3] == config["method"]
        assert all(math.isfinite(float(field)) for field in row[:3])
