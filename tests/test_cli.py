import json
import math
import tracemalloc

import numpy as np
import pytest

import dickesim.verify
from dickesim.cli import main


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
        # 25 tuples x sum over N <= 14, m <= N of 2 C(N, m) 2^(m-1) terms
        code = run(["--verify", "--n-atoms", "14"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "179360900 path-sum terms exceed the budget" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("tuples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_tuple(tuples, capsys):
    assert run(["--verify", "--n-atoms", "4", "--tuples", tuples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--tuples >= 1, got {tuples}" in err


def test_verify_passes(capsys):
    code = run(["--verify", "--n-atoms", "4", "--tuples", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # Plant the fault in the path-sum route only: it negates the first angle.
    original = dickesim.verify.g_m_pathsum

    def flipped(geometry, angles, **kwargs):
        angles = tuple(angles)
        return original(geometry, (-angles[0],) + angles[1:], **kwargs)

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
    ],
    ids=["theta1-nan", "kd-inf", "kd-nan", "theta2-min-inf", "theta2-max-nan",
         "theta2-max-inf", "exact-theta1-inf", "verify-kd-inf"],
)
def test_non_finite_input_exits_2_naming_the_value(args, bad, capsys):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert bad in err


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
