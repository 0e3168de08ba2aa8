"""Batch front-end: correlation scans and cross-validation runs.

Examples:
    dickesim --n-atoms 2 --order 2 --kd 6.2831853 --theta2-steps 181 \
             --method closed --format csv --out fringe.csv
    dickesim --verify --n-atoms 6 --seed 7
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .core import EmitterGeometry
from .correlations import METHODS, scan_curve, summarize
from .verify import REL_TOL, run_all


# Largest theta2 grid a scan builds: 1e7 points is 80 MB per float array.
MAX_THETA2_STEPS = 10**7
# Options whose value may be a negative float in any notation.  argparse takes
# a value such as -1e-05, -inf or -nan for an option: only -1 or -.5 look negative.
FLOAT_OPTIONS = ("--kd", "--theta1", "--theta2-min", "--theta2-max")
# Rows of a scan that each format renders with one % and writes with one call.
WRITE_ROWS = 4096


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dickesim",
        description="Intensity-correlation scans for chains of two-level emitters",
        # Options are spelled in full: FLOAT_OPTIONS joins only full names to their values.
        allow_abbrev=False,
    )
    # Each dest is the key the output's config block uses; each metavar keeps
    # the option's --help text.
    p.add_argument("--n-atoms", dest="n_emitters", metavar="N_ATOMS", type=int, default=2)
    p.add_argument("--order", dest="order_m", metavar="ORDER", type=int, default=2)
    p.add_argument("--kd", type=float, default=2 * math.pi)
    p.add_argument("--theta1", dest="theta1_rad", metavar="THETA1", type=float, default=0.0,
                   help="fixed detector angle (rad)")
    p.add_argument("--theta2-min", type=float, default=-math.pi / 2)
    p.add_argument("--theta2-max", type=float, default=math.pi / 2)
    p.add_argument("--theta2-steps", type=int, default=181)
    p.add_argument("--method", choices=METHODS, default="closed")
    p.add_argument("--format", dest="output_format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--verify", action="store_true", help="run cross-validation suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tuples", type=int, default=25,
                   help="random detector tuples per (N, m) in --verify mode")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def _write_csv(fh, config: dict, curve) -> None:
    fh.write(f"# dickesim {__version__}\n")
    fh.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    fh.write("theta2_rad,phase_x,value,method\n")
    # "%.17g" % x and f"{x:.17g}" give the same bytes for a Python float.
    row = "%.17g,%.17g,%.17g," + curve.method + "\n"
    columns = (curve.theta2_grid, curve.phase_x, curve.values)
    for start in range(0, curve.values.size, WRITE_ROWS):
        chunk = np.column_stack([column[start:start + WRITE_ROWS] for column in columns])
        fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_json_list(fh, column) -> None:
    """Write column as json.dump with indent=2 writes a list two levels deep."""
    fh.write("[")
    for start in range(0, column.size, WRITE_ROWS):
        chunk = column[start:start + WRITE_ROWS].tolist()
        # %r is float.__repr__, which json writes for a finite float; scan_curve
        # refuses a non-finite grid or value, and EmitterGeometry bounds phase_x.
        text = ",\n      %r" * len(chunk) % tuple(chunk)
        fh.write(text if start else text[1:])
    fh.write("\n    ]")


def _write_json(fh, config: dict, curve) -> None:
    summary = summarize(curve)
    columns = {"theta2_rad": curve.theta2_grid, "phase_x": curve.phase_x, "value": curve.values}
    payload = {
        "tool": "dickesim",
        "version": __version__,
        "config": config,
        # Each list is a placeholder holding a NUL, which no option value can.
        "curve": {key: f"\0{key}\0" for key in columns} | {"method": curve.method},
        # An undefined value (first_zero_phase with no interior minimum) is null.
        "summary": {k: None if math.isnan(v) else v for k, v in asdict(summary).items()},
    }
    # Rendered whole before anything is written, so that a refusal writes nothing.
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    # Text and list names alternate: text, key, text, key, text, key, text.
    pieces = re.split(r'"\\u0000(\w+)\\u0000"', text)
    fh.write(pieces[0])
    for key, tail in zip(pieces[1::2], pieces[2::2]):
        _write_json_list(fh, columns[key])
        fh.write(tail)
    fh.write("\n")


def run_scan(args) -> int:
    # N, order and kd are checked by the library, method and format by argparse.
    if not 2 <= args.theta2_steps <= MAX_THETA2_STEPS:
        raise ValueError(
            f"--theta2-steps must lie in 2..{MAX_THETA2_STEPS}, got {args.theta2_steps}"
        )
    if not -math.inf < args.theta2_min < args.theta2_max < math.inf:
        raise ValueError(
            "need finite --theta2-min < --theta2-max, "
            f"got {args.theta2_min} and {args.theta2_max}"
        )
    # Checked before np.linspace, which would overflow with a RuntimeWarning.
    if math.isinf(args.theta2_max - args.theta2_min):
        raise ValueError(
            "--theta2-max minus --theta2-min overflows a float, "
            f"got {args.theta2_min} and {args.theta2_max}"
        )
    # The output records every option a scan reads: all but the destination
    # and the two that only --verify reads.
    config = {k: v for k, v in vars(args).items() if k not in ("out", "verify", "tuples")}
    geometry = EmitterGeometry(args.n_emitters, args.kd)
    # Near the float maximum np.linspace's step product may overflow past the
    # last point, which it then sets to the end point; scan_curve refuses a
    # non-finite grid.
    with np.errstate(over="ignore"):
        grid = np.linspace(args.theta2_min, args.theta2_max, args.theta2_steps)
    curve = scan_curve(geometry, args.order_m, args.theta1_rad, grid, args.method)
    # Both formats stream into the open destination; only JSON carries a summary.
    write = _write_csv if args.output_format == "csv" else _write_json
    if args.out is None:
        write(sys.stdout, config, curve)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write(fh, config, curve)
    return 0


def run_verify(args) -> int:
    results = run_all(n_max=args.n_emitters, n_tuples=args.tuples, kd=args.kd, seed=args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: max deviation {res.max_deviation:.3e} "
            f"(tol {REL_TOL:.1e})"
        )
        if not res.passed:
            print(f"     worst case: {res.worst_case}")
    return 0 if all(res.passed for res in results) else 1


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list[str]) -> list[str]:
    """Write "--theta1 -1e-05" as "--theta1=-1e-05", which argparse cannot misread."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in FLOAT_OPTIONS and _parses_as_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_float_values(argv))
    try:
        if args.verify:
            return run_verify(args)
        return run_scan(args)
    # Every refusal raises a ValueError.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
