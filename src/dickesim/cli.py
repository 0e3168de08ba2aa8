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
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .core import EmitterGeometry
from .correlations import METHODS, PathBudgetExceeded, scan_curve, summarize
from .verify import run_all


# Largest theta2 grid a scan builds: 1e7 points is 80 MB per float array.
MAX_THETA2_STEPS = 10**7


@dataclass(frozen=True)
class RunConfig:
    n_emitters: int
    order_m: int
    kd: float
    theta1_rad: float
    theta2_min: float
    theta2_max: float
    theta2_steps: int
    method: str
    output_format: str
    seed: int

    def validate(self):
        # N, order and kd are checked by the library, method and format by argparse.
        if not 2 <= self.theta2_steps <= MAX_THETA2_STEPS:
            raise ValueError(
                f"--theta2-steps must lie in 2..{MAX_THETA2_STEPS}, got {self.theta2_steps}"
            )
        if not -math.inf < self.theta2_min < self.theta2_max < math.inf:
            raise ValueError(
                "need finite --theta2-min < --theta2-max, "
                f"got {self.theta2_min} and {self.theta2_max}"
            )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dickesim",
        description="Intensity-correlation scans for chains of two-level emitters",
    )
    p.add_argument("--n-atoms", type=int, default=2)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--kd", type=float, default=2 * math.pi)
    p.add_argument("--theta1", type=float, default=0.0, help="fixed detector angle (rad)")
    p.add_argument("--theta2-min", type=float, default=-math.pi / 2)
    p.add_argument("--theta2-max", type=float, default=math.pi / 2)
    p.add_argument("--theta2-steps", type=int, default=181)
    p.add_argument("--method", choices=METHODS, default="closed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--verify", action="store_true", help="run cross-validation suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tuples", type=int, default=25,
                   help="random detector tuples per (N, m) in --verify mode")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def _render_csv(config: RunConfig, curve, summary) -> str:
    lines = [
        f"# dickesim {__version__}",
        "# config " + json.dumps(asdict(config), sort_keys=True),
        "theta2_rad,phase_x,value,method",
    ]
    for t, x, v in zip(curve.theta2_grid, curve.phase_x, curve.values):
        lines.append(f"{t:.17g},{x:.17g},{v:.17g},{curve.method}")
    return "\n".join(lines) + "\n"


def _render_json(config: RunConfig, curve, summary) -> str:
    payload = {
        "tool": "dickesim",
        "version": __version__,
        "config": asdict(config),
        "curve": {
            "theta2_rad": curve.theta2_grid.tolist(),
            "phase_x": curve.phase_x.tolist(),
            "value": curve.values.tolist(),
            "method": curve.method,
        },
        # An undefined value (first_zero_phase with no interior minimum) is null.
        "summary": {k: None if math.isnan(v) else v for k, v in asdict(summary).items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def run_scan(config: RunConfig, out_path: str | None) -> int:
    config.validate()
    geometry = EmitterGeometry(config.n_emitters, config.kd)
    grid = np.linspace(config.theta2_min, config.theta2_max, config.theta2_steps)
    curve = scan_curve(geometry, config.order_m, config.theta1_rad, grid, config.method)
    summary = summarize(curve)
    if config.output_format == "csv":
        text = _render_csv(config, curve, summary)
    else:
        text = _render_json(config, curve, summary)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def run_verify(args) -> int:
    if args.n_atoms < 2:
        raise ValueError("--verify needs --n-atoms >= 2")
    if args.tuples < 1:
        raise ValueError(f"--verify needs --tuples >= 1, got {args.tuples}")
    results = run_all(n_max=args.n_atoms, n_tuples=args.tuples, kd=args.kd, seed=args.seed)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: max deviation {res.max_deviation:.3e} "
            f"(tol {res.tolerance:.1e})"
        )
        if not res.passed:
            failed = True
            print(f"     worst case: {res.worst_case}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verify:
            return run_verify(args)
        config = RunConfig(
            n_emitters=args.n_atoms,
            order_m=args.order,
            kd=args.kd,
            theta1_rad=args.theta1,
            theta2_min=args.theta2_min,
            theta2_max=args.theta2_max,
            theta2_steps=args.theta2_steps,
            method=args.method,
            output_format=args.format,
            seed=args.seed,
        )
        return run_scan(config, args.out)
    # OverflowError: a closed-form count too large for a float (e.g. N=200, m=100).
    except (ValueError, OverflowError, PathBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
