"""The benchmark's workloads: CLI argument vectors drawn from a seed, and the
correctness check each operation must pass.

Every check uses a route other than the one under test: the exact, path-sum
and functional scans are held to the closed form, and the closed scan to the
dense engine.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from dickesim.core import DetectorList, EmitterGeometry, fully_excited
from dickesim.correlations import g_m_closed_coincident, g_m_exact

KD = 2 * math.pi
THETA2_MIN = -math.pi / 2
THETA2_MAX = math.pi / 2
# The verify tolerance: 1e-9 relative, with a 1e-3 floor on the scale.  The
# comparison is restated here so that no check relies on the program's own.
REL_TOL = 1e-9
SCALE_FLOOR = 1e-3


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), SCALE_FLOOR)


@dataclass(frozen=True)
class Scan:
    """A theta2 scan with (m-1) detectors at a seeded theta1.

    ``checked`` is how many seeded points the check compares with the
    reference route; None checks every point.
    """

    name: str
    method: str
    n: int
    m: int
    steps: int
    fmt: str
    reference: str
    checked: int | None = None

    def draw(self, rng: random.Random) -> dict:
        return {
            "theta1": rng.uniform(THETA2_MIN, THETA2_MAX),
            "sample_seed": rng.randrange(2**32),
        }

    def argv(self, inputs: dict, out_path: str) -> list[str]:
        return [
            "--method", self.method,
            "--n-atoms", str(self.n),
            "--order", str(self.m),
            "--kd", repr(KD),
            "--theta1", repr(inputs["theta1"]),
            "--theta2-min", repr(THETA2_MIN),
            "--theta2-max", repr(THETA2_MAX),
            "--theta2-steps", str(self.steps),
            "--format", self.fmt,
            "--out", out_path,
        ]

    def reference_value(self, theta1: float, theta2: float) -> float:
        if self.reference == "closed":
            return g_m_closed_coincident(
                self.n, self.m, KD * (math.sin(theta1) - math.sin(theta2))
            )
        return g_m_exact(
            EmitterGeometry(self.n, KD),
            DetectorList.coincident(theta1, self.m, theta2),
            fully_excited(self.n),
        )

    def check(self, inputs: dict, status: int, out_path: str, stdout_path: str) -> str | None:
        """None if the output is correct, else what is wrong with it."""
        if status != 0:
            return f"exit status {status}"
        grid = np.linspace(THETA2_MIN, THETA2_MAX, self.steps)
        if self.checked is None:
            wanted = range(self.steps)
        else:
            wanted = random.Random(inputs["sample_seed"]).sample(range(self.steps), self.checked)
        reader = self._json_points if self.fmt == "json" else self._csv_points
        points = reader(out_path, set(wanted))
        if isinstance(points, str):
            return points
        for i in wanted:
            theta2, value = points[i]
            if abs(theta2 - grid[i]) > 1e-12:
                return f"point {i}: theta2 {theta2!r}, expected {grid[i]!r}"
            dev = rel_dev(value, self.reference_value(inputs["theta1"], theta2))
            if not dev <= REL_TOL:
                return f"point {i}: value {value!r} deviates by {dev:.3e} from {self.reference}"
        return None

    def _json_points(self, path: str, wanted: set[int]):
        with open(path, encoding="utf-8") as fh:
            curve = json.load(fh)["curve"]
        if curve["method"] != self.method or len(curve["value"]) != self.steps:
            return f"curve has method {curve['method']!r} and {len(curve['value'])} points"
        return {i: (curve["theta2_rad"][i], curve["value"][i]) for i in wanted}

    def _csv_points(self, path: str, wanted: set[int]):
        # Streamed line by line so that the check never holds the whole output.
        points = {}
        rows = -1
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if rows == -1:
                    if line != "theta2_rad,phase_x,value,method\n":
                        return f"unexpected header {line!r}"
                elif not line.endswith(f",{self.method}\n"):
                    return f"row {rows}: {line!r}"
                elif rows in wanted:
                    fields = line.split(",")
                    points[rows] = (float(fields[0]), float(fields[2]))
                rows += 1
        if rows != self.steps:
            return f"{rows} rows, expected {self.steps}"
        return points


WORKLOADS = {
    w.name: w
    for w in (
        Scan("scan_exact", "exact", n=16, m=8, steps=7, fmt="json", reference="closed"),
        Scan("scan_pathsum", "pathsum", n=12, m=6, steps=11, fmt="json", reference="closed"),
        Scan("scan_functional", "functional", n=20, m=10, steps=3, fmt="json",
             reference="closed"),
        Scan("scan_closed", "closed", n=12, m=6, steps=100_000, fmt="csv",
             reference="exact", checked=64),
    )
}
