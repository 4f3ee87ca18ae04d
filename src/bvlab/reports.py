"""The universal verification record, and the one writer of artifacts.

Implied constants in the checked inequalities are never asserted; each
checker reports the observed left side, the right-side formula value,
and their ratio, plus the full parameter set that produced them.
Every CSV and JSON artifact is written here: a record gives its CSV row
through ``as_row()``, and ``write_csv`` decides the file format.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field


@dataclass
class BoundReport:
    lhs: float
    rhs_formula_value: float
    parameters: dict = field(default_factory=dict)
    label: str = ""

    @property
    def ratio(self) -> float:
        if self.rhs_formula_value > 0:
            return self.lhs / self.rhs_formula_value
        return math.inf if self.lhs > 0 else 0.0

    def as_row(self) -> dict:
        row = {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs_formula_value,
            "ratio": self.ratio,
        }
        for k, v in self.parameters.items():
            row[f"param_{k}"] = v
        return row


def write_json(obj, path: str) -> None:
    """Write one JSON artifact: two-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(rows: list[dict], path: str) -> None:
    """Write one CSV artifact: the header is the union of the row keys in
    first-seen order, floats are written ``.12g`` and None as an empty
    cell, in the csv module's default dialect (CRLF line ends)."""
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v
