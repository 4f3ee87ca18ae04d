import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bvlab.arith import DEFAULT_LIMIT_CEILING, enumerate_moduli_set
from bvlab.progressions import exception_scan, max_modulus

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "exception_survey.py"


def _survey(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_survey_rows_match_exception_scan(tmp_path, tables):
    out = tmp_path / "survey.csv"
    run = _survey("--x-values", "1000", "10000", "--a-values", "1", "2",
                  "--out", str(out))
    assert run.returncode == 0, run.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["x"], r["A"]) for r in rows] == \
        [("1000", "1.0"), ("1000", "2.0"), ("10000", "1.0"), ("10000", "2.0")]
    for row in rows:
        x, A = int(row["x"]), float(row["A"])
        Q = max_modulus(x)
        S = enumerate_moduli_set(Q, "prime-powers")
        _, summary = exception_scan(float(x), Q, A, S, tables)
        assert row == {"x": str(x), "A": str(A), "Q": str(Q),
                       "set_size": str(len(S.members)),
                       "exceptional": str(summary["count_exceptional"]),
                       "max_ratio": f"{summary['max_ratio']:.6f}"}


def test_survey_rejects_x_below_132(tmp_path):
    # 131 is the largest x with max_modulus(x) < 3
    assert max_modulus(131) == 2 and max_modulus(132) == 3
    run = _survey("--x-values", "1000", "131", "--out", str(tmp_path / "s.csv"))
    assert run.returncode == 2
    assert "at least 132" in run.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["--a-values", "1", "nan"], "finite and nonnegative, got nan"),
    (["--a-values", "inf"], "finite and nonnegative, got inf"),
    (["--a-values=-inf"], "finite and nonnegative, got -inf"),
    (["--a-values", "-0.5", "1"], "finite and nonnegative, got -0.5"),
    (["--x-values", "1000", str(2 * DEFAULT_LIMIT_CEILING)],
     f"at most {DEFAULT_LIMIT_CEILING}"),
    (["--a-values", "1000"], "overflows"),
])
def test_survey_rejects_bad_a_and_x_above_the_ceiling(tmp_path, args, message):
    # each of these once wrote a NaN row, took a negative A, or died in the
    # sieve or the threshold with a traceback; now each is an argument error
    # before any sieve
    run = _survey(*args, "--out", str(tmp_path / "s.csv"))
    assert run.returncode == 2
    assert message in run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "s.csv").exists()


def test_survey_accepts_a_zero(tmp_path):
    # A = 0 is the weakest threshold, not an invalid one
    out = tmp_path / "s.csv"
    run = _survey("--x-values", "1000", "--a-values", "0", "--out", str(out))
    assert run.returncode == 0, run.stderr
    assert out.read_text().splitlines()[1].startswith("1000,0.0,")
