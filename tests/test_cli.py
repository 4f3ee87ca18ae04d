import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bvlab import cli, exponents

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = """
[general]
seed = 0
output_dir = {out}

[lemma4]
grid_step = 1/8
random_count = 200

[exponents]
grid_step = 1/8
theta = 9/40
"""


def test_lemma4_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert cli.main(["lemma4", "--config", cfg]) == 0
    data = json.loads((tmp_path / "out" / "lemma4.json").read_text())
    assert data["all_verified"] is True
    assert data["grid_tuples"] == 67


def test_exponents_subcommand_writes_certificate(tmp_path):
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert cli.main(["exponents", "--config", cfg]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["slack_rational_as_string"] == "0"
    ledger = json.loads((tmp_path / "out" / "logpower.json").read_text())
    assert ledger["ok"] is True


def test_invalid_grid_step_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "[exponents]\ngrid_step = 1/7\n")
    assert cli.main(["exponents", "--config", cfg]) == cli.EXIT_INVALID_VALUE


def test_unknown_key_exit_code(tmp_path):
    cfg = _write(tmp_path, "[exponents]\nnot_a_key = 1\n")
    assert cli.main(["exponents", "--config", cfg]) == cli.EXIT_UNKNOWN_KEY


def test_removed_key_exit_code(tmp_path):
    # primitive_q_max was read by no command and is no longer a key
    cfg = _write(tmp_path, f"[general]\noutput_dir = {tmp_path / 'out'}\n"
                           "[characters]\nprimitive_q_max = 0\n")
    assert cli.main(["characters", "--config", cfg]) == cli.EXIT_UNKNOWN_KEY
    assert not (tmp_path / "out").exists()


def test_failed_certificate_exit_code(tmp_path, monkeypatch):
    # a split that fails PartitionOutcome.verify: group sizes 7 and 1
    def bad_split(u):
        return exponents.PartitionOutcome("B", frozenset(range(7)), frozenset({7}))

    monkeypatch.setattr(exponents, "partition_exponents", bad_split)
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert cli.main(["lemma4", "--config", cfg]) == cli.EXIT_ASSERTION
    assert not (tmp_path / "out" / "lemma4.json").exists()

    # any other ValueError is a defect, not a verification failure
    def broken(u):
        raise ValueError("not a certificate")

    monkeypatch.setattr(exponents, "partition_exponents", broken)
    with pytest.raises(ValueError, match="not a certificate"):
        cli.main(["lemma4", "--config", cfg])


def test_unknown_section_exit_code(tmp_path):
    cfg = _write(tmp_path, "[mystery]\nx = 1\n")
    assert cli.main(["exponents", "--config", cfg]) == cli.EXIT_UNKNOWN_KEY


def test_malformed_config_exit_code(tmp_path):
    cfg = _write(tmp_path, "grid_step 1/8\n")
    assert cli.main(["exponents", "--config", cfg]) == cli.EXIT_CONFIG_PARSE


def test_missing_cache_exit_code(tmp_path):
    cfg = _write(
        tmp_path,
        f"[general]\ntable_cache = {tmp_path / 'absent.bin'}\n"
        f"[hb]\nx = 500\nn_max = 500\n",
    )
    assert cli.main(["hb-verify", "--config", cfg]) == cli.EXIT_MISSING_CACHE


def test_bad_value_type_exit_code(tmp_path):
    cfg = _write(tmp_path, "[sieve]\nlimit = soon\n")
    assert cli.main(["sieve", "--config", cfg]) == cli.EXIT_INVALID_VALUE


def test_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = _write(tmp_path, BASE.format(out=out1), "c1.txt")
    cfg2 = _write(tmp_path, BASE.format(out=out2), "c2.txt")
    assert cli.main(["lemma4", "--config", cfg1]) == 0
    assert cli.main(["lemma4", "--config", cfg2]) == 0
    assert (out1 / "lemma4.json").read_bytes() == \
        (out2 / "lemma4.json").read_bytes()


def test_sieve_and_cache_consumers(tmp_path):
    cache = tmp_path / "tables.bin"
    cfg = _write(
        tmp_path,
        f"[general]\noutput_dir = {tmp_path / 'out'}\n"
        f"table_cache = {cache}\n[sieve]\nlimit = 3000\n"
        f"[hb]\nx = 2000\nn_max = 1000\n",
    )
    assert cli.main(["sieve", "--config", cfg]) == 0
    assert cache.exists()
    # hb-verify now loads the cache instead of re-sieving
    assert cli.main(["hb-verify", "--config", cfg]) == 0


def test_probe_theta_reports_without_failing(tmp_path):
    cfg = _write(
        tmp_path,
        f"[general]\noutput_dir = {tmp_path / 'out'}\n"
        "[exponents]\ngrid_step = 1/8\ntheta = 19/80\n",
    )
    assert cli.main(["exponents", "--config", cfg]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["passed"] is False
    assert cert["violations"] >= 1


def test_perron_subcommand(tmp_path):
    cfg = _write(
        tmp_path,
        f"[general]\noutput_dir = {tmp_path / 'out'}\n"
        "[perron]\ny = 10.5\nheights = 1e3 2e3\n",
    )
    assert cli.main(["perron", "--config", cfg]) == 0
    assert (tmp_path / "out" / "perron.csv").exists()


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "5 malformed config file" in out
    assert "6 invalid table cache" in " ".join(out.split())  # help wraps lines


def test_invalid_cache_exit_code(tmp_path):
    cache = tmp_path / "tables.bin"
    cfg = _write(
        tmp_path,
        f"[general]\noutput_dir = {tmp_path / 'out'}\n"
        f"table_cache = {cache}\n[sieve]\nlimit = 3000\n"
        f"[hb]\nx = 2000\nn_max = 1000\n",
    )
    assert cli.main(["sieve", "--config", cfg]) == 0
    good = cache.read_bytes()
    for old_magic in (b"BVML1", b"BVML2"):  # the previous formats' magics
        cache.write_bytes(old_magic + good[5:])
        assert cli.main(["hb-verify", "--config", cfg]) == cli.EXIT_INVALID_CACHE
    bad = bytearray(good)
    bad[-1] ^= 0xFF  # breaks the CRC32
    cache.write_bytes(bytes(bad))
    assert cli.main(["hb-verify", "--config", cfg]) == cli.EXIT_INVALID_CACHE
    cache.write_bytes(good)
    assert cli.main(["hb-verify", "--config", cfg]) == 0


def test_workers_key_accepted_and_checked(tmp_path):
    out = tmp_path / "out"
    cfg = "[general]\noutput_dir = {out}\nworkers = {w}\n" \
          "[meanvalue]\nq_values = 4\nt_values = 16\nn_min_exp = 6\nn_max_exp = 7\n"
    for w in (1, 2):
        path = _write(tmp_path, cfg.format(out=out / str(w), w=w), f"c{w}.txt")
        assert cli.main(["meanvalue", "--config", path]) == 0
    assert (out / "1" / "meanvalue.csv").read_bytes() == \
        (out / "2" / "meanvalue.csv").read_bytes()
    path = _write(tmp_path, cfg.format(out=out, w=0), "c0.txt")
    assert cli.main(["meanvalue", "--config", path]) == cli.EXIT_INVALID_VALUE


@pytest.mark.parametrize("line", [
    "y = 10", "y = 10.0000000001", "y = 1", "y = 0.5", "y = -3.5", "y = inf", "y = nan",
    "heights = 1e3 0", "heights = -1e3", "heights = 1e3 inf", "heights = nan",
    "rel_tol = 0", "rel_tol = -1e-8", "rel_tol = nan",
])
def test_perron_bad_value_exit_code(tmp_path, line):
    cfg = _write(tmp_path, f"[perron]\n{line}\n")
    assert cli.main(["perron", "--config", cfg]) == cli.EXIT_INVALID_VALUE


@pytest.mark.parametrize("section, line", [
    ("sieve", "limit = 1000000000"), ("exceptions", "x = 100000001"),
    ("hb", "x = 100000001"), ("meanvalue", "n_max_exp = 26"),
    ("meanvalue", "n_max_exp = 100000000"),
])
def test_sieve_ceiling_exit_code(tmp_path, section, line):
    cfg = _write(tmp_path, f"[{section}]\n{line}\n")
    assert cli.main(["sieve", "--config", cfg]) == cli.EXIT_INVALID_VALUE


def test_sieve_ceiling_boundary_accepted():
    cfg = cli.ExperimentConfig(limit=10**8, x=10**8, hb_x=10**8, n_max_exp=25)
    cli._validate(cfg)  # 2^26 <= 10^8 < 2^27


@pytest.mark.parametrize("command, section, lines", [
    ("meanvalue", "meanvalue", "q_values = 0"),
    ("meanvalue", "meanvalue", "q_values = 4 -3"),
    ("meanvalue", "meanvalue", "t_values = 0"),
    ("meanvalue", "meanvalue", "t_values = 16 -1"),
    ("meanvalue", "meanvalue", "n_min_exp = 9\nn_max_exp = 7"),
    ("meanvalue", "meanvalue", "n_min_exp = -1"),
    ("exceptions", "exceptions", "x = 131"),
    ("hb-verify", "hb", "x = 100\nn_max = 200"),
    ("hb-verify", "hb", "x = 100\nn_max = 0"),
    ("hb-verify", "hb", "x = 1\nn_max = 1"),
    ("meanvalue", "meanvalue", "t_values ="),
    ("meanvalue", "meanvalue", "x_scale = 1"),
    ("meanvalue", "meanvalue", "x_scale = 0"),
    ("characters", "characters", "q_max = -5"),
    ("characters", "characters", "q_max = 0"),
    ("characters", "characters", "q_max = 1000001"),
    ("meanvalue", "meanvalue", "q_values = 4 500001"),
    ("lemma4", "lemma4", "random_count = -3"),
    ("exceptions", "exceptions", "A = nan"),
    ("exceptions", "exceptions", "A = inf"),
    ("exceptions", "exceptions", "A = -1"),
    ("exceptions", "exceptions", "x = 1000\nA = 400"),  # (log x)^A overflows
    ("exceptions", "exceptions", "x = 1000\nA = 366.8"),  # phi(q) (log x)^A does
    ("exponents", "exponents", "theta = -1/8"),
])
def test_out_of_range_value_exit_code(tmp_path, command, section, lines):
    # rejected by _validate before any library code runs
    cfg = _write(tmp_path, f"[general]\noutput_dir = {tmp_path / 'out'}\n"
                           f"[{section}]\n{lines}\n")
    assert cli.main([command, "--config", cfg]) == cli.EXIT_INVALID_VALUE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, lines", [
    ("exceptions", "exceptions", "x = 132"),  # the least x with x^(9/40) >= 3
    ("meanvalue", "meanvalue",
     "q_values = 1\nt_values = 1\nn_min_exp = 0\nn_max_exp = 1"),
    ("hb-verify", "hb", "x = 100\nn_max = 1"),
    ("hb-verify", "hb", "x = 2\nn_max = 2"),
    ("meanvalue", "meanvalue",
     "q_values = 4\nt_values = 16\nn_min_exp = 6\nn_max_exp = 6\nx_scale = 2"),
    ("characters", "characters", "q_max = 1"),
    ("lemma4", "lemma4", "random_count = 0"),
    ("exceptions", "exceptions", "x = 1000\nA = 366"),  # thresholds stay finite
])
def test_range_boundary_values_accepted(tmp_path, command, section, lines):
    cfg = _write(tmp_path, f"[general]\noutput_dir = {tmp_path / 'out'}\n"
                           f"[{section}]\n{lines}\n")
    assert cli.main([command, "--config", cfg]) == 0


def test_every_numeric_key_declares_a_range():
    numeric = ("int", "float", "Fraction", "list[int]", "list[float]")
    declared = [(section, key, f) for section, keys in cli._SCHEMA.items()
                for key, f in keys.items()]
    assert len(declared) == len(dataclasses.fields(cli.ExperimentConfig))
    for section, key, f in declared:
        if f.type in numeric and key != "seed":
            assert {"ge", "gt", "allowed"} & f.metadata.keys(), (section, key)


def test_readme_key_table_matches_declarations():
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", text, flags=re.M)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(section, key) for section, keys in cli._SCHEMA.items()
                         for key in keys}


def test_desk_config_sets_the_desk_values():
    cfg = cli.parse_config_file(str(ROOT / "scripts" / "desk.ini"))
    assert cfg == cli.ExperimentConfig(
        limit=10**5, x=10**5, hb_x=5000, hb_n_max=5000, q_max=60, n_max_exp=10,
        random_count=2000, heights=[1e4, 2e4, 4e4])


def test_truncation_config_sets_the_dyadic_heights():
    cfg = cli.parse_config_file(str(ROOT / "scripts" / "truncation.ini"))
    assert cfg.heights == [2.0**k for k in range(10, 21)]


def test_exact_subcommands_do_not_load_numpy(tmp_path):
    # importing bvlab and the Fraction and integer subcommands never need
    # numpy, so they must not pay for loading it
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "out")
                 + "[characters]\nq_max = 30\n")
    code = (
        "import sys\n"
        "from bvlab import (arith, characters, cli, dpoly, exponents,\n"
        "                   heathbrown, perron, progressions, reports)\n"
        "for command in ('characters', 'lemma4', 'exponents'):\n"
        f"    assert cli.main([command, '--config', {cfg!r}]) == 0, command\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
