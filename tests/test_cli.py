import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bvlab import arith, cli, exponents

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


def test_failed_oracle_exit_code(tmp_path, monkeypatch, capsys):
    # the constructive split passes, the independent oracle finds none
    monkeypatch.setattr(exponents, "partition_bruteforce", lambda u: None)
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert cli.main(["lemma4", "--config", cfg]) == cli.EXIT_ASSERTION
    assert "oracle found no split" in capsys.readouterr().err
    assert not (tmp_path / "out" / "lemma4.json").exists()


def test_unknown_section_exit_code(tmp_path):
    cfg = _write(tmp_path, "[mystery]\nx = 1\n")
    assert cli.main(["exponents", "--config", cfg]) == cli.EXIT_UNKNOWN_KEY


def test_malformed_config_exit_code(tmp_path):
    cfg = _write(tmp_path, "grid_step 1/8\n")
    assert cli.main(["exponents", "--config", cfg]) == cli.EXIT_CONFIG_PARSE


def test_bad_value_type_exit_code(tmp_path):
    cfg = _write(tmp_path, "[sieve]\nlimit = soon\n")
    assert cli.main(["sieve", "--config", cfg]) == cli.EXIT_INVALID_VALUE


ARTIFACTS = ["certificate.json", "characters.csv", "exceptions.csv",
             "exceptions.json", "fractions.json", "hb.csv", "lemma4.json",
             "logpower.json", "meanvalue.csv", "perron.csv", "sieve.json"]


def test_deterministic_outputs(tmp_path):
    # two `bvlab all` runs at the desk sizes write the same artifacts, byte
    # for byte, and every CSV artifact ends each line in CRLF, the csv
    # module's default dialect
    desk = str(ROOT / "scripts" / "desk.ini")
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["all", "--config", desk, "--output-dir", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(runs[0]) == ARTIFACTS
    assert runs[0] == runs[1]
    for name, data in runs[0].items():
        if name.endswith(".csv"):
            assert data.endswith(b"\r\n"), name
            assert data.count(b"\n") == data.count(b"\r\n"), name


def test_sieve_and_cache_consumers(tmp_path):
    # table_cache is accepted and read by nothing: each command sieves the
    # range it reads, whatever the key names or whether it is set at all
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(bytes(range(256)) * 4)
    caches = {"missing": f"table_cache = {tmp_path / 'absent.bin'}\n",
              "garbage": f"table_cache = {garbage}\n", "unset": ""}
    artifacts = {}
    for tag, line in caches.items():
        out = tmp_path / tag
        cfg = _write(
            tmp_path,
            f"[general]\noutput_dir = {out}\n{line}[sieve]\nlimit = 3000\n"
            f"[exceptions]\nx = 3000\n[hb]\nx = 2000\nn_max = 1000\n",
            f"{tag}.txt",
        )
        for command in ("sieve", "hb-verify", "exceptions"):
            assert cli.main([command, "--config", cfg]) == 0, (tag, command)
        assert sorted(p.name for p in out.iterdir()) == [
            "exceptions.csv", "exceptions.json", "hb.csv", "sieve.json"]
        artifacts[tag] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert artifacts["missing"] == artifacts["garbage"] == artifacts["unset"]
    sieve = json.loads(artifacts["unset"]["sieve.json"])
    assert sorted(sieve) == ["limit", "primes", "psi_at_limit"]
    assert sieve["limit"] == 3000 and sieve["primes"] == 430
    assert not (tmp_path / "absent.bin").exists()


def test_each_command_sieves_only_the_range_it_reads(tmp_path, monkeypatch):
    # sieve builds [sieve] limit, exceptions [exceptions] x and hb-verify
    # [hb] n_max, at least 2, the least limit a table takes; the unit and
    # log-coefficient polynomials of meanvalue and perron read no table
    calls = []
    build = arith.build_tables
    monkeypatch.setattr(arith, "build_tables",
                        lambda limit: calls.append(limit) or build(limit))
    text = (f"[general]\noutput_dir = {tmp_path / 'out'}\n[sieve]\nlimit = 3000\n"
            "[exceptions]\nx = 2000\n[hb]\nx = 5000\nn_max = {n_max}\n"
            "[meanvalue]\nq_values = 2\nt_values = 1\nn_min_exp = 0\n"
            "n_max_exp = 1\n[perron]\nheights = 1e3\n")
    expected = [("sieve", 1000, [3000]), ("exceptions", 1000, [2000]),
                ("hb-verify", 1000, [1000]), ("hb-verify", 1, [2]),
                ("meanvalue", 1000, []), ("perron", 1000, [])]
    for command, n_max, limits in expected:
        calls.clear()
        cfg = _write(tmp_path, text.replace("{n_max}", str(n_max)))
        assert cli.main([command, "--config", cfg]) == 0, command
        assert calls == limits, (command, n_max)


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
    text = " ".join(out.split())  # help wraps lines
    assert "exit codes" in text
    for code in ("0 success", "1 verification failure", "2 invalid config value",
                 "3 unknown config key", "5 malformed config file"):
        assert code in text
    assert "cache" not in text


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
    ("meanvalue", "meanvalue", "q_values = 1"),  # no fourth-moment character
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
    ("sieve", "general", "output_dir ="),
])
def test_out_of_range_value_exit_code(tmp_path, command, section, lines):
    # rejected by _validate before any library code runs
    cfg = _write(tmp_path, f"[general]\noutput_dir = {tmp_path / 'out'}\n"
                           f"[{section}]\n{lines}\n")
    assert cli.main([command, "--config", cfg]) == cli.EXIT_INVALID_VALUE
    assert not (tmp_path / "out").exists()


def test_empty_output_dir_option_exit_code(tmp_path, monkeypatch):
    # rejected before the command runs, as the empty key in a file is
    monkeypatch.setitem(cli._COMMANDS, "sieve", lambda cfg: pytest.fail("sieve ran"))
    cfg = _write(tmp_path, "[sieve]\nlimit = 3000\n")
    assert cli.main(["sieve", "--config", cfg, "--output-dir", ""]) == \
        cli.EXIT_INVALID_VALUE
    assert cli.main(["sieve", "--output-dir", ""]) == cli.EXIT_INVALID_VALUE


@pytest.mark.parametrize("command, section, lines", [
    ("exceptions", "exceptions", "x = 132"),  # the least x with x^(9/40) >= 3
    ("meanvalue", "meanvalue",
     "q_values = 2\nt_values = 1\nn_min_exp = 0\nn_max_exp = 1"),
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
