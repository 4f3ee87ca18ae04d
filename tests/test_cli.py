import json

import pytest

from bvlab import cli


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
