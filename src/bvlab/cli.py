"""Command-line orchestration: experiments, configuration, report emission.

Config files are plain text ``key = value`` lines under ``[section]``
headers; unknown sections or keys are rejected. Every subcommand writes
CSV/JSON artifacts plus a human-readable summary and exits 0 only when
all hard assertions pass.

Exit codes:
  0  success (all hard assertions passed)
  1  verification/assertion failure
  2  invalid configuration value (bad type or out of allowed range)
  3  unknown configuration section or key
  4  table cache named in the config but missing on disk
  5  malformed configuration file
  6  table cache named in the config but failing its integrity checks
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import arith, characters, dpoly, exponents, heathbrown, perron, progressions
from .reports import write_reports_csv

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID_VALUE = 2
EXIT_UNKNOWN_KEY = 3
EXIT_MISSING_CACHE = 4
EXIT_CONFIG_PARSE = 5
EXIT_INVALID_CACHE = 6


class ConfigParseError(Exception):
    exit_code = EXIT_CONFIG_PARSE


class UnknownKeyError(Exception):
    exit_code = EXIT_UNKNOWN_KEY


class InvalidValueError(Exception):
    exit_code = EXIT_INVALID_VALUE


class MissingCacheError(Exception):
    exit_code = EXIT_MISSING_CACHE


class InvalidCacheError(Exception):
    exit_code = EXIT_INVALID_CACHE


def _fraction(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidValueError(f"not a rational: {raw!r}") from exc


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidValueError(f"not an integer: {raw!r}") from exc


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise InvalidValueError(f"not a number: {raw!r}") from exc


def _int_list(raw: str) -> list[int]:
    return [_int(tok) for tok in raw.replace(",", " ").split()]


def _float_list(raw: str) -> list[float]:
    return [_float(tok) for tok in raw.replace(",", " ").split()]


@dataclass
class ExperimentConfig:
    """All tunables, with desk-scale defaults."""

    # [general]
    seed: int = 0
    output_dir: str = "out"
    workers: int = 1  # accepted and checked; every command runs serially
    table_cache: str = ""
    # [sieve]
    limit: int = 10**6
    # [characters]
    q_max: int = 200
    primitive_q_max: int = 2000
    # [exceptions]
    x: int = 10**6
    A: float = 1.0
    moduli_kind: str = "prime-powers"
    # [hb]
    hb_x: int = 10**4
    hb_n_max: int = 10**4
    # [meanvalue]
    q_values: list[int] = field(default_factory=lambda: [4, 8, 16])
    t_values: list[int] = field(default_factory=lambda: [16, 64])
    n_min_exp: int = 6
    n_max_exp: int = 12
    x_scale: int = dpoly.DEFAULT_X_SCALE
    # [lemma4]
    lemma4_grid_step: Fraction = Fraction(1, 8)
    random_count: int = 10**4
    # [exponents]
    grid_step: Fraction = Fraction(1, 16)
    theta: Fraction = Fraction(9, 40)
    # [perron]
    y: float = 10.5
    heights: list[float] = field(default_factory=lambda: [1e6, 2e6, 4e6])
    rel_tol: float = 1e-8  # accepted and checked; the closed form ignores it


# section -> key -> (attribute, converter)
_SCHEMA = {
    "general": {
        "seed": ("seed", _int),
        "output_dir": ("output_dir", str),
        "workers": ("workers", _int),
        "table_cache": ("table_cache", str),
    },
    "sieve": {"limit": ("limit", _int)},
    "characters": {
        "q_max": ("q_max", _int),
        "primitive_q_max": ("primitive_q_max", _int),
    },
    "exceptions": {
        "x": ("x", _int),
        "A": ("A", _float),
        "moduli_kind": ("moduli_kind", str),
    },
    "hb": {"x": ("hb_x", _int), "n_max": ("hb_n_max", _int)},
    "meanvalue": {
        "q_values": ("q_values", _int_list),
        "t_values": ("t_values", _int_list),
        "n_min_exp": ("n_min_exp", _int),
        "n_max_exp": ("n_max_exp", _int),
        "x_scale": ("x_scale", _int),
    },
    "lemma4": {
        "grid_step": ("lemma4_grid_step", _fraction),
        "random_count": ("random_count", _int),
    },
    "exponents": {
        "grid_step": ("grid_step", _fraction),
        "theta": ("theta", _fraction),
    },
    "perron": {
        "y": ("y", _float),
        "heights": ("heights", _float_list),
        "rel_tol": ("rel_tol", _float),
    },
}


def parse_config_file(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    section = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise UnknownKeyError(f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigParseError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise UnknownKeyError(f"unknown key {key!r} in [{section}]")
        attr, conv = _SCHEMA[section][key]
        setattr(cfg, attr, conv(value))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.grid_step not in exponents.ALLOWED_GRID_STEPS:
        raise InvalidValueError(f"grid_step {cfg.grid_step} not allowed")
    if cfg.lemma4_grid_step not in exponents.ALLOWED_GRID_STEPS:
        raise InvalidValueError(f"grid_step {cfg.lemma4_grid_step} not allowed")
    if not cfg.q_values or not cfg.t_values or not cfg.heights:
        raise InvalidValueError("ranges must be non-empty")
    if min(cfg.limit, cfg.x, cfg.hb_x) < 2:
        raise InvalidValueError("limit, x and hb x must be at least 2")
    ceiling = arith.DEFAULT_LIMIT_CEILING
    for name, value in (("limit", cfg.limit), ("x", cfg.x), ("hb x", cfg.hb_x)):
        if value > ceiling:
            raise InvalidValueError(f"{name} {value} exceeds the sieve ceiling {ceiling}")
    # 2^(n_max_exp + 1) > ceiling, without building a huge power
    if cfg.n_max_exp + 1 >= ceiling.bit_length():
        raise InvalidValueError(f"n_max_exp {cfg.n_max_exp} needs tables past "
                                f"the sieve ceiling {ceiling}")
    if progressions.max_modulus(cfg.x) < 3:
        raise InvalidValueError(f"x {cfg.x} is too small: the moduli range "
                                f"x^(9/40) must reach 3")
    if not 1 <= cfg.hb_n_max <= cfg.hb_x:
        raise InvalidValueError(f"hb n_max {cfg.hb_n_max} must lie in "
                                f"[1, hb x = {cfg.hb_x}]")
    if min(cfg.q_values) < 1 or min(cfg.t_values) < 1:
        raise InvalidValueError("q_values and t_values must be at least 1")
    if not 0 <= cfg.n_min_exp <= cfg.n_max_exp:
        raise InvalidValueError(f"need 0 <= n_min_exp {cfg.n_min_exp} <= "
                                f"n_max_exp {cfg.n_max_exp}")
    if cfg.workers < 1:
        raise InvalidValueError("workers must be at least 1")
    if cfg.moduli_kind not in ("prime-powers", "primes"):
        raise InvalidValueError(f"unknown moduli kind {cfg.moduli_kind!r}")
    if not (math.isfinite(cfg.y) and cfg.y > 1) or abs(cfg.y - round(cfg.y)) < 1e-9:
        raise InvalidValueError(f"y {cfg.y} must exceed 1 and not be an integer")
    if not all(math.isfinite(h) and h > 0 for h in cfg.heights):
        raise InvalidValueError(f"heights {cfg.heights} must be finite and positive")
    if not cfg.rel_tol > 0:
        raise InvalidValueError(f"rel_tol {cfg.rel_tol} must be positive")


def _tables(cfg: ExperimentConfig, limit: int) -> arith.MultiplicativeTables:
    if cfg.table_cache:
        if not os.path.exists(cfg.table_cache):
            raise MissingCacheError(f"table cache {cfg.table_cache!r} not found")
        try:
            tables = arith.load_tables(cfg.table_cache)
        except ValueError as exc:
            raise InvalidCacheError(
                f"table cache {cfg.table_cache!r}: {exc}; rebuild it with "
                f"bvlab sieve") from exc
        if tables.limit >= limit:
            return tables
        raise MissingCacheError(
            f"table cache covers only {tables.limit} < {limit}"
        )
    return arith.build_tables(limit)


def _out(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


# ---------------------------------------------------------------- commands


def cmd_sieve(cfg: ExperimentConfig) -> None:
    tables = arith.build_tables(cfg.limit)
    path = cfg.table_cache or _out(cfg, "tables.bin")
    arith.save_tables(tables, path)
    n_primes = len(tables.primes())
    psi_x = progressions.psi(float(cfg.limit), tables)
    summary = {"limit": cfg.limit, "primes": n_primes,
               "psi_at_limit": psi_x, "cache": path}
    with open(_out(cfg, "sieve.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"sieve: limit={cfg.limit} primes={n_primes} "
          f"psi={psi_x:.6f} cache={path}")


def cmd_characters(cfg: ExperimentConfig) -> None:
    rows = []
    for q in range(1, cfg.q_max + 1):
        group = characters.CharacterGroup(q)
        chars = group.characters()
        n_primitive = sum(
            1 for chi in chars if characters.conductor_and_primitivity(chi)[1]
        )
        formula = characters.primitive_count(q)
        if n_primitive != formula:
            raise AssertionError(
                f"primitive count mismatch at q={q}: {n_primitive} != {formula}"
            )
        rows.append({"q": q, "phi": group.phi, "primitive": n_primitive})
    with open(_out(cfg, "characters.csv"), "w") as fh:
        fh.write("q,phi,primitive\n")
        for r in rows:
            fh.write(f"{r['q']},{r['phi']},{r['primitive']}\n")
    print(f"characters: audited q <= {cfg.q_max}; "
          f"primitive-count formula matches enumeration")


def cmd_exceptions(cfg: ExperimentConfig) -> None:
    tables = _tables(cfg, cfg.x)
    Q = progressions.max_modulus(cfg.x)
    kind = cfg.moduli_kind
    S = arith.enumerate_moduli_set(Q, kind)
    records, summary = progressions.exception_scan(
        float(cfg.x), Q, cfg.A, S, tables
    )
    progressions.write_error_csv(records, _out(cfg, "exceptions.csv"))
    progressions.write_scan_summary(summary, _out(cfg, "exceptions.json"))
    print(f"exceptions: x={cfg.x} Q={Q} |S|={len(S.members)} "
          f"exceptional={summary['count_exceptional']} "
          f"max_ratio={summary['max_ratio']:.4f}")


def cmd_hb_verify(cfg: ExperimentConfig) -> None:
    tables = _tables(cfg, cfg.hb_x)
    report = heathbrown.verify_identity(float(cfg.hb_x), cfg.hb_n_max, tables)
    worst_n = report.parameters["worst_n"]
    budget = 1e-9 * (1.0 + (math.log(worst_n) if worst_n >= 1 else 0.0))
    if report.lhs > budget:
        raise AssertionError(
            f"identity residual {report.lhs:.3e} exceeds {budget:.3e}"
        )
    grid_report = heathbrown.dyadic_grid_report(
        [float(2**k) for k in range(8, 21, 2)]
    )
    write_reports_csv([report, grid_report], _out(cfg, "hb.csv"))
    print(f"hb-verify: x={cfg.hb_x} max residual={report.lhs:.3e} "
          f"(worst n={worst_n}); dyadic grid ratio={grid_report.ratio:.4f}")


def cmd_meanvalue(cfg: ExperimentConfig) -> None:
    tables = _tables(cfg, 2 ** (cfg.n_max_exp + 1))
    jobs = [
        (Q, T, 2**k)
        for Q in cfg.q_values
        for T in cfg.t_values
        for k in range(cfg.n_min_exp, cfg.n_max_exp + 1)
    ]
    reports = []
    for Q, T, N in jobs:
        fam = dpoly.build_triple_family(Q, float(T), N, None, "unit", tables)
        reports += [
            dpoly.mean_value_report(fam, x_scale=cfg.x_scale),
            dpoly.fourth_moment_report(Q, float(T), N, tables,
                                       x_scale=cfg.x_scale),
            dpoly.derivative_second_moment_report(Q, float(T), N, tables,
                                                  x_scale=cfg.x_scale),
        ]
    if any(not math.isfinite(r.ratio) for r in reports):
        raise AssertionError("non-finite mean-value ratio")
    write_reports_csv(reports, _out(cfg, "meanvalue.csv"))
    worst = max(r.ratio for r in reports)
    print(f"meanvalue: {len(jobs)} sweep points, {len(reports)} reports, "
          f"max ratio={worst:.4f}")


def cmd_lemma4(cfg: ExperimentConfig) -> None:
    count = 0
    for u in exponents.grid_tuples(cfg.lemma4_grid_step):
        outcome = exponents.partition_exponents(u)
        outcome.verify(u)
        if exponents.partition_bruteforce(u) is None:
            raise AssertionError(f"oracle found no split for {u}")
        count += 1
    rng = random.Random(cfg.seed)
    for _ in range(cfg.random_count):
        u = exponents.random_exponent_tuple(rng)
        outcome = exponents.partition_exponents(u)
        outcome.verify(u)
        if exponents.partition_bruteforce(u) is None:
            raise AssertionError(f"oracle found no split for {u}")
    summary = {
        "grid_step": str(cfg.lemma4_grid_step),
        "grid_tuples": count,
        "random_tuples": cfg.random_count,
        "seed": cfg.seed,
        "all_verified": True,
    }
    with open(_out(cfg, "lemma4.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"lemma4: {count} grid tuples + {cfg.random_count} random tuples, "
          f"constructive split and oracle agree everywhere")


def cmd_exponents(cfg: ExperimentConfig) -> None:
    result = exponents.polytope_scan(cfg.grid_step, theta=cfg.theta)
    exponents.write_certificate(result, _out(cfg, "certificate.json"))
    ledger = exponents.logpower_ledger()
    with open(_out(cfg, "logpower.json"), "w") as fh:
        json.dump(ledger, fh, indent=2, sort_keys=True)
        fh.write("\n")
    fr = {k: str(v) for k, v in exponents.published_fractions().items()}
    with open(_out(cfg, "fractions.json"), "w") as fh:
        json.dump(fr, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"exponents: grid={cfg.grid_step} theta={cfg.theta} "
          f"tuples={result.tuple_count} passed={result.passed} "
          f"worst_slack={result.worst_slack} ledger_ok={ledger['ok']}")
    if not ledger["ok"]:
        raise AssertionError("log-power ledger failed")
    if cfg.theta <= exponents.THETA_MAX and not result.passed:
        raise AssertionError("exponent certificate failed in range")


def cmd_perron(cfg: ExperimentConfig) -> None:
    tables = _tables(cfg, 32)
    chi = characters.character_group(1)[0]
    P = dpoly.DirichletPolynomial(N=4, N_prime=8, kind="unit", chi=chi)
    P.attach_tables(tables)
    results = perron.height_trend(
        [P], cfg.y, tuple(cfg.heights), rel_tol=cfg.rel_tol
    )
    perron.write_perron_csv(results, _out(cfg, "perron.csv"))
    sigma_grid = [0.5 + 0.05 * k for k in range(11)]
    perron.horizontal_bound_check([P], sigma_grid, max(cfg.heights))
    errs = " ".join(f"{r.abs_error:.3e}" for r in results)
    print(f"perron: y={cfg.y} heights={cfg.heights} errors=[{errs}]")


def cmd_all(cfg: ExperimentConfig) -> None:
    for fn in (cmd_sieve, cmd_characters, cmd_exceptions, cmd_hb_verify,
               cmd_meanvalue, cmd_lemma4, cmd_exponents, cmd_perron):
        fn(cfg)


_COMMANDS = {
    "sieve": cmd_sieve,
    "characters": cmd_characters,
    "exceptions": cmd_exceptions,
    "hb-verify": cmd_hb_verify,
    "meanvalue": cmd_meanvalue,
    "lemma4": cmd_lemma4,
    "exponents": cmd_exponents,
    "perron": cmd_perron,
    "all": cmd_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvlab",
        description="Workbench for progression error terms, character "
        "sums, combinatorial prime decompositions, Dirichlet-polynomial "
        "moments, exact exponent certificates, and contour integration.",
        epilog=(
            "exit codes: 0 success; 1 verification failure; "
            "2 invalid config value; 3 unknown config key; "
            "4 missing table cache; 5 malformed config file; "
            "6 invalid table cache"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key = value config file with [section] headers")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (parse_config_file(args.config) if args.config
               else ExperimentConfig())
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        if args.seed is not None:
            cfg.seed = args.seed
        _COMMANDS[args.command](cfg)
    except (ConfigParseError, UnknownKeyError, InvalidValueError,
            MissingCacheError, InvalidCacheError, AssertionError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_ASSERTION)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
