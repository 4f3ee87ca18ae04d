"""Command-line orchestration: experiments, configuration, report emission.

Config files are plain text ``key = value`` lines under ``[section]``
headers; unknown sections or keys are rejected. Each key is declared once,
on its ``ExperimentConfig`` field: section, name, default and allowed
range. Every subcommand writes CSV/JSON artifacts plus a human-readable
summary and exits 0 only when all hard assertions pass.

Exit codes:
  0  success (all hard assertions passed)
  1  verification/assertion failure
  2  invalid configuration value (bad type or out of allowed range)
  3  unknown configuration section or key
  5  malformed configuration file

Each command sieves the range it reads; ``[general] table_cache`` is
accepted and ignored.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import random
import sys
from dataclasses import Field, dataclass, field, fields
from fractions import Fraction

from . import arith, characters, dpoly, exponents, heathbrown, perron, progressions
from .reports import write_csv, write_json

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID_VALUE = 2
EXIT_UNKNOWN_KEY = 3
EXIT_CONFIG_PARSE = 5


class ConfigParseError(Exception):
    exit_code = EXIT_CONFIG_PARSE


class UnknownKeyError(Exception):
    exit_code = EXIT_UNKNOWN_KEY


class InvalidValueError(Exception):
    exit_code = EXIT_INVALID_VALUE


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


# a field's annotation -> the converter of its config value
_CONVERTERS = {"int": _int, "float": _float, "str": str, "Fraction": _fraction,
               "list[int]": _int_list, "list[float]": _float_list}

# a bound a key may declare -> (test(value, bound), its words in an error)
_BOUNDS = {
    "ge": (operator.ge, "at least"),
    "gt": (operator.gt, "above"),
    "le": (operator.le, "at most"),
    "allowed": (lambda v, allowed: v in allowed, "one of"),
}


def _key(section: str, default, name: str = "", **bounds):
    """Declare one config key on its ``ExperimentConfig`` field: its
    ``[section]``, its name there (the attribute's unless given), its
    default, and the ``_BOUNDS`` each value, or each list entry, must meet."""
    assert bounds.keys() <= _BOUNDS.keys()
    meta = {"section": section, "name": name, **bounds}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


_CEILING = arith.DEFAULT_LIMIT_CEILING
_MODULUS_CEILING = characters.DEFAULT_MODULUS_CEILING


@dataclass
class ExperimentConfig:
    """All tunables, with desk-scale defaults; each field declares its key."""

    seed: int = _key("general", 0)
    output_dir: str = _key("general", "out")
    workers: int = _key("general", 1, ge=1)  # checked; every command runs serially
    table_cache: str = _key("general", "")  # accepted; nothing reads it
    limit: int = _key("sieve", 10**6, ge=2, le=_CEILING)
    q_max: int = _key("characters", 200, ge=1, le=_MODULUS_CEILING)
    x: int = _key("exceptions", 10**6, ge=progressions.LEAST_X, le=_CEILING)
    A: float = _key("exceptions", 1.0, ge=0)
    moduli_kind: str = _key("exceptions", "prime-powers",
                            allowed=("prime-powers", "primes"))
    hb_x: int = _key("hb", 10**4, "x", ge=2, le=_CEILING)
    hb_n_max: int = _key("hb", 10**4, "n_max", ge=1)
    # the families read every modulus q < 2Q; the fourth-moment family
    # needs a primitive character of modulus 2 <= q < 2Q, so Q >= 2
    q_values: list[int] = _key("meanvalue", [4, 8, 16], ge=2,
                               le=_MODULUS_CEILING // 2)
    t_values: list[int] = _key("meanvalue", [16, 64], ge=1)
    n_min_exp: int = _key("meanvalue", 6, ge=0)
    # keeps N' = 2^(n_max_exp + 1), the end of the longest polynomial, within
    # the ceiling 10^8 that also bounds every sieved range
    n_max_exp: int = _key("meanvalue", 12, ge=0, le=_CEILING.bit_length() - 2)
    x_scale: int = _key("meanvalue", dpoly.DEFAULT_X_SCALE, ge=2)
    lemma4_grid_step: Fraction = _key("lemma4", Fraction(1, 8), "grid_step",
                                      allowed=exponents.ALLOWED_GRID_STEPS)
    random_count: int = _key("lemma4", 10**4, ge=0)
    grid_step: Fraction = _key("exponents", Fraction(1, 16),
                               allowed=exponents.ALLOWED_GRID_STEPS)
    theta: Fraction = _key("exponents", Fraction(9, 40), ge=0)
    y: float = _key("perron", 10.5, gt=1)
    heights: list[float] = _key("perron", [1e6, 2e6, 4e6], gt=0)
    rel_tol: float = _key("perron", 1e-8, gt=0)  # checked; the closed form ignores it


def _section_key(f: Field) -> tuple[str, str]:
    return f.metadata["section"], f.metadata["name"] or f.name


def _schema() -> dict[str, dict[str, Field]]:
    """section -> key -> field, derived from the declarations above."""
    schema: dict[str, dict[str, Field]] = {}
    for f in fields(ExperimentConfig):
        section, name = _section_key(f)
        schema.setdefault(section, {})[name] = f
    return schema


_SCHEMA = _schema()


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
        f = _SCHEMA[section][key]
        setattr(cfg, f.name, _CONVERTERS[f.type](value))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    for f in fields(cfg):
        name = "[%s] %s" % _section_key(f)
        value = getattr(cfg, f.name)
        values = value if f.type.startswith("list") else [value]
        if not values:
            raise InvalidValueError(f"{name} must be non-empty")
        for v in values:
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidValueError(f"{name} = {v} must be finite")
            for bound, (test, words) in _BOUNDS.items():
                b = f.metadata.get(bound)
                if b is not None and not test(v, b):
                    shown = ", ".join(map(str, b)) if bound == "allowed" else b
                    raise InvalidValueError(f"{name} = {v} must be {words} {shown}")
    # the rules that involve two keys or a special shape
    if not cfg.output_dir:
        raise InvalidValueError("[general] output_dir must be non-empty")
    if cfg.hb_n_max > cfg.hb_x:
        raise InvalidValueError(f"[hb] n_max {cfg.hb_n_max} exceeds x {cfg.hb_x}")
    if cfg.n_min_exp > cfg.n_max_exp:
        raise InvalidValueError(f"n_min_exp {cfg.n_min_exp} exceeds "
                                f"n_max_exp {cfg.n_max_exp}")
    if abs(cfg.y - round(cfg.y)) < 1e-9:
        raise InvalidValueError(f"y {cfg.y} must not be an integer")
    try:
        progressions.threshold_scale(cfg.x, progressions.max_modulus(cfg.x), cfg.A)
    except ValueError as exc:
        raise InvalidValueError(str(exc)) from exc


def _out(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


# ---------------------------------------------------------------- commands


def cmd_sieve(cfg: ExperimentConfig) -> None:
    tables = arith.build_tables(cfg.limit)
    n_primes = len(tables.primes)
    psi_x = progressions.psi(float(cfg.limit), tables)
    summary = {"limit": cfg.limit, "primes": n_primes, "psi_at_limit": psi_x}
    write_json(summary, _out(cfg, "sieve.json"))
    print(f"sieve: limit={cfg.limit} primes={n_primes} psi={psi_x:.6f}")


def cmd_characters(cfg: ExperimentConfig) -> None:
    rows = []
    for q in range(1, cfg.q_max + 1):
        n_primitive = sum(chi.is_primitive for chi in characters.character_group(q))
        formula = characters.primitive_count(q)
        if n_primitive != formula:
            raise AssertionError(
                f"primitive count mismatch at q={q}: {n_primitive} != {formula}"
            )
        rows.append({"q": q, "phi": characters.euler_phi(q),
                     "primitive": n_primitive})
    write_csv(rows, _out(cfg, "characters.csv"))
    print(f"characters: audited q <= {cfg.q_max}; "
          f"primitive-count formula matches enumeration")


def cmd_exceptions(cfg: ExperimentConfig) -> None:
    tables = arith.build_tables(cfg.x)
    Q = progressions.max_modulus(cfg.x)
    kind = cfg.moduli_kind
    S = arith.enumerate_moduli_set(Q, kind)
    records, summary = progressions.exception_scan(
        float(cfg.x), Q, cfg.A, S, tables
    )
    write_csv([r.as_row() for r in records], _out(cfg, "exceptions.csv"))
    write_json(summary, _out(cfg, "exceptions.json"))
    print(f"exceptions: x={cfg.x} Q={Q} |S|={len(S.members)} "
          f"exceptional={summary['count_exceptional']} "
          f"max_ratio={summary['max_ratio']:.4f}")


def cmd_hb_verify(cfg: ExperimentConfig) -> None:
    # mu and Lambda are read up to n_max; build_tables needs limit >= 2
    tables = arith.build_tables(max(cfg.hb_n_max, 2))
    report = heathbrown.verify_identity(float(cfg.hb_x), cfg.hb_n_max, tables)
    worst_n = report.parameters["worst_n"]
    if report.lhs > report.rhs_formula_value:
        raise AssertionError(
            f"identity residual {report.lhs:.3e} exceeds "
            f"{report.rhs_formula_value:.3e}"
        )
    grid_report = heathbrown.dyadic_grid_report(
        [float(2**k) for k in range(8, 21, 2)]
    )
    write_csv([report.as_row(), grid_report.as_row()], _out(cfg, "hb.csv"))
    print(f"hb-verify: x={cfg.hb_x} max residual={report.lhs:.3e} "
          f"(worst n={worst_n}); dyadic grid ratio={grid_report.ratio:.4f}")


def cmd_meanvalue(cfg: ExperimentConfig) -> None:
    jobs = [
        (Q, T, 2**k)
        for Q in cfg.q_values
        for T in cfg.t_values
        for k in range(cfg.n_min_exp, cfg.n_max_exp + 1)
    ]
    reports = []
    for Q, T, N in jobs:
        fam = dpoly.build_triple_family(Q, float(T), N, None, "unit", None)
        reports += [
            dpoly.mean_value_report(fam, x_scale=cfg.x_scale),
            dpoly.fourth_moment_report(Q, float(T), N, x_scale=cfg.x_scale),
            dpoly.derivative_second_moment_report(Q, float(T), N,
                                                  x_scale=cfg.x_scale),
        ]
    if any(not math.isfinite(r.ratio) for r in reports):
        raise AssertionError("non-finite mean-value ratio")
    write_csv([r.as_row() for r in reports], _out(cfg, "meanvalue.csv"))
    worst = max(r.ratio for r in reports)
    print(f"meanvalue: {len(jobs)} sweep points, {len(reports)} reports, "
          f"max ratio={worst:.4f}")


def cmd_lemma4(cfg: ExperimentConfig) -> None:
    def check(u) -> None:
        exponents.partition_exponents(u).verify(u)
        if exponents.partition_bruteforce(u) is None:
            raise AssertionError(f"oracle found no split for {u}")

    # streamed: the 1/80 grid alone has 5,185,774 tuples
    count = 0
    for u in exponents.grid_tuples(cfg.lemma4_grid_step):
        check(u)
        count += 1
    rng = random.Random(cfg.seed)
    for _ in range(cfg.random_count):
        check(exponents.random_exponent_tuple(rng))
    summary = {
        "grid_step": str(cfg.lemma4_grid_step),
        "grid_tuples": count,
        "random_tuples": cfg.random_count,
        "seed": cfg.seed,
        "all_verified": True,
    }
    write_json(summary, _out(cfg, "lemma4.json"))
    print(f"lemma4: {count} grid tuples + {cfg.random_count} random tuples, "
          f"constructive split and oracle agree everywhere")


def cmd_exponents(cfg: ExperimentConfig) -> None:
    result = exponents.polytope_scan(cfg.grid_step, theta=cfg.theta)
    write_json(result.to_json(), _out(cfg, "certificate.json"))
    ledger = exponents.logpower_ledger()
    write_json(ledger, _out(cfg, "logpower.json"))
    fr = {k: str(v) for k, v in exponents.published_fractions().items()}
    write_json(fr, _out(cfg, "fractions.json"))
    print(f"exponents: grid={cfg.grid_step} theta={cfg.theta} "
          f"tuples={result.tuple_count} passed={result.passed} "
          f"worst_slack={result.worst_slack} ledger_ok={ledger['ok']}")
    if not ledger["ok"]:
        raise AssertionError("log-power ledger failed")
    if cfg.theta <= exponents.THETA_MAX and not result.passed:
        raise AssertionError("exponent certificate failed in range")


def cmd_perron(cfg: ExperimentConfig) -> None:
    chi = characters.character_group(1)[0]
    P = dpoly.DirichletPolynomial(N=4, N_prime=8, kind="unit", chi=chi)
    results = perron.height_trend(
        [P], cfg.y, tuple(cfg.heights), rel_tol=cfg.rel_tol
    )
    write_csv([r.as_row() for r in results], _out(cfg, "perron.csv"))
    sigma_grid = [0.5 + 0.05 * k for k in range(11)]
    perron.horizontal_bound_check([P], sigma_grid, max(cfg.heights))
    errs = " ".join(f"{r.abs_error:.3e}" for r in results)
    print(f"perron: y={cfg.y} heights={cfg.heights} errors=[{errs}]")


def cmd_all(cfg: ExperimentConfig) -> None:
    """Every other command of ``_COMMANDS``, in the table's order."""
    for name, fn in _COMMANDS.items():
        if name != "all":
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
            "5 malformed config file"
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
        _validate(cfg)  # the command-line values too
        _COMMANDS[args.command](cfg)
    except (ConfigParseError, UnknownKeyError, InvalidValueError,
            AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_ASSERTION)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
