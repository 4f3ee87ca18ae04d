"""Regenerate references.json from the repo's oracles.

    PYTHONPATH=src python3 perfbench/make_references.py

Run from the repository root on the commit whose outputs are the
reference. Every value comes from a brute-force oracle or an exact route
where the repo has one (e_star_bruteforce, e_dagger_bruteforce,
exact_partial_sum_bruteforce, direct re-evaluation of |S| at every triple,
the Fraction polytope scan). The float moment reports and the contour
approximations have no oracle and are recorded as the commit computed them.
Takes a few minutes and about 1 GB of memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bvlab import arith, characters, cli, dpoly, exponents, perron, progressions  # noqa: E402

import workloads as W  # noqa: E402


def scan_refs() -> dict:
    tables = arith.build_tables(W.SCAN_X)
    return {
        "e_star_bruteforce": {str(q): progressions.e_star_bruteforce(W.SCAN_X, q, tables)
                              for q in W.SCAN_POOL},
        "e_dagger_bruteforce": progressions.e_dagger_bruteforce(W.SCAN_X, W.DAGGER_Q, tables),
    }


def moments_refs() -> dict:
    bench = W.Moments()
    bench.setup(None)
    tables = bench.tables
    inp = bench.inputs(0)
    reports, brute_abs = {}, {}
    for Q, N in W.MOMENT_FAMILIES:
        key = f"{Q} {N}"
        fam = dpoly.build_triple_family(Q, W.MOMENT_T, N, None, "unit", tables)
        reports[f"mean-value {key}"] = dpoly.mean_value_report(fam).lhs
        reports[f"fourth-moment {key}"] = dpoly.fourth_moment_report(
            Q, W.MOMENT_T, N, tables).lhs
        # the oracle's own route: |S| re-evaluated from scratch per triple
        vals = sorted(abs(P.eval(t, sigma=fam.sigma))
                      for P, J in zip(fam.polynomials, fam.spaced_sets)
                      for t in J.points)
        V = inp["levels"][Q, N]
        assert sum(a >= V for a in vals) == dpoly.large_value_count_bruteforce(fam, V)
        brute_abs[key] = vals
    reports["derivative"] = dpoly.derivative_second_moment_report(
        *W.DERIVATIVE, tables).lhs
    trend = perron.height_trend([inp["desk"]], W.PERRON_Y, W.TREND_HEIGHTS)
    exact = perron.exact_partial_sum_bruteforce([inp["desk"]], W.PERRON_Y)
    sums = {label: perron.exact_partial_sum_bruteforce(family, W.PERRON_Y)
            for label, family in inp["families"]}
    return {
        "reports": reports,
        "brute_abs": brute_abs,
        "height_trend": {"exact": exact.real if exact.imag == 0 else None,
                         "approx": [[r.approx.real, r.approx.imag] for r in trend]},
        "exact_sums": {k: [v.real, v.imag] for k, v in sums.items()},
    }


def certify_refs() -> dict:
    return {
        "scans": {str(th): W.scan_fields(exponents.polytope_scan(W.SCAN_STEP, theta=th))
                  for th in W.SCAN_THETAS},
        "probe": W.scan_fields(exponents.polytope_scan(W.PROBE[0], theta=W.PROBE[1])),
        "ledger": exponents.logpower_ledger(),
        "fractions": {k: str(v) for k, v in exponents.published_fractions().items()},
    }


def pipeline_refs() -> dict:
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="references-", dir=scratch)
    try:
        with open(os.path.join(HERE, "pipeline.ini")) as fh:
            text = fh.read().format(seed=0, output_dir=work,
                                    table_cache=os.path.join(work, "tables.bin"))
        cfg_path = os.path.join(work, "pipeline.ini")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["all", "--config", cfg_path]) == 0
        cfg = cli.parse_config_file(cfg_path)

        def load(name):
            with open(os.path.join(work, name)) as fh:
                return json.load(fh)

        with open(os.path.join(work, "meanvalue.csv"), newline="") as fh:
            meanvalue = [{"label": r["label"], "lhs": float(r["lhs"])}
                         for r in csv.DictReader(fh)]
        sieve = load("sieve.json")
        tables = arith.build_tables(cfg.x)
        Q = int(math.floor(cfg.x ** (9 / 40)))
        moduli = arith.enumerate_moduli_set(Q, cfg.moduli_kind).members
        chi = characters.character_group(1)[0]
        desk = dpoly.DirichletPolynomial(N=4, N_prime=8, kind="unit", chi=chi)
        desk.attach_tables(tables)
        exact = perron.exact_partial_sum_bruteforce([desk], cfg.y)
        trend = perron.height_trend([desk], cfg.y, tuple(cfg.heights),
                                    rel_tol=cfg.rel_tol)
        return {
            "sieve": {k: sieve[k] for k in ("limit", "primes", "psi_at_limit")},
            "q_max": cfg.q_max,
            "e_star_bruteforce": {str(q): progressions.e_star_bruteforce(cfg.x, q, tables)
                                  for q in moduli},
            "meanvalue": meanvalue,
            "lemma4_grid_tuples": load("lemma4.json")["grid_tuples"],
            "certificate": load("certificate.json"),
            "logpower": load("logpower.json"),
            "fractions": load("fractions.json"),
            "perron": [{"exact": [exact.real, exact.imag],
                        "approx": [r.approx.real, r.approx.imag]} for r in trend],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    refs = {
        "command": "PYTHONPATH=src python3 perfbench/make_references.py",
        "scan": scan_refs(),
        "moments": moments_refs(),
        "certify": certify_refs(),
        "pipeline": pipeline_refs(),
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
