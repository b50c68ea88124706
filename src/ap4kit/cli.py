"""Command-line front end.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
input error (unreadable or unwritable files included).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from . import constructions as cons
from .apcount import apk_mean_zn
from .core import RngStream, load_signal, make_modulus, save_signal, write_text
from .errors import Ap4KitError
from .report import (
    VerificationReport,
    run_demo_quadratic,
    run_scaling,
    run_verify,
    save_report,
)
from .search import min_ap4_pm1, min_ap4_ternary, search_grid_designs
from .spectra import dft, save_spectrum_csv

# Importing numpy and the package leaves about 4,000 objects in the collector's
# young generations, all alive until the process exits; its next generation-1
# pass, due within a few hundred allocations, would scan them all (1-2 ms,
# inside the first command).  Freezing them keeps every later pass to the
# objects made since.
gc.freeze()


@functools.cache  # built once per process: several commands can run in one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ap4kit",
        description="Construct, count and verify sign patterns on Z_n with scarce 4-term progressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--out", type=str, default=None, help="write the JSON report here")

    p_scaling = sub.add_parser("scaling", help="normalized-series measurements across moduli")
    p_scaling.add_argument("--n-list", type=str, required=True, help="comma-separated primes")
    p_scaling.add_argument("--out", type=str, default=None)

    p_demo = sub.add_parser("demo-quad", help="quadratic level-set progression counts")
    p_demo.add_argument("--n", type=int, required=True)
    p_demo.add_argument("--c", type=float, required=True)
    p_demo.add_argument("--out", type=str, default=None)

    p_spec = sub.add_parser("spectrum", help="export a construction's spectrum as CSV")
    p_spec.add_argument("--construction", choices=("F", "G", "P"), required=True)
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--csv", type=str, required=True)

    p_build = sub.add_parser("build", help="build a construction and write the signal JSON")
    p_build.add_argument(
        "--construction", choices=("F", "G", "P", "A", "quad_levelset"), required=True
    )
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--seed", type=int, default=None, help="A only (default 42)")
    p_build.add_argument("--c", type=float, default=None, help="quad_levelset only (default 0.05)")
    p_build.add_argument("--out", type=str, required=True)

    p_count = sub.add_parser("count", help="k-term progression mean of a signal file")
    p_count.add_argument("--file", type=str, required=True)
    p_count.add_argument("--k", type=int, choices=(3, 4, 5), default=4)

    p_search = sub.add_parser("search", help="exhaustive searches")
    p_search.add_argument("space", choices=("grid", "pm1", "ternary"))
    p_search.add_argument("--n", type=int, default=None)
    p_search.add_argument(
        "--max-results", type=int, default=0, help="grid only: stop after this many (0 = all)"
    )
    p_search.add_argument("--out", type=str, default=None)

    return parser


_BUILDERS = {
    "F": cons.build_interval_signal,
    "G": cons.build_modulated_signal,
    "P": cons.build_probability_signal,
}


def _print_report(report: VerificationReport) -> None:
    for check in report.checks:
        if check.skipped:
            status = "SKIP"
        else:
            status = "PASS" if check.passed else "FAIL"
        extra = " (vacuous at this n)" if check.vacuous_at_this_n else ""
        print(f"[{status}] {check.name}{extra}")
    print(f"result: {'PASS' if report.passed() else 'FAIL'}")


def _finish_report(report: VerificationReport, out: str | None) -> int:
    _print_report(report)
    if out:
        save_report(report, out)
        print(f"report written to {out}")
    return 0 if report.passed() else 1


def _cmd_search(args) -> int:
    if args.space == "grid":
        if args.n is not None:
            raise ValueError("--n applies to search pm1/ternary only")
        designs = search_grid_designs(args.max_results)
        n, best = 4, None
        witnesses = [sorted(list(p) for p in d.points) for d in designs]
        # a capped search that found fewer designs than the cap ran to the end
        exhaustive = args.max_results == 0 or len(designs) < args.max_results
        print(f"{len(designs)} valid designs")
    else:
        if args.n is None:
            raise ValueError("search pm1/ternary requires --n")
        if args.max_results:
            raise ValueError("--max-results applies to search grid only")
        result = min_ap4_pm1(args.n) if args.space == "pm1" else min_ap4_ternary(args.n)
        n, best, exhaustive = args.n, result.best_value, result.exhaustive
        witnesses = [list(w) for w in result.witnesses]
        print(
            f"minimum {result.best_value} over {result.nodes_explored} assignments, "
            f"{len(result.witnesses)} witnesses"
        )
    payload = {
        "space": args.space,
        "n": n,
        "min": best,
        "witnesses": witnesses,
        "exhaustive": exhaustive,
    }
    if args.out:
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"results written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _finish_report(run_verify(args.n, args.seed, args.trials), args.out)
        if args.command == "scaling":
            n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
            return _finish_report(run_scaling(n_list), args.out)
        if args.command == "demo-quad":
            return _finish_report(run_demo_quadratic(args.n, args.c), args.out)
        if args.command == "spectrum":
            m = make_modulus(args.n)
            signal = _BUILDERS[args.construction](m)
            save_spectrum_csv(dft(signal), args.csv)
            print(f"spectrum of {args.construction} at n={args.n} written to {args.csv}")
            return 0
        if args.command == "build":
            if args.seed is not None and args.construction != "A":
                raise ValueError("--seed applies to build --construction A only")
            if args.c is not None and args.construction != "quad_levelset":
                raise ValueError("--c applies to build --construction quad_levelset only")
            m = make_modulus(args.n)
            if args.construction == "A":
                probs = cons.build_probability_signal(m)
                seed = 42 if args.seed is None else args.seed
                signal = cons.sample_indicator(probs, RngStream(seed))
            elif args.construction == "quad_levelset":
                signal = cons.quadratic_level_set(m, 0.05 if args.c is None else args.c)
            else:
                signal = _BUILDERS[args.construction](m)
            save_signal(signal, args.out)
            print(f"{args.construction} at n={args.n} written to {args.out}")
            return 0
        if args.command == "count":
            signal = load_signal(args.file)
            mean = apk_mean_zn([signal] * args.k)
            print(f"k={args.k} mean: {mean.value:.17g}")
            if mean.exact_numerator is not None:
                print(f"exact numerator: {mean.exact_numerator} / {mean.pair_count}")
            return 0
        if args.command == "search":
            return _cmd_search(args)
    except (Ap4KitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a modulus inside the supported range can still need more memory
        # than the host has; that is an input error, not a failed check
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces a known command


if __name__ == "__main__":
    sys.exit(main())
