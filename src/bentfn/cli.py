"""Command-line surface.

Verbs: construct (build a family member and write its truth table),
analyze (report on a truth-table file), msubspace (linearity index and
M-subspace listings), decompose (restriction classification for one
plane or a full scan), verify (run the verification battery).

Reports are line-oriented `key: value` text; `--json` switches any
command to a single JSON object on stdout.  Exit codes: 0 success,
1 verification failure, 2 parameter error, 3 parse error, 4 resource
guard, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError, ParameterError, ParseError, ResourceError

if TYPE_CHECKING:
    from .boolfn import BoolFn
    from .construct import SubfieldFn

# Each command imports the library modules it runs inside its own
# function, so a fresh process executes only those (see bentfn/__init__).


def _plain(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, val in report.items():
        if isinstance(val, dict):
            for k2, v2 in val.items():
                print(f"{key}.{k2}: {_plain(v2)}")
        elif isinstance(val, list):
            for item in val:
                print(f"{key}: {_plain(item)}")
        else:
            print(f"{key}: {_plain(val)}")


def _int_arg(text: str) -> int:
    return int(text, 0)


def _parse_perm(spec: str, ctx):
    """Permutation option: identity, inverse, gold:<k>, or a file path."""
    from .construct import PermTable, load_perm

    if spec == "identity":
        return PermTable.identity(ctx.m)
    if spec == "inverse":
        return PermTable.inverse_map(ctx)
    if spec.startswith("gold:"):
        try:
            k = int(spec[5:])
        except ValueError:
            raise ParameterError(f"gold:<k> needs an integer k, got {spec!r}") from None
        return PermTable.gold(ctx, k)
    return load_perm(spec)


def _parse_subfield_fn(spec: str, ctx, k: int) -> SubfieldFn:
    """Subfield-function option: trace, identity, or a file path."""
    from .construct import SubfieldFn, load_subfield_fn

    if spec == "trace":
        return SubfieldFn.trace_form(ctx, k)
    if spec == "identity":
        return SubfieldFn.identity_perm(ctx, k)
    return load_subfield_fn(ctx, spec)


def _build_family(args) -> BoolFn:
    from .boolfn import _MAX_N
    from .construct import (PermTable, _seeded_mm, build_cor_ex, gmm, gpsap,
                            gpsap_trace_form, mm, psap)
    from .gf2 import make_field, validate_gps_params
    from .rng import XorShift64Star

    fam = args.family
    if args.c0 and fam != "gpsap":
        raise ParameterError(f"--c0 applies to --family gpsap only, not {fam}")
    # refused before building: a table above n = 16 fits no .tt file, and
    # at m = 16 it would take 4 GiB
    extra = {"gmm": args.k, "cor-ex1": args.k, "cor-ex2": args.k,
             "psffff": 1, "partition": 1}.get(fam, 0)
    n = 2 * (args.m + extra)
    if n > _MAX_N:
        raise ParameterError(f"--family {fam} at m={args.m} has n={n} variables; "
                             f"truth tables hold n <= {_MAX_N}")
    if fam == "mm":
        ctx = make_field(args.m)
        if args.perm == "random":
            rng = XorShift64Star(args.seed)
            tbl = list(range(ctx.size))
            rng.shuffle(tbl)
            pi = PermTable(args.m, tbl)
        else:
            pi = _parse_perm(args.perm, ctx)
        return mm(ctx, pi)
    if fam == "gmm":
        ck = make_field(args.k)
        rng = XorShift64Star(args.seed)
        return gmm(ck, args.k, [_seeded_mm(2 * args.m, rng) for _ in range(1 << args.k)])
    if fam == "psap":
        ctx = make_field(args.m)
        return psap(ctx, _parse_subfield_fn(args.P, ctx, args.m))
    if fam == "gpsap":
        ctx = make_field(args.m)
        pr = validate_gps_params(args.m, args.k, args.e)
        P = _parse_subfield_fn(args.P, ctx, args.k)
        return gpsap(ctx, pr, P, args.c0, args.orientation)
    if fam == "gpsap-trace":
        ctx = make_field(args.m)
        pr = validate_gps_params(args.m, args.k, args.e)
        return gpsap_trace_form(ctx, pr, _parse_perm(args.Q, ctx))
    if fam == "cor-ex1":
        return build_cor_ex(make_field(args.m), args.m, args.k, "inverse")
    if fam == "cor-ex2":
        return build_cor_ex(make_field(args.m), args.m, args.k, "gold",
                            gold_k=args.gold_k)
    if fam == "psffff":
        from .decomp import psffff
        ctx = make_field(args.m)
        P = _parse_subfield_fn(args.P, ctx, args.k)
        return psffff(ctx, args.m, args.k, P, args.alpha, args.beta,
                      args.gamma)
    if fam == "partition":
        from .decomp import _odd_quadruple_assignment, partition_bent
        ctx = make_field(args.m)
        pr = validate_gps_params(args.m, args.k, args.e)
        return partition_bent(ctx, pr, _odd_quadruple_assignment(ctx, args.k))
    raise ParameterError(f"unknown family {fam!r}")


def cmd_construct(args) -> int:
    from .boolfn import anf_degree, is_bent, save_table

    f = _build_family(args)
    out = args.out or f"{args.family.replace('-', '_')}_n{f.n}.tt"
    save_table(f, out)
    report = {
        "family": args.family,
        "n": f.n,
        "weight": f.weight(),
        "bent": is_bent(f),
        "degree": anf_degree(f),
        "out": out,
    }
    _emit(report, args.json)
    return 0


def _analyze_report(f: BoolFn, path: str) -> dict:
    from .boolfn import (anf_degree, dual, ext_walsh_spectrum, is_balanced,
                         is_bent, plateaued_order, save_table)

    report: dict = {
        "n": f.n,
        "degree": anf_degree(f),
        "balanced": is_balanced(f),
        "bent": is_bent(f),
    }
    s = plateaued_order(f)
    report["plateaued"] = s if s is not None else "no"
    hist = ext_walsh_spectrum(f)
    report["spectrum"] = {str(v): hist[v] for v in sorted(hist)}
    if report["bent"]:
        dual_path = str(Path(path).with_suffix(".dual.tt"))
        save_table(dual(f), dual_path)
        report["dual"] = dual_path
    return report


def cmd_analyze(args) -> int:
    from .boolfn import load_table

    f = load_table(args.path)
    _emit(_analyze_report(f, args.path), args.json)
    return 0


def cmd_msubspace(args) -> int:
    from .boolfn import load_table
    from .derivative import _index_search, enumerate_M_subspaces

    f = load_table(args.path)
    res = _index_search(f, args.max_dim, args.threads)
    report: dict = {"n": f.n, "index": res.best}
    if res.best:
        if args.find_all:
            bases = [U.basis for U in enumerate_M_subspaces(f, res.best, threads=args.threads)]
        else:
            # the search's least chain, reversed: its subspace's reduced
            # echelon basis, as enumerate_M_subspaces reads it
            bases = [res.witness[::-1]]
        report["count"] = len(bases)
        report["subspace"] = [" ".join(f"{b:#x}" for b in basis) for basis in bases]
    _emit(report, args.json)
    return 0


def cmd_decompose(args) -> int:
    import numpy as np

    from .boolfn import load_table
    from .decomp import CLASSES, classify_decomposition, save_scan, scan_decompositions

    f = load_table(args.path)
    if args.scan:
        try:
            scan = scan_decompositions(f, allow_large=args.allow_large)
        except ResourceError as exc:
            raise ResourceError(f"{exc} (rerun with --allow-large)") from exc
        out = args.out or str(Path(args.path).with_suffix(".scan.csv"))
        save_scan(scan, out)
        counts = np.bincount(scan.codes, minlength=len(CLASSES))
        report = {
            "n": f.n,
            "planes": len(scan),
            "classes": dict(sorted((CLASSES[c], int(k)) for c, k in enumerate(counts) if k)),
            "out": out,
        }
        _emit(report, args.json)
        return 0
    if args.u is None or args.v is None:
        raise ParameterError("decompose needs --u and --v, or --scan")
    rep = classify_decomposition(f, args.u, args.v)
    report = {
        "u": rep.u,
        "v": rep.v,
        "classification": rep.classification,
        "cosets": list(rep.statuses),
        "dual_second_derivative": rep.dual_second_derivative,
    }
    _emit(report, args.json)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.level, seed=args.seed)
    ok = all(r.passed for r in results)
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "level": args.level,
            "seed": args.seed,
            "criteria": [{
                "id": r.cid, "name": r.name, "pass": r.passed,
                "seconds": round(r.seconds, 3), "detail": r.detail,
            } for r in results],
            "pass": ok,
        }, indent=2))
    else:
        print(f"suite: {args.suite}")
        print(f"level: {args.level}")
        print(f"seed: {args.seed}")
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            print(f"criterion {r.cid:02d} {r.name}: {tag} "
                  f"({r.seconds:.2f}s) {r.detail}")
        passed = sum(r.passed for r in results)
        print(f"result: {'PASS' if ok else 'FAIL'} ({passed}/{len(results)})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bentfn",
        description="Construct and analyze bent functions over small "
                    "binary fields.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_int_arg, default=0,
                        help="seed for the documented xorshift generator")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker count for the msubspace search; other "
                             "verbs accept it and ignore it (default: 1)")
        sp.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of key: value lines")

    c = sub.add_parser("construct", help="build a family member")
    c.add_argument("--family", required=True,
                   choices=["mm", "gmm", "psap", "gpsap", "gpsap-trace",
                            "cor-ex1", "cor-ex2", "psffff", "partition"])
    c.add_argument("--m", type=int, required=True, help="field degree")
    c.add_argument("--k", type=int, default=1, help="subfield degree")
    c.add_argument("--e", type=_int_arg, default=1,
                   help="spread exponent (power of 2 modulo 2^k - 1)")
    c.add_argument("--P", default="trace",
                   help="subfield function: trace, identity, or a file")
    c.add_argument("--Q", default="identity",
                   help="field permutation: identity, inverse, gold:<k>, "
                        "or a file")
    c.add_argument("--perm", default="inverse",
                   help="two-block permutation: identity, inverse, "
                        "gold:<k>, random, or a file")
    c.add_argument("--c0", type=int, default=0, choices=[0, 1],
                   help="constant on the special spread line")
    c.add_argument("--orientation", default="f", choices=["f", "g"],
                   help="which argument carries the spread indicator")
    c.add_argument("--gold-k", type=int, default=1,
                   help="power-map parameter for cor-ex2")
    c.add_argument("--alpha", type=_int_arg, default=1)
    c.add_argument("--beta", type=_int_arg, default=1)
    c.add_argument("--gamma", type=_int_arg, default=1)
    c.add_argument("--out", help="truth-table output path "
                                 "(default <family>_n<n>.tt)")
    common(c)
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="report on a truth-table file")
    a.add_argument("path")
    common(a)
    a.set_defaults(func=cmd_analyze)

    ms = sub.add_parser("msubspace", help="linearity index and M-subspaces")
    ms.add_argument("path")
    ms.add_argument("--max-dim", type=int, default=None,
                    help="cap the subspace dimension searched")
    ms.add_argument("--find-all", action="store_true",
                    help="list every subspace at the index dimension")
    common(ms)
    ms.set_defaults(func=cmd_msubspace)

    d = sub.add_parser("decompose", help="classify coset restrictions")
    d.add_argument("path")
    d.add_argument("--u", type=_int_arg, default=None)
    d.add_argument("--v", type=_int_arg, default=None)
    d.add_argument("--scan", action="store_true",
                   help="classify every plane of directions")
    d.add_argument("--allow-large", action="store_true",
                   help="lift the scan guard above 12 variables")
    d.add_argument("--out", help="scan CSV path (default <input>.scan.csv)")
    common(d)
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="run the verification battery")
    v.add_argument("--suite", default="paper", choices=["paper"])
    v.add_argument("--level", default="fast", choices=["fast", "full"])
    common(v)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ParameterError(f"--threads must be at least 1, got {args.threads}")
        code = args.func(args)
        sys.stdout.flush()   # a reader that went away shows here
        return code
    except BrokenPipeError:
        # quiet, with the code a shell gives a filter that SIGPIPE ended;
        # stdout goes to /dev/null so the flush at exit prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + 13
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
