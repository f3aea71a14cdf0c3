"""Command-line interface: compute generating functions, tabulate raw
path counts, and run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error (any
config.UsageError), 3 internal cross-method mismatch (never expected).

JSON payloads keep a stable shape: {"spec": {...}, "convention": str,
"method": str, "version": str, "terms": [...]}, each term carrying "l",
"A", optionally "s", and "coeff": {"num": str, "den": str}.  Exponents
are integers in the step-plaquette convention; the double-step-diamond
convention halves them and encodes a half-integer value v as
{"twice": 2v}.  CSV output mirrors the same rows with "p/2" strings for
half-integers, one header row, UTF-8, LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .cluster import genfun_via_cluster
from .config import UsageError
from .exact import Convention, TPoly
from .genfun import GenSpec, continued_fraction, genfun
from .oracle import PathTable, enumerate_paths
from .touchdown import tilde_genfun, tilde_genfun_ratio
from .verify import SUITE_NAMES, run_suites


def _parse_k(text):
    if text == "inf":
        return None
    try:
        k = int(text)
    except ValueError:
        raise UsageError(f"--k must be an integer or 'inf', got {text!r}")
    if k < 0:
        raise UsageError("--k must be >= 0")
    return k


def _enc_exp(v, halve):
    """Exponent for JSON: exact half-integers become {"twice": int}."""
    if not halve:
        return v
    if v % 2 == 0:
        return v // 2
    return {"twice": v}


def _dec_exp(obj, halve):
    if isinstance(obj, dict):
        return obj["twice"]
    return obj * 2 if halve else obj


def _enc_exp_csv(v, halve):
    if not halve:
        return str(v)
    return str(v // 2) if v % 2 == 0 else f"{v}/2"


def _coeff_json(c):
    f = Fraction(c)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _series_terms(full):
    """Flatten a series into sorted (l, A, s-or-None, coeff) tuples."""
    out = []
    for l, v in full.nonzero_terms():
        if isinstance(v, TPoly):
            for s, ql in v.terms():
                for a, c in ql.terms():
                    out.append((l, a, s, c))
        else:
            for a, c in v.terms():
                out.append((l, a, None, c))
    out.sort(key=lambda t: (t[0], t[1], t[2] if t[2] is not None else 0))
    return out


def _emit(args, spec_echo, method, terms, count_label=None):
    halve = args.convention == Convention.DOUBLE_STEP_DIAMOND.value
    with_s = any(s is not None for _, _, s, _ in terms)
    if args.format == "json":
        jterms = []
        for l, a, s, c in terms:
            t = {"l": _enc_exp(l, halve), "A": _enc_exp(a, halve)}
            if s is not None:
                t["s"] = s
            t["coeff"] = _coeff_json(c)
            jterms.append(t)
        doc = {"spec": spec_echo, "convention": args.convention,
               "method": method, "version": __version__, "terms": jterms}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    tail = [count_label] if count_label else ["num", "den"]
    writer.writerow(["l", "A"] + (["s"] if with_s else []) + tail)
    for l, a, s, c in terms:
        row = [_enc_exp_csv(l, halve), _enc_exp_csv(a, halve)]
        if with_s:
            row.append(str(s))
        f = Fraction(c)
        if count_label:
            row.append(str(f.numerator))
        else:
            row.extend([str(f.numerator), str(f.denominator)])
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())
    return 0


def cmd_genfun(args):
    k = _parse_k(args.k)
    if args.max_len < 0:
        raise UsageError("--max-len must be >= 0")
    spec_echo = {"k": "inf" if k is None else k, "m": args.m, "n": args.n,
                 "max_len": args.max_len}
    if args.touchdown:
        if args.method != "determinant":
            raise UsageError(
                "--touchdown supports only --method determinant")
        main_ts = tilde_genfun(k, args.m, args.n, args.max_len)
        full = main_ts.full_series()
        if args.check:
            other = tilde_genfun_ratio(k, args.m, args.n, args.max_len)
            if other.series != main_ts.series:
                print("internal mismatch: determinant vs ratio route",
                      file=sys.stderr)
                return 3
        return _emit(args, spec_echo, "determinant", _series_terms(full))
    spec = GenSpec(k, args.m, args.n, args.max_len)
    routes = {"determinant": lambda: genfun(spec).full_series(),
              "cluster-exp": lambda: genfun_via_cluster(spec)}
    if args.m == args.n == 0:
        routes["continued-fraction"] = (
            lambda: continued_fraction(spec.ceiling, spec.order))
    if args.method not in routes:
        raise UsageError(
            f"--method {args.method} needs m = n = 0 (floor excursions)")
    full = routes[args.method]()
    if args.check:
        for name, fn in routes.items():
            if name == args.method:
                continue
            if fn() != full:
                print(f"internal mismatch: {args.method} vs {name}",
                      file=sys.stderr)
                return 3
    return _emit(args, spec_echo, args.method, _series_terms(full))


def cmd_table(args):
    k = _parse_k(args.k)
    if args.max_len < 0:
        raise UsageError("--max-len must be >= 0")
    ceiling = GenSpec(k, args.m, args.n, args.max_len).ceiling
    table = enumerate_paths(ceiling, args.m, args.n, args.max_len)
    spec_echo = {"k": "inf" if k is None else k, "m": args.m, "n": args.n,
                 "max_len": args.max_len}
    if args.touchdowns:
        terms = [(l, a, s, c) for (l, a, s), c in table.sorted_items()]
    else:
        merged = {}
        for (l, a, _), c in table.sorted_items():
            merged[(l, a)] = merged.get((l, a), 0) + c
        terms = [(l, a, None, c) for (l, a), c in sorted(merged.items())]
    return _emit(args, spec_echo, "oracle", terms, count_label="count")


def table_from_json(doc):
    """Rebuild a PathTable from cmd_table JSON output (round-trip
    helper; requires touchdown-resolved terms)."""
    halve = doc["convention"] == Convention.DOUBLE_STEP_DIAMOND.value
    spec = doc["spec"]
    k = None if spec["k"] == "inf" else spec["k"]
    m, n, l_max = spec["m"], spec["n"], spec["max_len"]
    counts = {}
    for t in doc["terms"]:
        if t["coeff"]["den"] != "1":
            raise ValueError("path counts must be integers")
        key = (_dec_exp(t["l"], halve), _dec_exp(t["A"], halve), t["s"])
        counts[key] = counts.get(key, 0) + int(t["coeff"]["num"])
    return PathTable(GenSpec(k, m, n, l_max).ceiling, m, n, l_max, counts)


def cmd_verify(args):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, args.k_max, args.len_max)
    failures = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.suite}/{r.name} {r.params}")
        else:
            failures += 1
            detail = f": {r.detail}" if r.detail else ""
            print(f"FAIL {r.suite}/{r.name} {r.params}{detail}")
    print(f"{len(results)} checks, {failures} failures")
    return 1 if failures else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="dyckgen",
        description="Exact length-and-area generating functions for "
                    "height-restricted up-down lattice paths.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k", required=True,
                        help="ceiling height, or 'inf' for unbounded")
        sp.add_argument("--m", type=int, required=True, help="start height")
        sp.add_argument("--n", type=int, required=True, help="end height")
        sp.add_argument("--max-len", type=int, required=True,
                        dest="max_len", help="truncation order in steps")
        sp.add_argument("--convention",
                        choices=[c.value for c in Convention],
                        default=Convention.STEP_PLAQUETTE.value)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    g = sub.add_parser("genfun",
                       help="closed-form generating function coefficients")
    common(g)
    g.add_argument("--touchdown", action="store_true",
                   help="mark floor returns with the t variable")
    g.add_argument("--method",
                   choices=("determinant", "continued-fraction",
                            "cluster-exp"),
                   default="determinant")
    g.add_argument("--check", action="store_true",
                   help="recompute via every applicable method and fail "
                        "with exit code 3 on any mismatch")
    g.set_defaults(func=cmd_genfun)

    t = sub.add_parser("table", help="brute-force path count table")
    common(t)
    t.add_argument("--touchdowns", action="store_true",
                   help="keep counts resolved by number of floor returns")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run exact identity suites")
    v.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    v.add_argument("--k-max", type=int, default=None, dest="k_max")
    v.add_argument("--len-max", type=int, default=None, dest="len_max")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
