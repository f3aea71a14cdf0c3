"""Command-line interface: compute generating functions, tabulate raw
path counts, and run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error (any
config.UsageError), 3 internal error: a cross-method mismatch or any
other exception, its traceback on stderr (never expected).

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
import enum
import sys

from . import __version__
from .config import SUITE_NAMES, UsageError
from .genfun import GenSpec


class Convention(enum.Enum):
    """Unit systems for reporting exponents.

    STEP_PLAQUETTE: length in single steps, area in plaquettes (the
    internal representation; always integer exponents).
    DOUBLE_STEP_DIAMOND: length in step pairs, area in diamonds; both
    exponents are halved and may be half-integers.
    """

    STEP_PLAQUETTE = "step-plaquette"
    DOUBLE_STEP_DIAMOND = "double-step-diamond"


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


def _parse_spec_flags(args):
    """The ceiling from --k (None for 'inf') and the spec echoed in the
    output, after checking --max-len."""
    k = _parse_k(args.k)
    if args.max_len < 0:
        raise UsageError("--max-len must be >= 0")
    return k, {"k": "inf" if k is None else k, "m": args.m, "n": args.n,
               "max_len": args.max_len}


def _dec_exp(obj, halve):
    if isinstance(obj, dict):
        return obj["twice"]
    return obj * 2 if halve else obj


def _enc_exp_csv(v, halve):
    if not halve:
        return str(v)
    return str(v // 2) if v % 2 == 0 else f"{v}/2"


# the JSON document up to its "terms" value, and one term of that list,
# at the indent json.dumps(doc, indent=2) gives them; every value in the
# head is an int or a plain ASCII string
_HEAD = ('{{\n  "spec": {{\n{}\n  }},\n  "convention": "{}",\n'
         '  "method": "{}",\n  "version": "{}",\n  "terms": ')
_TERM = ('    {{\n      "l": {},\n      "A": {},\n{}      "coeff": {{\n'
         '        "num": "{}",\n        "den": "{}"\n      }}\n    }}')


def _exp_json(v, halve):
    """Exponent as JSON text at a term's key depth: in halved units an
    exact half-integer becomes the block {"twice": 2v}."""
    if halve and v % 2:
        return '{\n        "twice": %d\n      }' % v
    return str(v // 2 if halve else v)


def _series_terms(full):
    """Flatten a series into sorted (l, A, s-or-None, coeff) tuples."""
    from .exact import TPoly
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
    if args.format == "json":
        spec = ",\n".join(
            f'    "{key}": ' + (f'"{v}"' if isinstance(v, str) else str(v))
            for key, v in spec_echo.items())
        out = _HEAD.format(spec, args.convention, method, __version__)
        if terms:
            body = ",\n".join(_TERM.format(
                _exp_json(l, halve), _exp_json(a, halve),
                "" if s is None else f'      "s": {s},\n',
                c.numerator, c.denominator) for l, a, s, c in terms)
            out += "[\n" + body + "\n  ]\n}\n"
        else:
            out += "[]\n}\n"
        sys.stdout.write(out)
        return 0
    # no field needs CSV quoting: each is a name, an int or "p/2"
    with_s = any(s is not None for _, _, s, _ in terms)
    tail = [count_label] if count_label else ["num", "den"]
    lines = [",".join(["l", "A"] + (["s"] if with_s else []) + tail)]
    for l, a, s, c in terms:
        row = [_enc_exp_csv(l, halve), _enc_exp_csv(a, halve)]
        if with_s:
            row.append(str(s))
        row.append(str(c.numerator))
        if not count_label:
            row.append(str(c.denominator))
        lines.append(",".join(row))
    lines.append("")
    sys.stdout.write("\n".join(lines))
    return 0


def _via_cluster(spec):
    from .cluster import genfun_via_cluster
    return genfun_via_cluster(spec)


def cmd_genfun(args):
    # each route's module is imported here, so a job loads only those
    # of the routes it runs
    k, spec_echo = _parse_spec_flags(args)
    m, n, order = args.m, args.n, args.max_len
    if args.touchdown:
        if args.method != "determinant":
            raise UsageError(
                "--touchdown supports only --method determinant")
        from .touchdown import tilde_genfun, tilde_genfun_ratio
        routes = {
            "determinant": lambda: tilde_genfun(k, m, n, order).full_series(),
            "ratio": lambda: tilde_genfun_ratio(k, m, n, order).full_series()}
    else:
        from .genfun import continued_fraction, genfun
        spec = GenSpec(k, m, n, order)
        routes = {"determinant": lambda: genfun(spec).full_series(),
                  "cluster-exp": lambda: _via_cluster(spec)}
        if m == n == 0:
            routes["continued-fraction"] = (
                lambda: continued_fraction(spec.ceiling, spec.order))
        if args.method not in routes:
            raise UsageError(
                f"--method {args.method} needs m = n = 0 (floor excursions)")
    full = routes[args.method]()
    if args.check:
        for name, fn in routes.items():
            if name != args.method and fn() != full:
                print(f"internal mismatch: {args.method} vs {name}",
                      file=sys.stderr)
                return 3
    return _emit(args, spec_echo, args.method, _series_terms(full))


def cmd_table(args):
    from .oracle import enumerate_paths, genfun_from_table
    k, spec_echo = _parse_spec_flags(args)
    ceiling = GenSpec(k, args.m, args.n, args.max_len).ceiling
    table = enumerate_paths(ceiling, args.m, args.n, args.max_len)
    full = genfun_from_table(table, with_touchdowns=args.touchdowns)
    return _emit(args, spec_echo, "oracle", _series_terms(full),
                 count_label="count")


def table_from_json(doc):
    """Rebuild a PathTable from cmd_table JSON output (round-trip
    helper; requires touchdown-resolved terms)."""
    from .oracle import PathTable
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
    ceiling = GenSpec(k, m, n, l_max).ceiling   # clamped when finite
    return PathTable(ceiling if k is None else k, m, n, l_max, counts)


def cmd_verify(args):
    from .verify import run_suites
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
    except Exception:
        import traceback   # off the start-up path of every job
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
