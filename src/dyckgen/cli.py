"""Command-line interface: compute generating functions, tabulate raw
path counts, and run the verification suites.

Arguments are read by parse_args from one table, COMMANDS, that gives
each command its options; -h or --help prints the usage built from the
same table.  Flags are spelled out in full (never abbreviated) and come
in any order, as `--flag value` or `--flag=value`; a repeated flag keeps
its last value.  A cold job imports only the standard library modules
it needs: no argparse, and no fractions while its values stay integral.

Exit codes: 0 success (stdout's reader gone included), 1 verification
failure, 2 usage error (any config.UsageError, malformed arguments included:
"error: ..." on stderr, naming the flag), 3 internal error: a cross-method
mismatch or any other exception, its traceback on stderr (never expected).

JSON payloads keep a stable shape: {"spec": {...}, "convention": str,
"method": str, "version": str, "terms": [...]}, each term carrying "l",
"A", optionally "s", and "coeff": {"num": str, "den": str}.  Exponents
are integers in the step-plaquette convention; the double-step-diamond
convention halves them and encodes a half-integer value v as
{"twice": 2v}.  CSV output mirrors the same rows with "p/2" strings for
half-integers, one header row (with the s column whenever touchdowns
are tracked), UTF-8, LF line endings.
"""

import enum
import sys
from types import SimpleNamespace

from . import __version__, cluster, oracle, touchdown, verify
from .config import SUITE_NAMES, UsageError
from .exact import TPoly
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


def _parse_spec_flags(args):
    """The ceiling from --k (None for 'inf') and the spec echoed in the
    output; GenSpec checks the ranges."""
    try:
        k = None if args.k == "inf" else int(args.k)
    except ValueError:
        raise UsageError(f"--k must be an integer or 'inf', got {args.k!r}")
    return k, {"k": "inf" if k is None else k, "m": args.m, "n": args.n,
               "max_len": args.max_len}


def _dec_exp(obj, halve):
    if isinstance(obj, dict):
        return obj["twice"]
    return obj * 2 if halve else obj


def _exp_csv(v):
    """v/2 as CSV text: the string "v/2" when v is odd."""
    return f"{v}/2" if v % 2 else str(v // 2)


def _exp_json(v):
    """v/2 as JSON text at a term's key depth: the block {"twice": v}
    when v is odd."""
    return '{\n        "twice": %d\n      }' % v if v % 2 else str(v // 2)


# the JSON document up to its "terms" value, at the indent
# json.dumps(doc, indent=2) gives it; every value in it is an int or a
# plain ASCII string
_HEAD = ('{{\n  "spec": {{\n{}\n  }},\n  "convention": "{}",\n'
         '  "method": "{}",\n  "version": "{}",\n  "terms": ')


def _row(v, exp, s_sep):
    """The terms of one length of the answer as (text, coeff) pairs in
    (A, s) order, the text being A through `exp` and, in a marker
    polynomial, s after `s_sep`.  An area polynomial's terms are in
    area order already; a marker polynomial's t^s parts are merged by
    one sort of the row."""
    if not isinstance(v, TPoly):
        return [(exp(a), c) for a, c in v.terms()]
    return [(f"{exp(a)}{s_sep}{s}", c) for a, s, c in sorted(
        (a, s, c) for s, q in v.terms() for a, c in q.terms())]


def _emit(args, spec_echo, method, full, count_label=None):
    """Write the answer series `full` in (l, A, s) order, each length's
    text made once (see _row) and written before the next is made.  A
    CSV has the s column whenever the series is marked, empty or not."""
    halve = args.convention == Convention.DOUBLE_STEP_DIAMOND.value
    write = sys.stdout.write
    if args.format == "json":
        exp = _exp_json if halve else str
        spec = ",\n".join(
            f'    "{key}": ' + (f'"{v}"' if isinstance(v, str) else str(v))
            for key, v in spec_echo.items())
        write(_HEAD.format(spec, args.convention, method, __version__))
        sep = "[\n"
        for l, v in full.nonzero_terms():
            head = f'    {{\n      "l": {exp(l)},\n      "A": '
            write(sep + ",\n".join(
                f'{head}{text},\n      "coeff": {{\n        "num": '
                f'"{c.numerator}",\n        "den": "{c.denominator}"'
                '\n      }\n    }'
                for text, c in _row(v, exp, ',\n      "s": ')))
            sep = ",\n"
        write("[]\n}\n" if sep == "[\n" else "\n  ]\n}\n")
        return 0
    # no field needs CSV quoting: each is a name, an int or "p/2"
    exp = _exp_csv if halve else str
    tail = [count_label] if count_label else ["num", "den"]
    write(",".join(["l", "A"] + ["s"] * (full.ring is TPoly) + tail) + "\n")
    for l, v in full.nonzero_terms():
        head = exp(l)
        write("".join(f"{head},{text},{c.numerator}\n" if count_label else
                      f"{head},{text},{c.numerator},{c.denominator}\n"
                      for text, c in _row(v, exp, ",")))
    return 0


def routes(spec, marked=False):
    """The routes that compute the answer to `spec`: {name: call
    returning the answer series}.  Plain, the --method choices
    determinant and cluster-exp, and continued-fraction at m = n = 0;
    marked (--touchdown), determinant and the ratio route, `ratio`.
    `genfun --check` runs them all; the tests' independence census and
    guard test and bench.py's route rows read them from here."""
    if marked:
        return {"determinant": lambda: touchdown.tilde_genfun(
                    *spec).full_series(),
                "ratio": lambda: touchdown.tilde_genfun_ratio(
                    *spec).full_series()}
    # genfun's routes are read from its module here: the package
    # attribute genfun is the function
    from .genfun import continued_fraction, genfun
    table = {"determinant": lambda: genfun(spec).full_series(),
             "cluster-exp": lambda: cluster.genfun_via_cluster(spec)}
    if spec.m == spec.n == 0:
        table["continued-fraction"] = (
            lambda: continued_fraction(spec.ceiling, spec.order))
    return table


def cmd_genfun(args):
    k, spec_echo = _parse_spec_flags(args)
    if args.touchdown and args.method != "determinant":
        raise UsageError("--touchdown supports only --method determinant")
    table = routes(GenSpec(k, args.m, args.n, args.max_len), args.touchdown)
    if args.method not in table:
        raise UsageError(
            f"--method {args.method} needs m = n = 0 (floor excursions)")
    full = table[args.method]()
    if args.check:
        for name, fn in table.items():
            if name != args.method and fn() != full:
                print(f"internal mismatch: {args.method} vs {name}",
                      file=sys.stderr)
                return 3
    return _emit(args, spec_echo, args.method, full)


def cmd_table(args):
    k, spec_echo = _parse_spec_flags(args)
    ceiling = GenSpec(k, args.m, args.n, args.max_len).ceiling
    table = oracle.enumerate_paths(ceiling, args.m, args.n, args.max_len)
    full = oracle.genfun_from_table(table, with_touchdowns=args.touchdowns)
    return _emit(args, spec_echo, "oracle", full, count_label="count")


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
    ceiling = GenSpec(k, m, n, l_max).ceiling   # clamped when finite
    return oracle.PathTable(ceiling if k is None else k, m, n, l_max, counts)


def cmd_verify(args):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(names, args.k_max, args.len_max)
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


# The options of each command: (flag, kind, default, help).  A kind is
# int, str, a tuple of the accepted strings, or bool for a switch (no
# value; present means True); a default of REQUIRED makes the flag
# required.  Each flag's value lands on the namespace attribute named
# after it, "--max-len" on max_len.
REQUIRED = object()
_SPEC_OPTIONS = (
    ("--k", str, REQUIRED, "ceiling height, or 'inf' for unbounded"),
    ("--m", int, REQUIRED, "start height"),
    ("--n", int, REQUIRED, "end height"),
    ("--max-len", int, REQUIRED, "truncation order in steps"),
    ("--convention", tuple(c.value for c in Convention),
     Convention.STEP_PLAQUETTE.value, "units of the reported exponents"),
    ("--format", ("json", "csv"), "json", "output format"),
)
COMMANDS = {
    "genfun": (cmd_genfun, "closed-form generating function coefficients",
               _SPEC_OPTIONS + (
                   ("--touchdown", bool, False,
                    "mark floor returns with the t variable"),
                   ("--method", ("determinant", "continued-fraction",
                                 "cluster-exp"), "determinant",
                    "route that computes the series"),
                   ("--check", bool, False,
                    "recompute by every applicable method; exit 3 on any "
                    "mismatch"))),
    "table": (cmd_table, "brute-force path count table",
              _SPEC_OPTIONS + (
                  ("--touchdowns", bool, False,
                   "keep counts resolved by number of floor returns"),)),
    "verify": (cmd_verify, "run exact identity suites", (
        ("--suite", SUITE_NAMES + ("all",), "all", "suite to run"),
        ("--k-max", int, None, "largest ceiling the suites take"),
        ("--len-max", int, None, "largest length the suites take"))),
}
_HELP_FLAGS = ("-h", "--help")


def usage(command=None):
    """Help text, from COMMANDS: the command list, or one command's
    options."""
    if command is None:
        lines = ["usage: dyckgen {%s} [options]" % ",".join(COMMANDS), "",
                 "Exact length-and-area generating functions for "
                 "height-restricted up-down lattice paths.", "", "commands:"]
        lines += [f"  {name:8}{about}"
                  for name, (_, about, _) in COMMANDS.items()]
        lines += ["", "dyckgen COMMAND --help lists the options of COMMAND."]
        return "\n".join(lines) + "\n"
    _, about, options = COMMANDS[command]
    lines = [f"usage: dyckgen {command} [options]", "", about, "", "options:"]
    for flag, kind, default, text in options:
        if isinstance(kind, tuple):
            flag += " {%s}" % ",".join(kind)
        elif kind is not bool:
            flag += " " + flag[2:].upper()
        if default is REQUIRED:
            text += " (required)"
        elif default not in (None, False):
            text += f" (default {default})"
        lines += [f"  {flag}", f"      {text}"]
    return "\n".join(lines) + "\n"


def _cmd_help(args):
    sys.stdout.write(usage(args.command))
    return 0


def parse_args(argv):
    """The namespace a command function takes, read from argv (the
    arguments after the program name): the command's function as
    `func`, its name as `command` and one attribute per option.  Flags
    come in any order, as `--flag value` or `--flag=value`, and a
    repeated flag keeps its last value; -h or --help gives a namespace
    whose func prints the help.  Anything else raises UsageError."""
    if argv and argv[0] in _HELP_FLAGS:
        return SimpleNamespace(command=None, func=_cmd_help)
    if not argv or argv[0] not in COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise UsageError(f"the command must be one of "
                         f"{', '.join(COMMANDS)}{got}")
    command, rest = argv[0], iter(argv[1:])
    func, _, options = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _ in options}
    given = {}
    for token in rest:
        if token in _HELP_FLAGS:
            return SimpleNamespace(command=command, func=_cmd_help)
        flag, eq, text = token.partition("=")
        kind = kinds.get(flag)
        if kind is None:
            raise UsageError(
                f"{command} has no flag {flag} (flags are never abbreviated)"
                if flag.startswith("--") else f"unexpected argument {token!r}")
        if kind is bool:
            if eq:
                raise UsageError(f"{flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            text = next(rest, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                raise UsageError(f"{flag} must be an integer, got {text!r}")
        elif kind is not str and text not in kind:
            raise UsageError(f"{flag} must be one of {', '.join(kind)}, "
                             f"got {text!r}")
        given[flag] = text
    missing = [flag for flag, _, default, _ in options
               if default is REQUIRED and flag not in given]
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    args = SimpleNamespace(command=command, func=func)
    for flag, _, default, _ in options:
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:   # the reader stopped early, as `| head` does
        return 0
    except Exception:
        import traceback   # off the start-up path of every job
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
