"""Traced CLI job: install the tracer, then run `dyckgen.cli.main(argv)`.

    python3 perfbench/traced_cli.py SPANS_PATH -- CLI_ARGS...

Stdout and the exit code are those of `python -m dyckgen.cli CLI_ARGS`.
The call to main is one span named cli.cmd_<command>, so its self time
is argument handling and serialization with every traced call inside
subtracted.  The spans are written to SPANS_PATH when main returns.
"""

import sys
import time

from tracer import Tracer, install


def main():
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.exit("usage: traced_cli.py SPANS_PATH -- CLI_ARGS...")
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["dyckgen.cli"]
    traced_main = tracer.wrap("cli.cmd_" + argv[0], cli.main)
    entered = time.monotonic()
    code = traced_main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path, {"main_entered": entered})
    sys.exit(code)


if __name__ == "__main__":
    main()
