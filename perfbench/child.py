"""Child process for the two measurements that need code inside the process.

    python -m perfbench.child setup -- <pesim arguments>
        Runs the CLI up to its first call into the workload (the stepper, a
        study or the inequality suites), prints the CLOCK_MONOTONIC time of
        that moment and exits 0 without running the workload.

    python -m perfbench.child trace SPANS.json -- <pesim arguments>
        Runs the CLI with every layer wrapped in spans, writes the spans to
        SPANS.json and exits with the CLI's exit code.

Both need `src` on PYTHONPATH.  End-to-end times never come from here.
"""

from __future__ import annotations

import json
import sys

from .spans import Tracer, now, replace_everywhere


class _Reached(BaseException):
    """Raised at the first call into the workload; not caught by the CLI."""


def _setup(argv) -> int:
    import pesim.cli
    import pesim.experiments as experiments
    import pesim.inequalities as inequalities
    import pesim.stepper as stepper

    def stop(*args, **kwargs):
        raise _Reached(now())

    entry_points = [stepper.run_until, inequalities.all_reports]
    entry_points += [getattr(experiments, name) for name in experiments.__all__
                     if name.startswith("run_")]
    for fn in entry_points:
        replace_everywhere(fn, stop)
    try:
        pesim.cli.main(argv)
    except _Reached as reached:
        print(repr(reached.args[0]))
        return 0
    print("perfbench: the CLI returned before reaching the workload", file=sys.stderr)
    return 3


def _trace(spans_path, argv) -> int:
    from .layers import install

    tracer = Tracer()
    start = now()
    import pesim.cli
    tracer.add("setup", "import", start, now())
    install(tracer)
    rc = pesim.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([sp.to_list() for sp in tracer.spans], fh)
    return rc


def main(argv) -> int:
    sep = argv.index("--")
    mode, args, cli_argv = argv[0], argv[1:sep], argv[sep + 1:]
    if mode == "setup":
        return _setup(cli_argv)
    return _trace(args[0], cli_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
