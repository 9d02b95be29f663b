"""Run the wlift command line with every public wlift function traced.

Usage: python3 trace_cli.py <span dir> <wlift arguments...>
with `src/` on PYTHONPATH. Every process, including forked pool workers,
writes its spans to <span dir>/spans-<pid>.json when it exits.
"""

import multiprocessing.util
import sys

import spans


def _in_worker(tracer, directory):
    # The worker inherits the parent's spans and wrappers; keep the
    # wrappers, drop the spans, and write its own on the way out (a pool
    # worker leaves through multiprocessing's exit path, not atexit).
    tracer.reset()
    multiprocessing.util.Finalize(None, tracer.dump, args=(directory,),
                                  exitpriority=100)


def main(argv):
    directory, cli_args = argv[0], argv[1:]
    import wlift.cli

    tracer = spans.Tracer()
    tracer.install()
    multiprocessing.util.register_after_fork(
        tracer, lambda t: _in_worker(t, directory))
    try:
        return wlift.cli.main(cli_args)
    finally:
        tracer.dump(directory)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
