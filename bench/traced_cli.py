"""Run one potentia CLI request with spans installed.

Usage: python traced_cli.py SPANS_FILE REQUEST_ID CLI_ARG...

Times ``import potentia`` as the span ``cli.import``, installs the span
recorder, calls ``potentia.cli.main(CLI_ARG...)``, appends the spans to
SPANS_FILE and exits with the CLI's exit code.  Bytes read are the sizes of
the argument files that exist before the call; bytes written are the sizes
of the ``--out``/``--out-state`` targets after it.
"""

import os
import sys
from time import perf_counter

import tracer

OUTPUT_FLAGS = ("--out", "--out-state")


def main(argv: list[str]) -> int:
    spans_file, request_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = tracer.Recorder()
    recorder.request = request_id
    start = perf_counter()
    import potentia.cli

    recorder.add("cli.import", start, perf_counter())
    tracer.install(recorder)
    recorder.counters["fileio.bytes_read"] = sum(
        os.path.getsize(arg) for arg in cli_args if os.path.isfile(arg)
    )
    code = potentia.cli.main(cli_args)
    recorder.counters["fileio.bytes_written"] = sum(
        os.path.getsize(cli_args[i + 1])
        for i, arg in enumerate(cli_args[:-1])
        if arg in OUTPUT_FLAGS and os.path.isfile(cli_args[i + 1])
    )
    sys.stdout.flush()
    recorder.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
