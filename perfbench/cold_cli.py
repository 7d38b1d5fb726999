"""``python -m wordchain.cli ARGS...`` in a fresh interpreter, with reference-loop timings.

    python3 perfbench/cold_cli.py SAMPLES_FILE ARGS...

Runs the package's CLI module as ``-m`` would (every cache starts cold),
while a Speedometer (speed.py) times the reference loop.  The timings are
written to SAMPLES_FILE as JSON when the CLI exits; the exit code and the
output are the CLI's own.
"""

import runpy
import sys

import speed


def main() -> None:
    samples_file = sys.argv[1]
    sys.argv = ["wordchain.cli", *sys.argv[2:]]
    meter = speed.Speedometer()
    meter.start()
    try:
        runpy.run_module("wordchain.cli", run_name="__main__", alter_sys=True)
    finally:
        meter.stop()
        meter.dump(samples_file)


if __name__ == "__main__":
    main()
