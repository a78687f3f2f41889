"""Run the odirac CLI as `python -m odirac.cli` does, noting when set-up ends.

    python perfbench/launch.py TIMING.json run SCENARIO.json --out DIR

The only addition to a plain CLI run is a timestamp taken when the
scenario's `Workspace` has been built (CLOCK_MONOTONIC, comparable with
the parent's spawn time), and the import and `main` durations.  They are
written to TIMING.json after the CLI returns; the exit code is the CLI's.
"""

import json
import sys
import time


def main(argv):
    timing_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from odirac import cli, scenarios
    import_s = time.perf_counter() - t0

    built = []
    init = scenarios.Workspace.__init__

    def timed_init(self, scn):
        init(self, scn)
        built.append(time.monotonic())

    scenarios.Workspace.__init__ = timed_init
    t1 = time.perf_counter()
    rc = cli.main(cli_args)
    main_s = time.perf_counter() - t1
    with open(timing_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "workspace_built": built}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
