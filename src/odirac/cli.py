"""Command line entry points: run, report, selftest."""

import argparse
import json
import os
import sys

from .dirac import LiftFailure
from .scenarios import Scenario, ScenarioError, bundle_to_json, load_scenario, run_scenario


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="odirac",
        description="Exact computations with cubic Dirac operators on "
                    "category-O weight windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write its bundle")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--depth", type=int, default=None,
                       help="override the module window depth")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: $ODIRAC_OUT or '.')")

    p_rep = sub.add_parser("report", help="render a bundle as text tables")
    p_rep.add_argument("bundle", help="path to a bundle JSON file")
    p_rep.add_argument("--csv", default=None, help="also write CSV tables here")

    p_self = sub.add_parser("selftest", help="run the full acceptance suite")
    p_self.add_argument("--json", default=None, help="write results as JSON here")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    return 2


def _cmd_run(args):
    """Exit 0 if every check passed, 1 if a mathematical check failed,
    2 on bad input and 3 on an internal error."""
    outdir = args.out or os.environ.get("ODIRAC_OUT") or "."
    try:
        scn = load_scenario(args.scenario)
        if args.depth is not None:
            doc = dict(scn.doc)
            doc["module"] = dict(doc["module"], depth=args.depth)
            scn = Scenario(doc)
        # an unusable output directory is bad input: fail before the run
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as e:
            print(f"cannot create output directory: {e}", file=sys.stderr)
            return 2
        bundle = run_scenario(scn)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except (AssertionError, LiftFailure) as e:
        print(f"assertion failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    path = os.path.join(outdir, f"{scn.name}.bundle.json")
    try:
        with open(path, "w") as fh:
            fh.write(bundle_to_json(bundle))
    except OSError as e:
        print(f"cannot write bundle: {e}", file=sys.stderr)
        return 2
    print(path)
    if not bundle["ok"]:
        failing = sorted(t for t, d in bundle["tasks"].items() if not d.get("ok", True))
        print(f"failed tasks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args):
    from .reporting import render_bundle, write_csv_tables

    try:
        with open(args.bundle) as fh:
            bundle = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or not UTF-8
        print(f"cannot read bundle: {e}", file=sys.stderr)
        return 2
    if not isinstance(bundle, dict):
        print("cannot read bundle: not a bundle (the top level is not a JSON object)",
              file=sys.stderr)
        return 2
    # a JSON object of the wrong shape is bad input: render before writing anything
    try:
        text = render_bundle(bundle)
    except (KeyError, TypeError, AttributeError) as e:
        print(f"cannot read bundle: not a bundle ({type(e).__name__}: {e})",
              file=sys.stderr)
        return 2
    # an unusable CSV path is bad input: fail before any output
    written = []
    if args.csv:
        try:
            written = write_csv_tables(bundle, args.csv)
        except OSError as e:
            print(f"cannot write CSV tables: {e}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_selftest(args):
    """Exit 0 if every criterion passed, 1 if one failed, 2 on an unusable
    results path and 3 if a criterion raised an internal error."""
    from .acceptance import run_all

    # an unusable results path is bad input: fail before the suite runs
    if args.json and (os.path.isdir(args.json)
                      or not os.path.isdir(os.path.dirname(args.json) or ".")):
        print(f"cannot write results: {args.json!r} is not a file in an existing "
              "directory", file=sys.stderr)
        return 2
    results, total = run_all(verbose=True)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump({"results": results, "total_seconds": round(total, 2)},
                          fh, indent=1, sort_keys=True, default=str)
                fh.write("\n")
        except OSError as e:
            print(f"cannot write results: {e}", file=sys.stderr)
            return 2
    internal = [r for r in results if r["details"].get("internal_error")]
    for r in internal:
        print(f"internal error: {r['name']}: {r['details']['exception']}", file=sys.stderr)
    if internal:
        return 3
    return 0 if all(r["ok"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
