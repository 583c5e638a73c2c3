"""Write the reference outputs the benchmark compares against.

Usage (from the root of a checkout): python3 perfbench/capture.py

Run once at the commit that defines the benchmark; later commits must
reproduce these outputs byte for byte.  ``reference/algebra/NAME.json`` is
the JSON report of each algebra spec and ``reference/cli.json`` holds the
exit code, stdout and (for ``--json``) the report of each cli command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    from vrg.analyzer import analyze
    from vrg.reportio import dump_report, load_spec

    algebra = os.path.join(run.HERE, "reference", "algebra")
    os.makedirs(algebra, exist_ok=True)
    os.makedirs(run.OUT, exist_ok=True)
    for name in run.ALGEBRA_SPECS:
        spec, _ = load_spec(os.path.join(run.HERE, "specs", f"{name}.json"))
        dump_report(analyze(spec), spec, os.path.join(algebra, f"{name}.json"))

    env = run.child_env(0)
    cli = {}
    for cid, args in run.CLI_COMMANDS:
        done = subprocess.run(
            [sys.executable, "-c", run.CLI_ENTRY, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=run.ROOT,
            check=False,
        )
        entry = {"argv": list(args), "exit": done.returncode, "stdout": done.stdout}
        if "--json" in args:
            path = os.path.join(run.ROOT, run.CLI_JSON)
            with open(path, encoding="utf-8") as fh:
                entry["report"] = fh.read()
            os.remove(path)
        cli[cid] = entry
    with open(os.path.join(run.HERE, "reference", "cli.json"), "w", encoding="utf-8") as fh:
        json.dump(cli, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
