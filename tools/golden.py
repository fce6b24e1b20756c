"""Regenerate the golden CLI corpus under tests/golden/.

For each invocation below it runs ampo.cli.main in this process, with
AMPO_OUTPUT unset, and stores its stdout as tests/golden/<name>.out; the
argument lists and exit codes go to tests/golden/index.json. The tier-1
test test_cli.py::test_cli_output_matches_the_golden_corpus replays each
invocation and compares stdout and the exit code byte for byte, so a
change to the corpus is a change to what the CLI prints.

Run from anywhere: python tools/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

INVOCATIONS = {
    **{
        f"examples{n}-{output}": ["examples", str(n), "--output", output]
        for n in (1, 2, 3) for output in ("table", "csv", "json")
    },
    "examples3-budget-100": ["examples", "3", "--budget", "100"],
    "examples3-budget-1e308": ["examples", "3", "--budget", "1e308"],
    **{f"optimize-{kind}": ["optimize", "--kind", kind] for kind in ("put", "call", "straddle")},
    **{
        f"greeks-put-{output}": ["greeks", "--kind", "put", "--amort", "0.1", "--output", output]
        for output in ("table", "json")
    },
    **{
        f"price-call-{output}": ["price", "--kind", "call", "--amort", "0.1", "--output", output]
        for output in ("table", "json")
    },
    "statics": ["statics", "--kind", "put", "--amort", "0.1"],
    "statics-json": ["statics", "--kind", "put", "--amort", "0.1", "--output", "json"],
    "validate": ["validate", "--kind", "put", "--amort", "0.1"],
    "validate-json": ["validate", "--kind", "put", "--amort", "0.1", "--output", "json"],
    **{
        f"price-spot-1e-12-{kind}": ["price", "--kind", kind, "--amort", "0.1", "--spot", "1e-12"]
        for kind in ("put", "call")
    },
    "examples1-spot-1e-200-strike-1e200": ["examples", "1", "--spot", "1e-200", "--strike", "1e200"],
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ampo.cli import main as cli_main

    os.environ.pop("AMPO_OUTPUT", None)
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in INVOCATIONS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
        index[name] = {"argv": argv, "exit": code}
        print(f"{code}  {name}")
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
