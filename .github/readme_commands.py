"""Run every command of README's usage block through the console script.

Run from the repository root, with the package installed:

    python .github/readme_commands.py

The commands run in a temporary directory so the files they write stay
out of the checkout.  Exit 2 is a failed verification verdict, not a
crash, so the script accepts exit 0 or 2 and stops on anything else.
Each command also writes its JSON report, and the script stops when the
exit code disagrees with the report's verdicts: 0 exactly when every
verdict is "pass", else 2 with the top-level verdict "fail".
"""

import json
import pathlib
import shlex
import subprocess
import tempfile

block = pathlib.Path("README.md").read_text().split("## Command line", 1)[1]
usage = block.split("```", 2)[1]
commands = [line for line in usage.splitlines() if line.startswith("hardyops ")]
assert commands, "no usage block found in README.md"
with tempfile.TemporaryDirectory() as out:
    report = pathlib.Path(out) / "report.json"
    for line in commands:
        report.unlink(missing_ok=True)
        code = subprocess.run(shlex.split(line) + ["--out-json", report.name], cwd=out).returncode
        print(f"exit {code}: {line}", flush=True)
        if code not in (0, 2):
            raise SystemExit(f"{line!r} exited {code}")
        doc = json.loads(report.read_text())
        verdicts = [entry["verdict"] for entry in doc["reports"]]
        passed = all(verdict == "pass" for verdict in verdicts)
        if (code, doc["verdict"]) != ((0, "pass") if passed else (2, "fail")):
            raise SystemExit(
                f"{line!r} exited {code} with verdict {doc['verdict']!r}, "
                f"but its reports' verdicts are {verdicts}"
            )
