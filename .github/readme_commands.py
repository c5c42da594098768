"""Run every command of README's usage block through the console script.

Run from the repository root, with the package installed:

    python .github/readme_commands.py

The commands run in a temporary directory so the files they write stay
out of the checkout.  Exit 2 is a failed verification verdict, not a
crash, so the script accepts exit 0 or 2 and stops on anything else.
"""

import pathlib
import shlex
import subprocess
import tempfile

block = pathlib.Path("README.md").read_text().split("## Command line", 1)[1]
usage = block.split("```", 2)[1]
commands = [line for line in usage.splitlines() if line.startswith("hardyops ")]
assert commands, "no usage block found in README.md"
with tempfile.TemporaryDirectory() as out:
    for line in commands:
        code = subprocess.run(shlex.split(line), cwd=out).returncode
        print(f"exit {code}: {line}", flush=True)
        if code not in (0, 2):
            raise SystemExit(f"{line!r} exited {code}")
