"""Byte-identical reports: scripts/report_digest.py against its committed
output.

The script digests every JSON report of a fixed command set, the printed
commands, the chamber outcomes, the contribution strings and the fixed
points' fields.  A change that
alters report bytes on purpose regenerates scripts/report_digest.expected
with `python3 scripts/report_digest.py > scripts/report_digest.expected`
and names the changed lines.
"""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_report_digest_matches_the_committed_output():
    res = subprocess.run([sys.executable, str(SCRIPTS / "report_digest.py")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    expected = (SCRIPTS / "report_digest.expected").read_text()
    assert res.stdout == expected
