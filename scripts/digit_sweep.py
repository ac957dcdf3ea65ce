"""Print the sha256 of `asymptotics --digits d` stdout for every d from 1 to MAX_DIGITS.

One line per d: the digit count and the hex digest of what
`cli.main(["asymptotics", "--digits", d])` writes, all run in this
process.  The committed output of a known-good tree is
`scripts/asymptotics_digests.txt`; a change keeps every printed digit
when

    diff <(PYTHONPATH=src python scripts/digit_sweep.py) scripts/asymptotics_digests.txt

is empty.  A run takes about 3 minutes (2-core machine), so it is kept
out of the test suite, which checks nine of the committed lines
(`tests/test_cli.py::test_asymptotics_matches_committed_digests`).
"""

import contextlib
import hashlib
import io

from arndt_carlitz import cli


def main() -> None:
    for digits in range(1, cli.MAX_DIGITS + 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["asymptotics", "--digits", str(digits)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"asymptotics --digits {digits} exited {code}")
        print(digits, hashlib.sha256(out.getvalue().encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
