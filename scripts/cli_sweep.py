"""Run 1143 command lines through `cli.main` and print the sha256 of each outcome.

One line per call: the hex digest of its exit code, stdout and stderr,
then the argv.  The calls are `asymptotics --digits d` for every d from 0
to MAX_DIGITS + 1 and the default; every `series` parity x format pair at
orders 0, 11, 96, 224 and the default, and each parity's b-file at order
2000; `count` with each method and parity at n = 1, 5, 12, 17, 24, and
with `--method gf|slice` alone at n = 24, 44, 300; `list` at n = 1, 7, 8,
10; `verify` with defaults, at `--max-n 12|14|16 --order 24|48|96`,
`--max-n 5 --order 10` and `--max-n 40` (exit 2); `--help` of the parser
and of each command; no arguments, `count --n abc`, an unknown command and
the cap error `count --n 31 --method brute` (exit 3).  Everything runs in
this process with COLUMNS=80 (argparse wraps its help to it) and
ARNDT_CARLITZ_CAP unset; argparse's exits are caught as SystemExit.  The
committed output of a known-good tree is `scripts/cli_digests.txt`; a
change keeps every command's output when

    diff <(PYTHONPATH=src python scripts/cli_sweep.py) scripts/cli_digests.txt

is empty.  A run takes about 3 minutes (3 min 17 s on a 2-core machine).
CI runs it on Python 3.10 and 3.11: the digests were made on 3.11, and
3.10 prints them byte for byte.
"""

import contextlib
import hashlib
import io
import os

os.environ["COLUMNS"] = "80"
os.environ.pop("ARNDT_CARLITZ_CAP", None)

from arndt_carlitz import cli  # noqa: E402
from arndt_carlitz.compositions import PARITIES  # noqa: E402


def calls() -> list[list[str]]:
    """The 1143 argv, in the order the script prints them."""
    argvs = [["asymptotics", "--digits", str(d)] for d in range(cli.MAX_DIGITS + 2)]
    argvs.append(["asymptotics"])
    for order in ["0", "11", "96", "224", None]:
        for parity in PARITIES:
            for fmt in ["plain", "json", "csv", "bfile"]:
                argv = ["series", "--parity", parity, "--format", fmt]
                argvs.append(argv + ["--order", order] if order else argv)
    argvs += [["series", "--order", "2000", "--parity", p, "--format", "bfile"] for p in PARITIES]
    for n in ["1", "5", "12", "17", "24"]:
        for method in ["brute", "gf", "slice"]:
            for parity in PARITIES:
                argvs.append(["count", "--n", n, "--method", method, "--parity", parity])
    for n in ["24", "44", "300"]:
        for method in ["gf", "slice"]:
            argvs.append(["count", "--n", n, "--method", method])
    argvs += [["list", "--n", n] for n in ["1", "7", "8", "10"]]
    argvs.append(["verify"])
    argvs += [["verify", "--max-n", m, "--order", o]
              for m in ["12", "14", "16"] for o in ["24", "48", "96"]]
    argvs += [["verify", "--max-n", "5", "--order", "10"], ["verify", "--max-n", "40"]]
    argvs += [["--help"], *([command, "--help"] for command in cli.COMMANDS)]
    argvs += [[], ["count", "--n", "abc"], ["unknown"], ["count", "--n", "31", "--method", "brute"]]
    return argvs


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    for argv in calls():
        code, out, err = outcome(argv)
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        print(digest, *argv, flush=True)


if __name__ == "__main__":
    main()
