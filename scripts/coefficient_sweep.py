"""Check the exact series to ORDER against a counting DP and print their digests.

The transfer-matrix DP `transfer_matrix_counts` of `tests/test_gf.py`
counts the compositions of every n up to ORDER by their parts and uses no
generating-function identity.  The script exits 1 unless its even and odd
counts equal the closed forms of `gf.series_bundle(ORDER)`.  It then
prints one line per parity: the parity and the sha256 of what
`cli.main(["series", "--order", ORDER, "--parity", p, "--format", "bfile"])`
writes, all run in this process.  The committed output of a known-good
tree is `scripts/coefficient_digests.txt`; a change keeps every
coefficient up to order 2000 when

    diff <(PYTHONPATH=src python scripts/coefficient_sweep.py) scripts/coefficient_digests.txt

is empty.  A run takes about 6 s and 0.5 GB, most of both in the DP's
tables (2-core machine), so it is kept out of the test suite, which
checks the DP at order 500
(`tests/test_gf.py::test_transfer_matrix_dp_equals_closed_forms_to_500`).
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from arndt_carlitz import cli, gf
from arndt_carlitz.compositions import PARITIES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_gf import transfer_matrix_counts  # noqa: E402

ORDER = 2000


def main() -> None:
    even, odd = transfer_matrix_counts(ORDER)[:2]
    bundle = gf.series_bundle(ORDER)
    if list(bundle.even.coeffs) != even or list(bundle.odd.coeffs) != odd:
        raise SystemExit(f"the transfer-matrix DP and the closed forms differ up to order {ORDER}")
    for parity in PARITIES:
        out = io.StringIO()
        argv = ["series", "--order", str(ORDER), "--parity", parity, "--format", "bfile"]
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        print(parity, hashlib.sha256(out.getvalue().encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
