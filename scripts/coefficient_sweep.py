"""Check every exact coefficient to ORDER against a counting DP.

The transfer-matrix DP `transfer_matrix_counts` of `tests/test_gf.py`
counts the compositions of every n up to ORDER by their parts and uses no
generating-function identity.  `PYTHONPATH=src python
scripts/coefficient_sweep.py` exits 1 unless its even and odd counts equal
`gf.series_bundle(ORDER)`, and its even, odd and total counts equal
`gf.even_series`, `gf.odd_series` and `gf.total_series`: the one-division
paths that `series` prints.  A run takes about 6 s and 0.5 GB, most of
both in the DP's tables (2-core machine).  CI runs it on every Python
version; the test suite checks the DP only at order 500, and
`scripts/cli_sweep.py` hashes the order-2000 b-files.
"""

import sys
from pathlib import Path

from arndt_carlitz import gf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_gf import transfer_matrix_counts  # noqa: E402

ORDER = 2000


def main() -> None:
    even, odd = transfer_matrix_counts(ORDER)[:2]
    bundle = gf.series_bundle(ORDER)
    checks = [
        ("series_bundle.even", bundle.even, even),
        ("series_bundle.odd", bundle.odd, odd),
        ("even_series", gf.even_series(ORDER), even),
        ("odd_series", gf.odd_series(ORDER), odd),
        ("total_series", gf.total_series(ORDER), [e + o for e, o in zip(even, odd)]),
    ]
    differ = [name for name, series, counts in checks if list(series.coeffs) != counts]
    if differ:
        raise SystemExit(f"the DP's counts differ from {', '.join(differ)} up to order {ORDER}")
    print(f"the transfer-matrix DP equals the closed forms up to order {ORDER}")


if __name__ == "__main__":
    main()
