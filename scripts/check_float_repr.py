#!/usr/bin/env python3
"""Check the CSV float formatter against ``repr`` on seeded random bit patterns.

    python3 scripts/check_float_repr.py [--count N] [--seed S]

Draws N uniform 64-bit patterns (every sign and exponent: normals, and the
subnormals, infinities and NaNs that the formatter hands to ``repr``) in
chunks of 2^20 from ``numpy.random.default_rng(S)``, formats each chunk as a
one-column block, and compares every value's text with ``repr``. It prints
the count, the seed, the mismatches and the time, names the first few
mismatches, and exits 1 if there is any. Needs ``src`` on ``PYTHONPATH``.
"""

import argparse
import sys
import time

import numpy as np

from adiab._floatfmt import format_rows

CHUNK = 1 << 20
BLOCK = 1 << 14  # values per formatter call


def mismatches(values: np.ndarray) -> list:
    """(repr, formatter text) of every value whose two texts differ."""
    column = values[:, np.newaxis]
    got = b"".join([format_rows(column[i : i + BLOCK]) for i in range(0, len(values), BLOCK)])
    want = "".join([f"{v!r}\n" for v in values.tolist()]).encode()
    if got == want:
        return []
    return [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g] or [(b"?", b"?")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7, help="bit patterns to check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    wrong = []
    for done in range(0, args.count, CHUNK):
        bits = rng.integers(0, 2**64, min(CHUNK, args.count - done), dtype=np.uint64)
        wrong += mismatches(bits.view(np.float64))
    elapsed = time.perf_counter() - start
    print(f"{args.count} patterns, seed {args.seed}: {len(wrong)} mismatches in {elapsed:.1f} s")
    for want, got in wrong[:5]:
        print(f"  repr {want.decode()}  formatter {got.decode()}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
