"""The block float formatter against ``repr``, bit for bit.

``repr`` is the reference: every set below is formatted by the kernel as one
column, so each value's text ends in a newline, and compared with the
``repr`` of each value.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adiab import _floatfmt
from adiab._floatfmt import CAPACITY, format_rows, write_rows

pytestmark = pytest.mark.skipif(
    sys.float_repr_style != "short", reason="repr is the shortest round trip only on 'short' builds"
)

LAYOUT_BOUNDARIES = [
    1e-5, 9.999999999999999e-06, 0.0001, 9999999999999998.0, 1e16, 1e22, 1e23, 1e-300, -1.5e300
]


def assert_matches_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    got = format_rows(values[:, np.newaxis])
    want = "".join([f"{v!r}\n" for v in values.tolist()]).encode()
    if got != want:
        pairs = zip(want.splitlines(), got.splitlines())
        wrong = [(w, g) for w, g in pairs if w != g]
        pytest.fail(f"{len(wrong)} of {len(values)} differ, first {wrong[:3]}")


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_random_normal_bit_patterns():
    rng = np.random.default_rng(20260)
    sign = rng.integers(0, 2, 200_000, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1, 0x7FF, 200_000, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, 200_000, dtype=np.uint64)
    values = (sign | exponent | mantissa).view(np.float64)
    assert np.isfinite(values).all() and (np.abs(values) >= 2.0**-1022).all()
    assert_matches_repr(values)


def test_powers_of_two_and_ten_with_neighbours():
    assert_matches_repr(with_neighbours(np.ldexp(1.0, np.arange(-1022, 1024))))
    assert_matches_repr(with_neighbours([float(f"1e{e}") for e in range(-307, 309)]))


def test_integers_up_to_two_to_the_53():
    rng = np.random.default_rng(20261)
    integers = np.concatenate([np.arange(0, 2001), rng.integers(0, 2**53, 20_000, endpoint=True)])
    assert_matches_repr(np.concatenate([integers, -integers]).astype(np.float64))


def test_layout_boundaries_and_zeros():
    assert_matches_repr(with_neighbours(LAYOUT_BOUNDARIES + [-x for x in LAYOUT_BOUNDARIES]))
    assert format_rows(np.array([[0.0, -0.0]])) == b"0.0,-0.0\n"


def test_rows_and_separators():
    # a value formatted by repr (here NaN) ends its row too; a strided block is copied
    block = np.array([[1.0, -2.5, 1e-7], [0.0, 3.0, math.nan]])
    assert format_rows(block) == b"1.0,-2.5,1e-07\n0.0,3.0,nan\n"
    assert format_rows(block[:, :1]) == b"1.0\n0.0\n"


def repr_rows(block: np.ndarray) -> bytes:
    return "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()]).encode()


def mixed_block(rows: int, columns: int, seed: int) -> np.ndarray:
    """Random normal bit patterns, with zeros and repr's values spread through."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(1 << 52, 0x7FF << 52, rows * columns, dtype=np.uint64)
    bits |= rng.integers(0, 2, rows * columns, dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    spots = rng.choice(values.size, 12, replace=False)
    values[spots] = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324] * 2
    return values.reshape(rows, columns)


# rows of width 1, 13 and 323 over several capacities, so that the blocks end
# at different rows
BLOCK_SHAPES = [
    (3 * CAPACITY + 5, 1),
    (3 * CAPACITY // 13 + 7, 13),
    (3 * CAPACITY // 323 + 2, 323),
]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=lambda shape: f"{shape[1]}-wide")
def test_blocks_longer_than_the_capacity(shape):
    block = mixed_block(*shape, seed=shape[1])
    assert format_rows(block) == repr_rows(block)


@pytest.mark.parametrize("width", [0, CAPACITY + 1])
def test_one_to_capacity_columns(width):
    # a block holds at least one whole row
    with pytest.raises(ValueError, match=f"got {width}"):
        write_rows([np.zeros(3)] * width, lambda text: None)


def test_widths_alternate_in_one_workspace():
    # each call reuses this thread's workspace at another shape
    shapes = [(700, 13), (3, 323), (5000, 1)]
    blocks = [mixed_block(rows, columns, seed) for seed, (rows, columns) in enumerate(shapes)]
    for block in blocks + blocks[::-1] + blocks:
        assert format_rows(block) == repr_rows(block)
    assert format_rows(np.empty((0, 13))) == b""
    written = []
    write_rows([np.empty(0)] * 13, written.append)
    assert written == []


def test_threads_format_at_once():
    blocks = [mixed_block(2000, 13, 1), mixed_block(300, 323, 2)]
    wanted = [repr_rows(block) for block in blocks]
    start = threading.Barrier(2)
    results, workspaces = [[], []], [None, None]

    def work(i):
        start.wait()
        for _ in range(4):
            results[i].append(format_rows(blocks[i]))
        workspaces[i] = _floatfmt._workspace()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert workspaces[0] is not workspaces[1]
    for got, want in zip(results, wanted):
        assert got == [want] * 4


def test_a_warm_call_allocates_no_block_sized_temporary():
    # every block-sized array is the workspace's; what a call of 8 190 floats
    # may allocate is a gather slice's text (under 13 kB) and numpy's small
    # objects, where the allocating kernel peaked at about 400 bytes a float
    columns = list(mixed_block(CAPACITY // 13, 13, 5).T)
    write_rows(columns, lambda text: None)
    tracemalloc.start()
    try:
        write_rows(columns, lambda text: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000, f"{peak} bytes"


def test_tables_are_read_only_and_built_once():
    tables = _floatfmt._tables()
    assert _floatfmt._tables() is tables
    for table in tables:
        assert not table.flags.writeable


LAZY_TABLES = """
import json, sys, tempfile
from pathlib import Path
import adiab
from adiab import _floatfmt, cli
from adiab.models import random_smooth_model
from adiab.propagate import TimeGrid
from adiab.runner import emit_csv, run_pipeline, run_scenario
from adiab.scenario import parse_scenario

built = lambda: _floatfmt._tables.cache_info().currsize
workspace = lambda: getattr(_floatfmt._local, "workspace", None)
assert built() == 0 and workspace() is None, "import built the tables or the workspace"
doc = {"model": "marzlin_sanders", "omega0": 1.0, "omega": 0.1, "theta": 1.5707963267948966,
       "t_end": 0.2, "steps": 200, "n": 1}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "pair.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 0
    pair = run_scenario(parse_scenario(json.dumps(doc)))
    model = random_smooth_model(dim=4, seed=3)
    run_pipeline(model, TimeGrid(0.0, 0.4, 100), 0, "transport")
    assert built() == 0, "verify, the pair or a dense pipeline built the tables"
    assert workspace() is None, "verify, the pair or a dense pipeline built the workspace"
    emit_csv(pair, Path(tmp) / "pair.csv")
    assert built() == 1 and workspace() is not None
    first = workspace()
    emit_csv(pair, Path(tmp) / "again.csv")
    assert built() == 1 and workspace() is first, "a second CSV built the tables or the workspace again"
"""


def test_tables_are_built_by_emission_only():
    # in a fresh interpreter: import, verify, the pair and a dense pipeline
    # leave the tables and the workspace unbuilt; the first CSV builds both,
    # and the second reuses them
    src = Path(_floatfmt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_TABLES], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
