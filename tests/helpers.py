"""Shared test helpers: random-input generators for property checks, a matrix from a
dense grid, cell lookup by id, an in-process CLI runner and a garbage-collector pass
counter."""
import gc
import inspect
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from fdahp import TFN, Barrier, build_matrix, tfn_reciprocal
from fdahp.cli import main
from fdahp.tfn import ValidationMode

# Fuzzy 1..9 importance scale for drawing pairwise comparisons.
SAATY_9 = {
    1: TFN(1, 1, 1), 2: TFN(1, 2, 3), 3: TFN(2, 3, 4), 4: TFN(3, 4, 5), 5: TFN(4, 5, 6),
    6: TFN(5, 6, 7), 7: TFN(6, 7, 8), 8: TFN(7, 8, 9), 9: TFN(9, 9, 9),
}


def random_reciprocal_matrix(rng, n, mode=ValidationMode.STRICT, continuous=False):
    """Strictly reciprocal random matrix; continuous cells avoid exact ties."""
    ids = [f"C{i}" for i in range(n)]
    n_pairs = n * (n - 1) // 2
    if continuous:
        lows = rng.uniform(1 / 9, 9, n_pairs)
        grow = rng.uniform(1.0, 1.5, (n_pairs, 2))
    else:
        levels = rng.integers(2, 10, n_pairs)
        flips = rng.random(n_pairs) < 0.5
    entries = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if continuous:
                l = float(lows[k])
                m = l * float(grow[k, 0])
                t = TFN(l, m, m * float(grow[k, 1]))
            else:
                t = SAATY_9[int(levels[k])]
                if flips[k]:
                    t = tfn_reciprocal(t)
            entries.append((ids[i], ids[j], t))
            k += 1
    return build_matrix(entries, ids, mode)


def grid_matrix(criteria, cells, mode=ValidationMode.STRICT):
    """`build_matrix` over every cell of a dense grid, row by row."""
    ids = [c.id if isinstance(c, Barrier) else c for c in criteria]
    entries = [(rid, cid, t) for rid, row in zip(ids, cells, strict=True)
               for cid, t in zip(ids, row, strict=True)]
    return build_matrix(entries, criteria, mode)


def cell(m, row_id, col_id):
    """The cell of matrix `m` at (row_id, col_id), looked up by criterion id."""
    return m.cells[m.ids.index(row_id)][m.ids.index(col_id)]


def run_cli(argv):
    """`fdahp argv` run in process: (exit code, stdout, stderr)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def collections_inside(func, *args):
    """`func(*args)` and the number of garbage-collector passes started while `func`'s
    own frame was on the stack; a pass the caller's code starts is not counted."""
    code = inspect.unwrap(func).__code__
    started = []

    def count(phase, info):
        if phase == "start":
            frame = sys._getframe()
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if frame is not None:
                started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        result = func(*args)
    finally:
        gc.callbacks.remove(count)
    return result, len(started)
