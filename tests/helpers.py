"""Shared test helpers: random-input generators for property checks, and cell lookup by id."""
from fdahp import TFN, build_matrix, tfn_reciprocal
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


def cell(m, row_id, col_id):
    """The cell of matrix `m` at (row_id, col_id), looked up by criterion id."""
    return m.cells[m.ids.index(row_id)][m.ids.index(col_id)]
