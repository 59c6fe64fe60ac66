"""Pure-Python hot kernels.

Two inner loops dominate the whole library: backtracking enumeration of
graph homomorphisms and integer reduction of boundary matrices.  Both are
implemented here on plain Python ints (vertex sets as bitmasks, exact
arbitrary-precision matrix entries).
"""

from __future__ import annotations


def search_homs(next_adj, t_loop, g_adj, g_loop_mask, n_g, cap):
    """Enumerate adjacency-preserving maps by forward-checked backtracking.

    Positions 0..n_t-1 are the source vertices in assignment (BFS) order.
    next_adj[i] lists positions j > i adjacent to i; t_loop[i] flags a
    loop at position i; g_adj[x] is the loop-inclusive neighbor bitmask
    of target vertex x and g_loop_mask the bitmask of looped targets.

    Returns a list of assignment tuples (by position), or None if more
    than ``cap`` maps exist.
    """
    n_t = len(t_loop)
    if n_t == 0:
        return [()]
    full = (1 << n_g) - 1
    base = [g_loop_mask if t_loop[i] else full for i in range(n_t)]
    if n_g == 0:
        return []
    domains = list(base)
    assignment = [0] * n_t
    results = []

    def rec(i):
        if i == n_t:
            results.append(tuple(assignment))
            return len(results) <= cap
        mask = domains[i]
        while mask:
            low = mask & -mask
            mask ^= low
            x = low.bit_length() - 1
            assignment[i] = x
            saved = []
            ok = True
            for j in next_adj[i]:
                old = domains[j]
                new = old & g_adj[x]
                if new != old:
                    saved.append((j, old))
                    domains[j] = new
                    if new == 0:
                        ok = False
                        break
            if ok and not rec(i + 1):
                return False
            for j, old in saved:
                domains[j] = old
        return True

    if not rec(0):
        return None
    return results


def snf_diagonal(columns, nrows):
    """Diagonal of the Smith normal form of a sparse integer matrix.

    ``columns`` is a list of {row: value} dicts.  Returns the invariant
    factors as a sorted list of positive ints (length == rank): unit
    pivots are eliminated sparsely first, the small remainder goes
    through a dense minimal-pivot Smith reduction.
    """
    # dict-of-dicts in both orientations for pivot selection
    col_data = {}
    row_data = {}
    for c, col in enumerate(columns):
        live = {r: v for r, v in col.items() if v}
        if live:
            col_data[c] = dict(live)
            for r, v in live.items():
                row_data.setdefault(r, {})[c] = v

    units = 0
    while True:
        pivot = None
        best = None
        for r, row in row_data.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    fill = (len(row) - 1) * (len(col_data[c]) - 1)
                    if best is None or fill < best:
                        best = fill
                        pivot = (r, c)
                        if fill == 0:
                            break
            if best == 0:
                break
        if pivot is None:
            break
        pr, pc = pivot
        pval = row_data[pr][pc]
        prow = dict(row_data[pr])
        pcol = dict(col_data[pc])
        # remove pivot row/col from the structure
        for c in prow:
            col = col_data[c]
            del col[pr]
            if not col:
                del col_data[c]
        for r in pcol:
            row = row_data[r]
            if pc in row:
                del row[pc]
            if not row:
                del row_data[r]
        row_data.pop(pr, None)
        col_data.pop(pc, None)
        # eliminate: row r gains -(pcol[r]/pval) * pivot row
        for r, rv in pcol.items():
            if r == pr:
                continue
            factor = rv * pval  # pval is +-1, so rv/pval == rv*pval
            row = row_data.setdefault(r, {})
            for c, v in prow.items():
                if c == pc:
                    continue
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                    col_data.setdefault(c, {})[r] = new
                else:
                    if c in row:
                        del row[c]
                        col = col_data[c]
                        del col[r]
                        if not col:
                            del col_data[c]
            if not row:
                del row_data[r]
        units += 1

    diag = [1] * units
    if row_data:
        live_cols = sorted({c for row in row_data.values() for c in row})
        rows = {r: i for i, r in enumerate(sorted(row_data))}
        cols = {c: j for j, c in enumerate(live_cols)}
        dense = [[0] * len(cols) for _ in rows]
        for r, row in row_data.items():
            for c, v in row.items():
                dense[rows[r]][cols[c]] = v
        diag.extend(smith_form(dense, len(cols)))
    diag.sort()
    return diag


def smith_form(a, n):
    """Smith reduction of a dense integer matrix, minimal-absolute-value pivot.

    ``a`` is an m x n matrix as a list of m rows; it is reduced in place.
    Returns the nonzero invariant factors, each dividing the next.
    """
    m = len(a)

    def row_add(i, j, f):
        # row i += f * row j
        ai, aj = a[i], a[j]
        for t in range(n):
            ai[t] += f * aj[t]

    def col_add(i, j, f):
        # col i += f * col j
        for r in a:
            r[i] += f * r[j]

    top = 0
    diag = []
    while top < m and top < n:
        pivot = None
        best = None
        for i in range(top, m):
            ai = a[i]
            for j in range(top, n):
                v = ai[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != top:
            a[top], a[pi] = a[pi], a[top]
        if pj != top:
            for r in a:
                r[top], r[pj] = r[pj], r[top]
        p = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            q = a[i][top]
            if q:
                row_add(i, top, -(q // p))
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, n):
            q = a[top][j]
            if q:
                col_add(j, top, -(q // p))
                if a[top][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot
        # divisibility fixup: p must divide every remaining entry
        ok = True
        for i in range(top + 1, m):
            ai = a[i]
            for j in range(top + 1, n):
                if ai[j] % p:
                    # fold row i into the pivot row and redo this step
                    row_add(top, i, 1)
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        diag.append(abs(p))
        top += 1
    return diag


def reduce_chain_complex(ranks, cols):
    """Homology-preserving Morse reduction of an integer chain complex.

    ``cols[d][j]`` is the sparse boundary {face: coef} of the j-th d-cell
    (``cols[0]`` columns are empty).  Repeatedly removes coreduction
    pairs (a cell whose boundary is a single unit entry, with that face)
    and collapse pairs (a free face with its unique unit coface); when
    stuck, retires one 0-cell per connected component as an H_0
    generator.  All removed pairs are unit-pivot eliminations, so Betti
    numbers and torsion are unchanged.

    Returns (new_ranks, new_cols, extra_b0) where new_cols index the
    surviving cells densely per dimension and extra_b0 counts the
    retired 0-cells.
    """
    from collections import deque

    dims = len(ranks)
    col = [[dict(c) for c in cols[d]] for d in range(dims)]
    row = [None] * dims  # row[d][i]: cofaces in dim d of (d-1)-cell i
    for d in range(1, dims):
        r = [dict() for _ in range(ranks[d - 1])]
        for j, c in enumerate(col[d]):
            for i, v in c.items():
                r[i][j] = v
        row[d] = r
    live = [[True] * r for r in ranks]
    queue = deque()
    for d in range(1, dims):
        for j, c in enumerate(col[d]):
            if len(c) == 1:
                queue.append(("cor", d, j))
        for i, r in enumerate(row[d]):
            if len(r) == 1:
                queue.append(("col", d, i))

    def drop_upper_row(d, j):
        # cell (d, j) disappears: clear its entries in dim d+1 columns
        if d + 1 < dims:
            for e in list(row[d + 1][j]):
                c = col[d + 1][e]
                del c[j]
                if len(c) == 1:
                    queue.append(("cor", d + 1, e))
            row[d + 1][j] = {}

    def drop_own_column(d, i):
        # cell (d, i) disappears: detach it from its faces' coface rows
        if d >= 1:
            for i2 in col[d][i]:
                r = row[d][i2]
                if i in r:
                    del r[i]
                    if len(r) == 1:
                        queue.append(("col", d, i2))
            col[d][i] = {}

    extra_b0 = 0
    seed_at = 0
    while True:
        if not queue:
            n0 = ranks[0] if ranks else 0
            while seed_at < n0 and not live[0][seed_at]:
                seed_at += 1
            if seed_at >= n0:
                break
            live[0][seed_at] = False
            extra_b0 += 1
            drop_upper_row(0, seed_at)
            continue
        kind, d, x = queue.popleft()
        if kind == "cor":
            j = x
            if not live[d][j] or len(col[d][j]) != 1:
                continue
            (i, coef), = col[d][j].items()
            if coef not in (1, -1) or not live[d - 1][i]:
                continue
            live[d][j] = False
            live[d - 1][i] = False
            # clearing row i needs no arithmetic: every other column's
            # i-entry is a multiple of the unit pivot's full column {i}
            for j2 in list(row[d][i]):
                if j2 == j:
                    continue
                c = col[d][j2]
                del c[i]
                if len(c) == 1:
                    queue.append(("cor", d, j2))
            row[d][i] = {}
            col[d][j] = {}
            drop_upper_row(d, j)
            drop_own_column(d - 1, i)
        else:
            i = x
            if d >= dims or not live[d - 1][i] or len(row[d][i]) != 1:
                continue
            (j, coef), = row[d][i].items()
            if coef not in (1, -1) or not live[d][j]:
                continue
            live[d - 1][i] = False
            live[d][j] = False
            row[d][i] = {}
            for i3 in list(col[d][j]):
                if i3 == i:
                    continue
                r = row[d][i3]
                del r[j]
                if len(r) == 1:
                    queue.append(("col", d, i3))
            col[d][j] = {}
            drop_upper_row(d, j)
            drop_own_column(d - 1, i)

    remap = []
    new_ranks = []
    for d in range(dims):
        m = {}
        for idx in range(ranks[d]):
            if live[d][idx]:
                m[idx] = len(m)
        remap.append(m)
        new_ranks.append(len(m))
    new_cols = []
    for d in range(dims):
        out = []
        lower = remap[d - 1] if d else {}
        for idx in range(ranks[d]):
            if live[d][idx]:
                out.append({lower[i]: v for i, v in col[d][idx].items()})
        new_cols.append(out)
    while new_ranks and new_ranks[-1] == 0:
        new_ranks.pop()
        new_cols.pop()
    return new_ranks, new_cols, extra_b0
