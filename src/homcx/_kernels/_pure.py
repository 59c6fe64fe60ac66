"""Pure-Python hot kernels.

Two inner loops dominate the whole library: backtracking enumeration of
graph homomorphisms and integer reduction of boundary matrices.  Both are
implemented here on plain Python ints (vertex sets as bitmasks, exact
arbitrary-precision matrix entries).  The Morse reduction only deletes
cells, so it reads the boundary columns and never copies or writes them.
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

    Both moves only delete cells, so ``cols`` is read and never written.
    Each cell keeps the count and the index sum of its live faces and of
    its live cofaces: when a count is 1, the sum is the one live
    neighbour, and its coefficient is read from ``cols``.

    Returns (new_ranks, new_cols, extra_b0) where new_cols index the
    surviving cells densely per dimension and extra_b0 counts the
    retired 0-cells.
    """
    from collections import deque

    dims = len(ranks)
    live = [[True] * r for r in ranks]
    # cof[d][i]: the (d+1)-cells with d-cell i in their boundary
    cof = [[[] for _ in range(r)] for r in ranks]
    for d in range(1, dims):
        lower = cof[d - 1]
        for j, col in enumerate(cols[d]):
            for i in col:
                lower[i].append(j)
    n_face = [[len(col) for col in cols[d]] for d in range(dims)]
    s_face = [[sum(col) for col in cols[d]] for d in range(dims)]
    n_cof = [[len(up) for up in cof[d]] for d in range(dims)]
    s_cof = [[sum(up) for up in cof[d]] for d in range(dims)]
    queue = deque()
    for d in range(1, dims):
        queue.extend(("cor", d, j) for j, n in enumerate(n_face[d]) if n == 1)
        queue.extend(("col", d, i) for i, n in enumerate(n_cof[d - 1]) if n == 1)

    def drop_faces(d, x):
        # dead cell (d, x) leaves the coface counts of its live faces
        if d:
            alive, n, s = live[d - 1], n_cof[d - 1], s_cof[d - 1]
            for i in cols[d][x]:
                if alive[i]:
                    n[i] -= 1
                    s[i] -= x
                    if n[i] == 1:
                        queue.append(("col", d, i))

    def drop_cofaces(d, x):
        # dead cell (d, x) leaves the face counts of its live cofaces
        if d + 1 < dims:
            alive, n, s = live[d + 1], n_face[d + 1], s_face[d + 1]
            for j in cof[d][x]:
                if alive[j]:
                    n[j] -= 1
                    s[j] -= x
                    if n[j] == 1:
                        queue.append(("cor", d + 1, j))

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
            drop_cofaces(0, seed_at)
            continue
        kind, d, x = queue.popleft()
        if kind == "cor":
            j = x
            if not live[d][j] or n_face[d][j] != 1:
                continue
            i = s_face[d][j]
        else:
            i = x
            if not live[d - 1][i] or n_cof[d - 1][i] != 1:
                continue
            j = s_cof[d - 1][i]
        if cols[d][j][i] not in (1, -1):
            continue
        live[d][j] = False
        live[d - 1][i] = False
        # j has no other live face in a coreduction and i no other live
        # coface in a collapse; this order of the updates fixes the queue
        # order, and with it which cells survive
        drop_cofaces(d - 1, i)
        drop_faces(d, j)
        drop_cofaces(d, j)
        drop_faces(d - 1, i)

    # the surviving columns, restricted to live rows, indexed densely
    new_ranks = []
    new_cols = []
    lower = {}
    for d in range(dims):
        remap = {}
        out = []
        for idx, alive in enumerate(live[d]):
            if alive:
                remap[idx] = len(remap)
                out.append({lower[i]: v for i, v in cols[d][idx].items() if i in lower})
        new_ranks.append(len(remap))
        new_cols.append(out)
        lower = remap
    while new_ranks and new_ranks[-1] == 0:
        new_ranks.pop()
        new_cols.pop()
    return new_ranks, new_cols, extra_b0
