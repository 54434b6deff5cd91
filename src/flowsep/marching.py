"""Marching cubes on binary node lattices, with an open-surface variant.

Case triangulations are generated at import time by contour tracing: segments
are built per cube face (on the single ambiguous face pattern, the diagonally
opposite positive corners are always kept separate), chained into closed loops
and triangulated by safe chords. Because the face rule is a pure function
of the four shared face values, adjacent cubes always agree on their shared
segments, so closed surfaces come out watertight by construction. Vertices
sit exactly at the midpoints of lattice edges with one positive endpoint.

Extraction is one gather: the mixed cubes are repeated by their case's
triangle count, the triangles' cube edges are read from the padded case table
and keyed as lattice edges, and `np.unique` numbers the vertices.

The signed variant treats invalid nodes as negative for the case lookup, skips
cubes with no valid negative corner and discards every triangle with a vertex
on a lattice edge incident to an invalid node, which opens the surface along
the invalid rim.
"""

from __future__ import annotations

import numpy as np

# corner c sits at offset (c & 1, c >> 1 & 1, c >> 2 & 1)
CORNERS = [(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)]
# 12 cube edges as corner pairs: x-aligned, then y-aligned, then z-aligned
EDGES = [
    (0, 1), (2, 3), (4, 5), (6, 7),
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
]


def _faces():
    faces = []
    for axis in range(3):
        for side in range(2):
            corners = [c for c in range(8) if CORNERS[c][axis] == side]
            cset = set(corners)
            edges = [e for e, (u, v) in enumerate(EDGES) if u in cset and v in cset]
            faces.append((corners, edges))
    return faces


FACES = _faces()


def _case_loops(mask: int) -> list[list[int]]:
    """Closed contour loops (as cube-edge index cycles) for one corner sign mask."""
    inside = [(mask >> c) & 1 for c in range(8)]
    crossing = {e for e, (u, v) in enumerate(EDGES) if inside[u] != inside[v]}
    if not crossing:
        return []
    partners: dict[int, list[int]] = {e: [] for e in crossing}
    for corners, edges in FACES:
        fcross = [e for e in edges if e in crossing]
        if len(fcross) == 2:
            a, b = fcross
            partners[a].append(b)
            partners[b].append(a)
        elif len(fcross) == 4:
            # ambiguous face: positives are diagonal; cut each one off separately
            for p in corners:
                if not inside[p]:
                    continue
                pa, pb = [e for e in fcross if p in EDGES[e]]
                partners[pa].append(pb)
                partners[pb].append(pa)
    loops = []
    seen: set[int] = set()
    for start in sorted(partners):
        if start in seen:
            continue
        if len(partners[start]) != 2:
            raise AssertionError(f"case {mask}: edge {start} has degree {len(partners[start])}")
        loop = [start]
        seen.add(start)
        prev, cur = -1, start
        while True:
            a, b = partners[cur]
            nxt = a if a != prev else b
            if nxt == start:
                break
            loop.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        loops.append(loop)
    return loops


EDGE_FACES = [
    frozenset(f for f, (_, fedges) in enumerate(FACES) if e in fedges) for e in range(12)
]


def _chord_is_safe(ea: int, eb: int) -> bool:
    """A chord between two loop vertices stays strictly inside the cube iff its
    endpoint edges share no cube face; only such chords are guaranteed not to
    coincide with geometry emitted by a neighboring cube."""
    return not (EDGE_FACES[ea] & EDGE_FACES[eb])


def _triangulate_chain(c: tuple[int, ...], sides: set) -> tuple | None:
    """The first safe triangulation of chain c: at the first apex m whose triangle
    (c[0], c[m], c[-1]) has only loop sides and safe chords as edges and whose
    sub-chains c[:m+1] and c[m:] triangulate alike, their triangles, then it.
    None if no apex works; () for a chain of fewer than 3 vertices."""
    if len(c) < 3:
        return ()
    for m in range(1, len(c) - 1):
        edges = ((c[0], c[m]), (c[m], c[-1]), (c[-1], c[0]))
        if all(frozenset(e) in sides or _chord_is_safe(*e) for e in edges):
            left, right = _triangulate_chain(c[: m + 1], sides), _triangulate_chain(c[m:], sides)
            if left is not None and right is not None:
                return left + right + ((c[0], c[m], c[-1]),)
    return None


def _case_triangles(mask: int) -> list[tuple[int, int, int]]:
    """The triangles of case `mask`: each contour loop's first safe triangulation."""
    tris = []
    for loop in _case_loops(mask):
        sides = {frozenset((loop[t], loop[t - 1])) for t in range(len(loop))}
        chain = _triangulate_chain(tuple(loop), sides)
        if chain is None:
            raise AssertionError(f"no safe triangulation for loop {loop}")
        tris.extend(chain)
    return tris


CASE_TRIS = [_case_triangles(m) for m in range(256)]


def _padded_table() -> tuple[np.ndarray, np.ndarray]:
    """CASE_TRIS as one (256, max_tris, 3) cube-edge array, zero padded, and the
    per-case triangle counts."""
    counts = np.array([len(tris) for tris in CASE_TRIS])
    table = np.zeros((256, counts.max(), 3), dtype=np.int8)
    for mask, tris in enumerate(CASE_TRIS):
        if tris:
            table[mask, : len(tris)] = tris
    return table, counts


CASE_EDGES, CASE_COUNTS = _padded_table()
EDGE_AXIS = np.array([e // 4 for e in range(12)])
EDGE_LOW = np.array([CORNERS[u] for u, _ in EDGES])  # lower corner offset per edge


def marching_cubes(
    inside: np.ndarray,
    axes: tuple[np.ndarray, np.ndarray, np.ndarray],
    invalid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate the 0.5-level set of a binary node lattice.

    inside:  (ni, nj, nk) bool node values
    axes:    node coordinate arrays per axis
    invalid: optional bool mask of outer nodes; these count as outside for the
             case lookup and every triangle touching an edge with an invalid
             endpoint is discarded (open-surface extraction)

    Returns (vertices, triangles). Triangles follow the mixed cubes in C order,
    each cube's in table order. Vertices are numbered by first visit along
    that order, where a discarded triangle visits its edges up to the first
    invalid one, and only the vertices of kept triangles remain.
    """
    inside = np.asarray(inside, dtype=bool)
    ni, nj, nk = inside.shape
    if min(ni, nj, nk) < 2 or not inside.any():
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int32)

    # bits 0-7 of a cube's code mark its inside corners, bits 8-15 its valid
    # outside ones; a cube keeps triangles only with both, since each crossing
    # edge of a cube without a valid outside corner ends at an invalid node
    outside = ~inside if invalid is None else ~(inside | np.asarray(invalid, dtype=bool))
    node = inside.astype(np.uint16) | outside.astype(np.uint16) << 8
    code = np.zeros((ni - 1, nj - 1, nk - 1), dtype=np.uint16)
    for c, (cx, cy, cz) in enumerate(CORNERS):
        code += node[cx : cx + ni - 1, cy : cy + nj - 1, cz : cz + nk - 1] << c
    del outside, node
    i, j, k = np.nonzero(((code & 255) > 0) & (code > 255))

    # one row per triangle; a lattice edge is keyed 3 * (flat lower node) + axis
    cases = code[i, j, k] & 255
    del code
    counts = CASE_COUNTS[cases]
    cube = np.repeat(np.arange(cases.size), counts)
    nth = np.arange(cube.size) - np.repeat(np.cumsum(counts) - counts, counts)
    stride = np.array([1, ni, ni * nj])
    edge_key = 3 * (EDGE_LOW @ stride) + EDGE_AXIS
    keys = 3 * (i + ni * (j + nj * k))[cube, None] + edge_key[CASE_EDGES[cases[cube], nth]]
    del i, j, k, cases, counts, cube, nth  # free before the per-triangle passes

    if invalid is None:
        visited, kept = keys.ravel(), slice(None)  # every triangle is kept
    else:
        inv_flat = np.asarray(invalid, dtype=bool).reshape(-1, order="F")
        low, axis = np.divmod(keys, 3)
        bad = inv_flat[low] | inv_flat[low + stride[axis]]
        # a discarded triangle visits its edges up to the first invalid one
        visit = ~np.logical_or.accumulate(bad, axis=1)
        del inv_flat, low, axis, bad
        # the visited entries that belong to kept triangles
        visited, kept = keys[visit], np.broadcast_to(visit[:, 2:], visit.shape)[visit]

    # number the visited lattice edges by first visit; keep those of kept triangles
    uniq, first, slot = np.unique(visited, return_index=True, return_inverse=True)
    slot = slot[kept]
    used = np.zeros(uniq.size, dtype=bool)
    used[slot] = True
    order = np.nonzero(used)[0]
    order = order[np.argsort(first[order])]
    vid = np.empty(uniq.size, dtype=np.int32)
    vid[order] = np.arange(order.size, dtype=np.int32)

    low, axis = np.divmod(uniq[order], 3)
    node = (low % ni, low // ni % nj, low // (ni * nj))
    verts = np.empty((order.size, 3))
    for d in range(3):
        a = np.asarray(axes[d], dtype=np.float64)
        verts[:, d] = 0.5 * (a[node[d]] + a[node[d] + (axis == d)])
    return verts, vid[slot].reshape(-1, 3)
