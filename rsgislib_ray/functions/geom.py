"""Vectorized planar geometry kernels (numpy, no GDAL/shapely).

The reference delegates point-in-polygon work to GDAL rasterization
(/root/reference/python/rsgislib/zonalstats/__init__.py:421-430) and to
geopandas/rtree (vectorattrs/__init__.py:1229-1307). Here geometry is
numpy over Arrow buffers: rings are flat ``[x1, y1, x2, y2, ...]``
float64 arrays (closure implicit — the edge last->first is always
included), polygon sets are (ring_xy, ring_offsets) in the classic
Arrow list layout.

PIP uses even-odd ray crossing with the half-open edge rule
(``(y1 > y) != (y2 > y)``), which makes point sets partition cleanly
across polygons sharing an edge; boundary points are assigned
deterministically, not duplicated.
"""

from __future__ import annotations

import numpy as np


def rings_bbox(
    ring_xy: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized envelopes for a polygon set in Arrow list layout.

    ``offsets`` are COORD-PAIR offsets (len = n_polys + 1) into
    ``ring_xy`` viewed as (n_pairs, 2). Mirrors
    vectorattrs.pop_bbox_cols (/root/reference/.../vectorattrs/__init__.py:278).
    """
    pts = ring_xy.reshape(-1, 2)
    xs, ys = pts[:, 0], pts[:, 1]
    xmin = np.minimum.reduceat(xs, offsets[:-1])
    xmax = np.maximum.reduceat(xs, offsets[:-1])
    ymin = np.minimum.reduceat(ys, offsets[:-1])
    ymax = np.maximum.reduceat(ys, offsets[:-1])
    return xmin, xmax, ymin, ymax


def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd ray-crossing PIP of many points against ONE ring.

    Vectorized over points x edges; rings in this engine are small
    (tens of vertices) so the (P, E) broadcast is cheap. Returns bool.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    xs = ring[0::2]
    ys = ring[1::2]
    # Drop an explicit closing vertex so the implicit closure edge
    # isn't counted twice.
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs = xs[:-1]
        ys = ys[:-1]
    x1, y1 = xs, ys
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    p_y = py[:, None]
    p_x = px[:, None]
    crosses = (y1[None, :] > p_y) != (y2[None, :] > p_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1[None, :] + (p_y - y1[None, :]) * (x2 - x1)[None, :] / (y2 - y1)[
            None, :
        ]
    hits = crosses & (p_x < x_at)
    return hits.sum(axis=1) % 2 == 1


def pip_pairs(
    px: np.ndarray,
    py: np.ndarray,
    ring_xy: np.ndarray,
    ring_offsets: np.ndarray,
    pair_pt: np.ndarray,
    pair_poly: np.ndarray,
) -> np.ndarray:
    """PIP refinement over candidate (point, polygon) pairs — the
    refine step after an STRtree/cell candidate pass. Returns bool per
    pair, bit-identical to :func:`points_in_ring` on each pair.

    Loops over EDGE INDEX, not over polygons: the pairs are ordered by
    their polygon's edge count, descending, so step ``e`` tests edge
    ``e`` of a prefix (every pair whose polygon has more than ``e``
    edges) and XORs its crossings in. The cost is one vectorized pass
    per edge of the largest ring, however many polygons there are.
    """
    out = np.zeros(len(pair_pt), dtype=bool)
    if len(pair_pt) == 0:
        return out
    xs, ys = ring_xy[0::2], ring_xy[1::2]
    start = ring_offsets[pair_poly]
    m = ring_offsets[pair_poly + 1] - start
    # drop an explicit closing vertex, as points_in_ring does
    h = np.flatnonzero(m > 1)
    first, last = start[h], start[h] + m[h] - 1
    m[h] -= (xs[first] == xs[last]) & (ys[first] == ys[last])
    order = np.argsort(-m, kind="stable")
    m, start = m[order], start[order]
    p_x = np.asarray(px, dtype=np.float64)[pair_pt[order]]
    p_y = np.asarray(py, dtype=np.float64)[pair_pt[order]]
    odd = np.zeros(len(order), dtype=bool)
    neg_m = -m  # ascending
    for e in range(int(m[0])):
        k = int(np.searchsorted(neg_m, -e, "left"))  # pairs with m > e
        s = start[:k]
        i1 = s + e
        i2 = s + np.where(e + 1 < m[:k], e + 1, 0)
        x1, y1, x2, y2 = xs[i1], ys[i1], xs[i2], ys[i2]
        q_y = p_y[:k]
        crosses = (y1 > q_y) != (y2 > q_y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (q_y - y1) * (x2 - x1) / (y2 - y1)
        odd[:k] ^= crosses & (p_x[:k] < x_at)
    out[order] = odd
    return out


def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area (positive = counter-clockwise). Mirrors the
    scalar geometry helpers (vectorattrs/__init__.py:1873)."""
    xs = ring[0::2]
    ys = ring[1::2]
    return 0.5 * float(np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys))


def ring_perimeter(ring: np.ndarray) -> float:
    xs = ring[0::2]
    ys = ring[1::2]
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    dx = np.roll(xs, -1) - xs
    dy = np.roll(ys, -1) - ys
    return float(np.sum(np.hypot(dx, dy)))


def ring_centroid(ring: np.ndarray) -> tuple[float, float]:
    """Area-weighted polygon centroid (falls back to vertex mean for
    degenerate zero-area rings)."""
    xs = ring[0::2]
    ys = ring[1::2]
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    cross = xs * y2 - x2 * ys
    a = cross.sum() / 2.0
    if a == 0.0:
        return float(xs.mean()), float(ys.mean())
    cx = float(((xs + x2) * cross).sum() / (6.0 * a))
    cy = float(((ys + y2) * cross).sum() / (6.0 * a))
    return cx, cy


def rect_ring(xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
    """Axis-aligned rectangle as a CCW ring (test/fixture helper)."""
    return np.asarray(
        [xmin, ymin, xmax, ymin, xmax, ymax, xmin, ymax], dtype=np.float64
    )


def clip_polygon_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping: ``subject`` (any simple ring)
    clipped against a CONVEX CCW ``clip`` ring. Both are flat
    [x1, y1, ...] arrays; returns the clipped ring (possibly empty).
    This is the polygon-clipping core of the overlay family
    (/root/reference/python/rsgislib/vectorgeoms/__init__.py:1292
    geopandas overlay); rect zones are convex, so zone-vs-anything
    intersection is exact."""
    sx = list(subject[0::2])
    sy = list(subject[1::2])
    if len(sx) > 1 and sx[0] == sx[-1] and sy[0] == sy[-1]:
        sx, sy = sx[:-1], sy[:-1]
    cx = clip[0::2]
    cy = clip[1::2]
    if len(cx) > 1 and cx[0] == cx[-1] and cy[0] == cy[-1]:
        cx, cy = cx[:-1], cy[:-1]
    n = len(cx)
    for i in range(n):
        ex1, ey1 = cx[i], cy[i]
        ex2, ey2 = cx[(i + 1) % n], cy[(i + 1) % n]
        if not sx:
            break
        nx_, ny_ = [], []
        m = len(sx)
        for j in range(m):
            px1, py1 = sx[j], sy[j]
            px2, py2 = sx[(j + 1) % m], sy[(j + 1) % m]
            in1 = (ex2 - ex1) * (py1 - ey1) - (ey2 - ey1) * (px1 - ex1) >= 0
            in2 = (ex2 - ex1) * (py2 - ey1) - (ey2 - ey1) * (px2 - ex1) >= 0
            if in1:
                nx_.append(px1)
                ny_.append(py1)
            if in1 != in2:
                # solve cross(e2-e1, p1 + t (p2-p1) - e1) = 0
                den = (ex2 - ex1) * (py2 - py1) - (ey2 - ey1) * (px2 - px1)
                if den != 0:
                    num = (ex2 - ex1) * (py1 - ey1) - (ey2 - ey1) * (px1 - ex1)
                    t = -num / den
                    nx_.append(px1 + t * (px2 - px1))
                    ny_.append(py1 + t * (py2 - py1))
        sx, sy = nx_, ny_
    out = np.empty(2 * len(sx))
    out[0::2] = sx
    out[1::2] = sy
    return out


def clip_halfplane(
    subject: np.ndarray, ax: float, ay: float, bx: float, by: float
) -> np.ndarray:
    """Keep the part of ``subject`` on or LEFT of the directed line
    a->b (one Sutherland-Hodgman pass against an unbounded half-plane).
    Building block for the overlay difference/symdiff family
    (/root/reference/python/rsgislib/vectorgeoms/__init__.py:1344-1505).
    """
    sx = list(subject[0::2])
    sy = list(subject[1::2])
    if len(sx) > 1 and sx[0] == sx[-1] and sy[0] == sy[-1]:
        sx, sy = sx[:-1], sy[:-1]
    ex, ey = bx - ax, by - ay
    nx_, ny_ = [], []
    m = len(sx)
    for j in range(m):
        px1, py1 = sx[j], sy[j]
        px2, py2 = sx[(j + 1) % m], sy[(j + 1) % m]
        in1 = ex * (py1 - ay) - ey * (px1 - ax) >= 0
        in2 = ex * (py2 - ay) - ey * (px2 - ax) >= 0
        if in1:
            nx_.append(px1)
            ny_.append(py1)
        if in1 != in2:
            den = ex * (py2 - py1) - ey * (px2 - px1)
            if den != 0:
                num = ex * (py1 - ay) - ey * (px1 - ax)
                t = -num / den
                nx_.append(px1 + t * (px2 - px1))
                ny_.append(py1 + t * (py2 - py1))
    out = np.empty(2 * len(nx_))
    out[0::2] = nx_
    out[1::2] = ny_
    return out


def convex_difference(subject: np.ndarray, clip: np.ndarray) -> list:
    """``subject`` minus a CONVEX CCW ``clip`` ring, returned as a list
    of disjoint pieces (vectorgeoms difference,
    /root/reference/python/rsgislib/vectorgeoms/__init__.py:1344).

    Decomposition: the complement of a convex region is the disjoint
    union of wedges W_i = outside(e_i) ∩ inside(e_1..i-1); clipping the
    subject to each wedge with half-plane passes is exact. Areas are
    exact for any simple subject; for non-convex subjects a piece can
    carry zero-width bridge edges (standard Sutherland-Hodgman
    artifact) that do not affect area or containment."""
    cx = clip[0::2]
    cy = clip[1::2]
    if len(cx) > 1 and cx[0] == cx[-1] and cy[0] == cy[-1]:
        cx, cy = cx[:-1], cy[:-1]
    pieces = []
    remaining = np.asarray(subject, dtype=np.float64)
    n = len(cx)
    for i in range(n):
        if len(remaining) < 6:
            break
        ax_, ay_ = cx[i], cy[i]
        bx_, by_ = cx[(i + 1) % n], cy[(i + 1) % n]
        # outside of edge i = left of the REVERSED edge b->a
        out_piece = clip_halfplane(remaining, bx_, by_, ax_, ay_)
        if len(out_piece) >= 6 and abs(ring_area(out_piece)) > 1e-12:
            pieces.append(out_piece)
        remaining = clip_halfplane(remaining, ax_, ay_, bx_, by_)
    return pieces


def convex_symdiff(a: np.ndarray, b: np.ndarray) -> list:
    """Symmetric difference of two CONVEX rings as disjoint pieces
    (vectorgeoms symmetric_difference,
    /root/reference/python/rsgislib/vectorgeoms/__init__.py:1450)."""
    return convex_difference(a, b) + convex_difference(b, a)


def buffer_convex_ring(
    ring: np.ndarray, dist: float, seg_per_quarter: int = 8
) -> np.ndarray:
    """Round-join Minkowski buffer of a CONVEX CCW ring: each edge is
    offset outward by ``dist`` and consecutive edges are joined by
    sampled arc fans (vectorgeoms buffer_vec_lyr,
    /root/reference/python/rsgislib/vectorgeoms/__init__.py:1831,1953).
    Exact up to arc sampling; the sampled area has the closed form
    area + perimeter*d + k*d^2*sin(pi/k)*cos(pi/k) summed over the full
    turn (k = total arc segments over 2*pi)."""
    xs = ring[0::2]
    ys = ring[1::2]
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    n = len(xs)
    out_x: list = []
    out_y: list = []
    for i in range(n):
        x0, y0 = xs[i - 1], ys[i - 1]
        x1, y1 = xs[i], ys[i]
        x2, y2 = xs[(i + 1) % n], ys[(i + 1) % n]
        # outward normals of incoming and outgoing edges (CCW ring:
        # interior on the left, outward = right of travel direction)
        def _norm(dx, dy):
            L = np.hypot(dx, dy)
            return (dy / L, -dx / L) if L > 0 else (0.0, 0.0)

        nin = _norm(x1 - x0, y1 - y0)
        nout = _norm(x2 - x1, y2 - y1)
        a0 = np.arctan2(nin[1], nin[0])
        a1 = np.arctan2(nout[1], nout[0])
        turn = a1 - a0
        while turn < 0:
            turn += 2 * np.pi
        while turn >= 2 * np.pi:
            turn -= 2 * np.pi
        steps = max(1, int(np.ceil(turn / (np.pi / 2) * seg_per_quarter)))
        for s in range(steps + 1):
            ang = a0 + turn * s / steps
            out_x.append(x1 + dist * np.cos(ang))
            out_y.append(y1 + dist * np.sin(ang))
    out = np.empty(2 * len(out_x))
    out[0::2] = out_x
    out[1::2] = out_y
    return out


def douglas_peucker(
    xs: np.ndarray, ys: np.ndarray, tol: float
) -> np.ndarray:
    """Keep-mask for Douglas-Peucker simplification of an OPEN polyline
    (iterative stack, numpy distance kernel per segment —
    vectorgeoms simplify via shapely.simplify,
    /root/reference/python/rsgislib/vectorgeoms/__init__.py:3276)."""
    n = len(xs)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[n - 1] = True
    stack = [(0, n - 1)]
    while stack:
        i0, i1 = stack.pop()
        if i1 <= i0 + 1:
            continue
        x0, y0, x1, y1 = xs[i0], ys[i0], xs[i1], ys[i1]
        seg = np.arange(i0 + 1, i1)
        dx, dy = x1 - x0, y1 - y0
        L = np.hypot(dx, dy)
        if L == 0:
            d = np.hypot(xs[seg] - x0, ys[seg] - y0)
        else:
            d = np.abs(dy * (xs[seg] - x0) - dx * (ys[seg] - y0)) / L
        imax = int(np.argmax(d))
        if d[imax] > tol:
            split = seg[imax]
            keep[split] = True
            stack.append((i0, split))
            stack.append((split, i1))
    return keep


def simplify_ring(ring: np.ndarray, tol: float) -> np.ndarray:
    """Douglas-Peucker on a CLOSED ring: anchor at the first vertex and
    the vertex farthest from it (deterministic), simplify both halves.
    Returns the simplified flat ring (closure implicit)."""
    xs = ring[0::2].copy()
    ys = ring[1::2].copy()
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    n = len(xs)
    if n <= 3:
        out = np.empty(2 * n)
        out[0::2] = xs
        out[1::2] = ys
        return out
    far = int(np.argmax((xs - xs[0]) ** 2 + (ys - ys[0]) ** 2))
    idx1 = np.arange(0, far + 1)
    idx2 = np.concatenate([np.arange(far, n), [0]])
    k1 = douglas_peucker(xs[idx1], ys[idx1], tol)
    k2 = douglas_peucker(xs[idx2], ys[idx2], tol)
    sel = np.concatenate([idx1[k1], idx2[k2][1:-1]])
    sel = np.unique(sel)  # ascending original order keeps orientation
    out = np.empty(2 * len(sel))
    out[0::2] = xs[sel]
    out[1::2] = ys[sel]
    return out


def point_ring_distance(
    px: np.ndarray, py: np.ndarray, ring: np.ndarray
) -> np.ndarray:
    """Distance from many points to ONE polygon (0 inside): min
    point-to-segment distance over the ring's edges, vectorized
    (P x E), masked to 0 for interior points. Generalizes the
    rect-only distance path of create_dist_zones_to_vec_layer
    (/root/reference/python/rsgislib/imagecalc/__init__.py dist-zones
    family) to arbitrary simple rings."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    xs = ring[0::2]
    ys = ring[1::2]
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    x1, y1 = xs, ys
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    ex = (x2 - x1)[None, :]
    ey = (y2 - y1)[None, :]
    wx = px[:, None] - x1[None, :]
    wy = py[:, None] - y1[None, :]
    seg_len2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.where(seg_len2 > 0, (wx * ex + wy * ey) / seg_len2, 0.0), 0.0, 1.0)
    dx = wx - t * ex
    dy = wy - t * ey
    d = np.sqrt((dx * dx + dy * dy).min(axis=1))
    inside = points_in_ring(px, py, ring)
    d[inside] = 0.0
    return d


def triangulate_ring(ring: np.ndarray) -> list:
    """Ear-clipping triangulation of a SIMPLE ring (CCW or CW input;
    works on the CCW orientation internally). Returns a list of flat
    6-element triangle rings whose union is the polygon — the
    decomposition that lifts the convex-only overlay ops to arbitrary
    simple polygons (vectorgeoms difference/overlay family,
    /root/reference/python/rsgislib/vectorgeoms/__init__.py:1344)."""
    xs = list(ring[0::2])
    ys = list(ring[1::2])
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    n = len(xs)
    if n < 3:
        return []
    if ring_area(np.asarray([v for p in zip(xs, ys) for v in p])) < 0:
        xs, ys = xs[::-1], ys[::-1]  # enforce CCW
    idx = list(range(len(xs)))
    tris = []
    guard = 0
    while len(idx) > 3 and guard < 10000:
        guard += 1
        n_i = len(idx)
        ear_found = False
        for k in range(n_i):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n_i]
            ax, ay = xs[i0], ys[i0]
            bx, by = xs[i1], ys[i1]
            cx, cy = xs[i2], ys[i2]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross <= 0:
                continue  # reflex or degenerate corner
            # no other active vertex strictly inside the candidate ear
            tri = np.asarray([ax, ay, bx, by, cx, cy])
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if points_in_ring(
                    np.asarray([xs[j]]), np.asarray([ys[j]]), tri
                )[0]:
                    ok = False
                    break
            if ok:
                tris.append(tri)
                del idx[k]
                ear_found = True
                break
        if not ear_found:  # numerically stuck: clip the least-reflex ear
            i0, i1, i2 = idx[0], idx[1], idx[2]
            tris.append(
                np.asarray([xs[i0], ys[i0], xs[i1], ys[i1], xs[i2], ys[i2]])
            )
            del idx[1]
    if len(idx) == 3:
        i0, i1, i2 = idx
        tris.append(
            np.asarray([xs[i0], ys[i0], xs[i1], ys[i1], xs[i2], ys[i2]])
        )
    return [t for t in tris if abs(ring_area(t)) > 1e-12]


def polygon_intersection(a: np.ndarray, b: np.ndarray) -> list:
    """``a ∩ b`` for ARBITRARY simple rings as disjoint piece polygons:
    triangulate both, clip every CCW a-triangle against every CCW
    b-triangle (both convex -> Sutherland-Hodgman is exact). Pieces are
    disjoint up to shared edges (a-triangles disjoint; b-triangles
    disjoint within each), and their union is a ∩ b — the general
    concave x concave overlay the reference gets from geopandas
    (/root/reference/python/rsgislib/vectorgeoms/__init__.py:
    1292-1505)."""
    tbs = triangulate_ring(b)
    out = []
    for ta in triangulate_ring(a):
        for tb in tbs:
            p = clip_polygon_convex(ta, tb)
            if len(p) >= 6 and abs(ring_area(p)) > 1e-12:
                out.append(p)
    return out


def polygon_symdiff_pieces(a: np.ndarray, b: np.ndarray) -> list:
    """Symmetric difference of two ARBITRARY simple rings as disjoint
    pieces ((a − b) ∪ (b − a); each side via
    :func:`polygon_difference`)."""
    return polygon_difference(a, b) + polygon_difference(b, a)


def polygon_union_pieces(a: np.ndarray, b: np.ndarray) -> list:
    """Union of two ARBITRARY simple rings as disjoint pieces
    ((a ∩ b) ∪ (a − b) ∪ (b − a))."""
    return (
        polygon_intersection(a, b)
        + polygon_difference(a, b)
        + polygon_difference(b, a)
    )


def polygon_difference(subject: np.ndarray, clip: np.ndarray) -> list:
    """``subject`` minus an ARBITRARY simple ``clip`` ring: triangulate
    the clip and fold :func:`convex_difference` over the triangles
    (A \\ (T1 u T2 u ...) = ((A \\ T1) \\ T2) ... — triangles are
    disjoint up to shared edges, so piece areas stay exact). Returns
    disjoint pieces."""
    pieces = [np.asarray(subject, dtype=np.float64)]
    for tri in triangulate_ring(clip):
        nxt = []
        for p in pieces:
            nxt.extend(convex_difference(p, tri))
        pieces = nxt
        if not pieces:
            break
    return pieces
