"""PIP / geometry kernels vs independent oracles (no Ray)."""

import numpy as np

from rsgislib_ray.functions import geom as G


def _convex_pip_oracle(px, py, ring):
    """Half-plane test for CCW convex rings — independent of ray crossing."""
    xs, ys = ring[0::2], ring[1::2]
    if xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    inside = np.ones(len(px), dtype=bool)
    for i in range(len(xs)):
        x1, y1 = xs[i], ys[i]
        x2, y2 = xs[(i + 1) % len(xs)], ys[(i + 1) % len(xs)]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        inside &= cross > 0
    return inside


def test_pip_rect_and_triangle_vs_halfplane():
    rng = np.random.default_rng(42)
    px = rng.uniform(-1, 11, 4000)
    py = rng.uniform(-1, 11, 4000)
    for ring in [
        G.rect_ring(2, 3, 8, 9),
        np.array([1.0, 1.0, 9.0, 2.0, 5.0, 9.0]),  # CCW triangle
    ]:
        got = G.points_in_ring(px, py, ring)
        want = _convex_pip_oracle(px, py, ring)
        # off-boundary points must agree exactly; the random draws are
        # a.s. off-boundary
        np.testing.assert_array_equal(got, want)


def test_pip_concave_and_closed_ring():
    # L-shaped concave polygon, explicitly closed
    ring = np.array([0, 0, 4, 0, 4, 2, 2, 2, 2, 4, 0, 4, 0, 0], dtype=float)
    px = np.array([1.0, 3.0, 3.0, 1.0, 5.0])
    py = np.array([1.0, 1.0, 3.0, 3.0, 5.0])
    got = G.points_in_ring(px, py, ring)
    np.testing.assert_array_equal(got, [True, True, False, True, False])


def test_pip_shared_edge_partition():
    # two rects sharing the edge x=5: every boundary point belongs to
    # exactly one (half-open edge rule) — no dup, no drop
    left = G.rect_ring(0, 0, 5, 10)
    right = G.rect_ring(5, 0, 10, 10)
    px = np.full(50, 5.0)
    py = np.linspace(0.1, 9.9, 50)
    in_l = G.points_in_ring(px, py, left)
    in_r = G.points_in_ring(px, py, right)
    assert np.all(in_l.astype(int) + in_r.astype(int) == 1)


def test_area_centroid_perimeter():
    ring = G.rect_ring(2, 3, 8, 9)
    assert G.ring_area(ring) == 36.0
    assert G.ring_perimeter(ring) == 24.0
    assert G.ring_centroid(ring) == (5.0, 6.0)
    tri = np.array([0.0, 0.0, 4.0, 0.0, 0.0, 3.0])
    assert G.ring_area(tri) == 6.0
    cx, cy = G.ring_centroid(tri)
    assert abs(cx - 4 / 3) < 1e-12 and abs(cy - 1.0) < 1e-12


def test_rings_bbox_list_layout():
    ring_xy = np.array([0, 0, 4, 0, 4, 4, 0, 4, 10, 10, 12, 11, 11, 13], dtype=float)
    offsets = np.array([0, 4, 7])  # poly0 = 4 pts, poly1 = 3 pts
    xmin, xmax, ymin, ymax = G.rings_bbox(ring_xy, offsets)
    np.testing.assert_array_equal(xmin, [0, 10])
    np.testing.assert_array_equal(xmax, [4, 12])
    np.testing.assert_array_equal(ymin, [0, 10])
    np.testing.assert_array_equal(ymax, [4, 13])


def test_pip_pairs_grouped_refine():
    rng = np.random.default_rng(0)
    rings = [G.rect_ring(0, 0, 5, 5), G.rect_ring(3, 3, 9, 9), G.rect_ring(20, 20, 25, 25)]
    ring_xy = np.concatenate(rings)
    offsets = np.array([0, 4, 8, 12])
    px = rng.uniform(0, 10, 300)
    py = rng.uniform(0, 10, 300)
    # all pairs as candidates
    pair_pt = np.repeat(np.arange(300), 3)
    pair_poly = np.tile(np.arange(3), 300)
    got = G.pip_pairs(px, py, ring_xy, offsets, pair_pt, pair_poly)
    for i, ring in enumerate(rings):
        mask = pair_poly == i
        np.testing.assert_array_equal(
            got[mask], G.points_in_ring(px, py, ring)
        )


def test_pip_pairs_equals_points_in_ring_per_pair():
    """Rings of 3 to 40 vertices on a half-integer lattice, every third
    with an explicit closing vertex, with horizontal edges and points on
    edges and vertices: each pair equals ``points_in_ring``, whatever
    the pair order and the mix of ring sizes."""
    rng = np.random.default_rng(3)
    rings = []
    for j in range(60):
        k = int(rng.integers(3, 41))
        xy = rng.integers(0, 24, (k, 2)) / 2.0
        xy[1::4, 1] = xy[0::4, 1][: len(xy[1::4])]  # horizontal edges
        if j % 3 == 0:
            xy = np.vstack([xy, xy[:1]])
        rings.append(xy.ravel())
    offsets = np.concatenate([[0], np.cumsum([len(r) // 2 for r in rings])])
    ring_xy = np.concatenate(rings)
    px = rng.integers(-2, 26, 400) / 2.0
    py = rng.integers(-2, 26, 400) / 2.0
    pair_pt = rng.integers(0, len(px), 5000)
    pair_poly = rng.integers(0, len(rings), 5000)
    got = G.pip_pairs(px, py, ring_xy, offsets, pair_pt, pair_poly)
    want = np.array(
        [
            G.points_in_ring(px[p : p + 1], py[p : p + 1], rings[z])[0]
            for p, z in zip(pair_pt, pair_poly)
        ]
    )
    np.testing.assert_array_equal(got, want)
    assert 0 < want.sum() < len(want)


def test_clip_polygon_convex():
    from rsgislib_ray.functions.geom import clip_polygon_convex

    rect = G.rect_ring(2, 2, 8, 8)
    # triangle partially overlapping the rect
    tri = np.array([0.0, 0.0, 10.0, 0.0, 5.0, 10.0])
    clipped = clip_polygon_convex(tri, rect)
    assert len(clipped) >= 6
    # clipped area equals the analytic triangle∩rect area
    area = abs(G.ring_area(clipped))
    # brute Monte-Carlo oracle
    rng = np.random.default_rng(42)
    px = rng.uniform(0, 10, 200000)
    py = rng.uniform(0, 10, 200000)
    in_tri = G.points_in_ring(px, py, tri)
    in_rect = G.points_in_ring(px, py, rect)
    mc = (in_tri & in_rect).mean() * 100.0
    assert abs(area - mc) < 0.5
    # disjoint -> empty
    far = G.rect_ring(50, 50, 60, 60)
    assert len(clip_polygon_convex(tri, far)) == 0
    # fully inside -> original area preserved
    inner = np.array([4.0, 3.0, 6.0, 3.0, 5.0, 5.0])
    c2 = clip_polygon_convex(inner, rect)
    assert abs(abs(G.ring_area(c2)) - abs(G.ring_area(inner))) < 1e-12
    # rect∩rect == analytic overlap
    r2 = G.rect_ring(5, 5, 12, 12)
    c3 = clip_polygon_convex(r2, rect)
    assert abs(abs(G.ring_area(c3)) - 9.0) < 1e-12


def test_convex_difference_monte_carlo():
    """A\\B piece decomposition: membership of random points matches
    (in A) and not (in B); areas sum to the closed form."""
    from rsgislib_ray.functions.geom import (
        convex_difference,
        convex_symdiff,
        points_in_ring,
        rect_ring,
        ring_area,
    )

    rng = np.random.default_rng(11)
    for _ in range(20):
        ax0, ay0 = rng.uniform(0, 50, 2)
        aw, ah = rng.uniform(5, 30, 2)
        bx0, by0 = rng.uniform(0, 50, 2)
        bw, bh = rng.uniform(5, 30, 2)
        A = rect_ring(ax0, ay0, ax0 + aw, ay0 + ah)
        B = rect_ring(bx0, by0, bx0 + bw, by0 + bh)
        pieces = convex_difference(A, B)
        iw = max(0.0, min(ax0 + aw, bx0 + bw) - max(ax0, bx0))
        ih = max(0.0, min(ay0 + ah, by0 + bh) - max(ay0, by0))
        want = aw * ah - iw * ih
        got = sum(ring_area(p) for p in pieces)
        assert abs(got - want) < 1e-9
        sd = convex_symdiff(A, B)
        assert abs(sum(ring_area(p) for p in sd) - (aw * ah + bw * bh - 2 * iw * ih)) < 1e-9
        # membership: points in A and not in B are in exactly one piece
        px = rng.uniform(0, 80, 400)
        py = rng.uniform(0, 80, 400)
        in_a = points_in_ring(px, py, A)
        in_b = points_in_ring(px, py, B)
        cnt = np.zeros(400, dtype=int)
        for p in pieces:
            cnt += points_in_ring(px, py, p).astype(int)
        np.testing.assert_array_equal(cnt > 0, in_a & ~in_b)


def test_buffer_and_simplify_roundtrip():
    from rsgislib_ray.functions.geom import (
        buffer_convex_ring,
        rect_ring,
        ring_area,
        simplify_ring,
    )

    ring = rect_ring(0, 0, 10, 6)
    buf = buffer_convex_ring(ring, 2.0, 8)
    # area between square-cap (upper bound) and true round (lower-ish)
    a = ring_area(buf)
    import math

    closed = 60 + 32 * 2.0 + 32 * (4.0 / 2.0) * math.sin(math.pi / 16)
    assert abs(a - closed) < 1e-9
    # a huge tolerance collapses to the two DP anchors (degenerate)
    simp = simplify_ring(buf, 100.0)
    assert len(simp) // 2 >= 2
    # densified rect simplifies to its 4 corners
    dense = np.array([0,0, 5,0, 10,0, 10,3, 10,6, 5,6, 0,6, 0,3], dtype=float)
    s = simplify_ring(dense, 0.01)
    assert len(s) // 2 == 4 and ring_area(s) == 60.0


def test_point_ring_distance_general():
    from rsgislib_ray.functions.geom import point_ring_distance, rect_ring

    # triangle hypotenuse distance + inside-zero + vertex clamp
    tri = np.array([0, 0, 4, 0, 0, 4], dtype=float)
    d = point_ring_distance(
        np.array([4.0, 1.0, -1.0, 5.0]),
        np.array([4.0, 1.0, -1.0, -1.0]),
        tri,
    )
    assert abs(d[0] - 2 * np.sqrt(2)) < 1e-12   # to hypotenuse midpoint
    assert d[1] == 0.0                          # inside
    assert abs(d[2] - np.sqrt(2)) < 1e-12       # to corner (0,0)
    assert abs(d[3] - np.sqrt(2)) < 1e-12       # past corner (4,0)
    # rect case matches the closed form
    r = rect_ring(2, 3, 6, 8)
    rng = np.random.default_rng(9)
    px = rng.uniform(-5, 15, 300)
    py = rng.uniform(-5, 15, 300)
    got = point_ring_distance(px, py, r)
    dx = np.maximum.reduce([2 - px, px - 6, np.zeros_like(px)])
    dy = np.maximum.reduce([3 - py, py - 8, np.zeros_like(py)])
    np.testing.assert_allclose(got, np.hypot(dx, dy), atol=1e-9)


def test_polygon_difference_concave_monte_carlo():
    from rsgislib_ray.functions.geom import (
        points_in_ring,
        polygon_difference,
        rect_ring,
        ring_area,
        triangulate_ring,
    )

    rng = np.random.default_rng(13)
    # concave star-ish hexagon clip
    clip = np.array([10,10, 30,14, 50,10, 44,30, 50,50, 10,46], float)
    assert abs(sum(ring_area(t) for t in triangulate_ring(clip))
               - ring_area(clip)) < 1e-9
    for _ in range(10):
        x0, y0 = rng.uniform(0, 40, 2)
        A = rect_ring(x0, y0, x0 + rng.uniform(5, 25), y0 + rng.uniform(5, 25))
        pieces = polygon_difference(A, clip)
        got = sum(ring_area(p) for p in pieces)
        px = rng.uniform(0, 70, 120000)
        py = rng.uniform(0, 70, 120000)
        inA = points_in_ring(px, py, A)
        inC = points_in_ring(px, py, clip)
        mc = (inA & ~inC).mean() * 4900
        assert abs(got - mc) < 0.35 * np.sqrt(mc + 1)  # MC tolerance
        # piece membership: in exactly A \ clip
        cnt = np.zeros(len(px), dtype=int)
        for p in pieces:
            cnt += points_in_ring(px, py, p).astype(int)
        mism = (cnt > 0) != (inA & ~inC)
        assert mism.mean() < 2e-4  # only boundary-ulp points may differ
