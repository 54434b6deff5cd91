from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep.extract import TriangleMesh, is_watertight
from flowsep.marching import CASE_TRIS, CORNERS, EDGES, _case_loops, marching_cubes

from .oracles import marching_cubes_loop


@st.composite
def lattices(draw, closed=False):
    """Random binary node lattice, 2-10 nodes per axis, on unequally spaced axes.

    closed=True keeps the outer node layer outside, so the surface cannot leave
    the lattice.
    """
    shape = tuple(draw(st.integers(3 if closed else 2, 10)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = rng.random(shape) < draw(st.floats(0.05, 0.95))
    if closed:
        inside[[0, -1], :, :] = inside[:, [0, -1], :] = inside[:, :, [0, -1]] = False
    axes = tuple(np.cumsum(rng.uniform(0.1, 3.0, n)) - 1.0 for n in shape)
    return inside, axes, rng


def assert_same_mesh(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def on_common_face(ea: int, eb: int) -> bool:
    """Whether cube edges ea and eb lie on one cube face: all four of their
    corners share one coordinate."""
    corners = [CORNERS[c] for c in EDGES[ea] + EDGES[eb]]
    return any(len({p[d] for p in corners}) == 1 for d in range(3))


class TestCaseTable:
    def test_pinned_and_built_of_loop_sides_and_safe_chords(self):
        # the loop oracle shares CASE_TRIS, so only this digest notices a change
        digest = hashlib.sha256(repr(CASE_TRIS).encode()).hexdigest()
        assert digest == "70b97f01cc62f516e026ff319caa025519acd167ca0da5ff977a2620f1d8157f"
        for mask, tris in enumerate(CASE_TRIS):
            loops = _case_loops(mask)
            sides = {frozenset(p) for lp in loops for p in zip(lp, lp[1:] + lp[:1])}
            assert len(tris) == sum(len(lp) - 2 for lp in loops), mask
            for tri in tris:
                for a, b in zip(tri, tri[1:] + tri[:1]):
                    assert frozenset((a, b)) in sides or not on_common_face(a, b), (mask, tri)


class TestMarchingCubesMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(lattice=lattices())
    def test_closed_extraction_equals_loop(self, lattice):
        inside, axes, _ = lattice
        assert_same_mesh(marching_cubes(inside, axes), marching_cubes_loop(inside, axes))

    @settings(max_examples=400, deadline=None)
    @given(lattice=lattices(), density=st.floats(0.0, 0.8), disjoint=st.booleans())
    def test_open_extraction_equals_loop(self, lattice, density, disjoint):
        # disjoint: as for separation surfaces, each node is plus, minus or invalid
        inside, axes, rng = lattice
        invalid = rng.random(inside.shape) < density
        if disjoint:
            invalid &= ~inside
        assert_same_mesh(
            marching_cubes(inside, axes, invalid=invalid),
            marching_cubes_loop(inside, axes, invalid=invalid),
        )

    def test_empty_inputs(self):
        axes = tuple(np.arange(3.0) for _ in range(3))
        for inside in (np.zeros((3, 3, 3), bool), np.ones((3, 3, 3), bool)):
            assert_same_mesh(marching_cubes(inside, axes), marching_cubes_loop(inside, axes))
        inside = np.zeros((3, 3, 3), bool)
        inside[1, 1, 1] = True
        invalid = ~inside
        assert_same_mesh(
            marching_cubes(inside, axes, invalid=invalid),
            marching_cubes_loop(inside, axes, invalid=invalid),
        )
        assert marching_cubes(inside, axes, invalid=invalid)[1].shape == (0, 3)


class TestWatertight:
    @settings(max_examples=300, deadline=None)
    @given(lattice=lattices(closed=True))
    def test_closed_lattice_gives_watertight_mesh(self, lattice):
        inside, axes, _ = lattice
        verts, tris = marching_cubes(inside, axes)
        if not inside.any():
            assert tris.shape == (0, 3)
            return
        mesh = TriangleMesh(vertices=verts, triangles=tris, kind="boundary", label=0)
        assert is_watertight(mesh)
        # every vertex is used and sits on a lattice-edge midpoint inside the box
        assert np.array_equal(np.unique(tris), np.arange(verts.shape[0]))
        for d in range(3):
            assert np.all((verts[:, d] > axes[d][0]) & (verts[:, d] < axes[d][-1]))
