from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep.extract import TriangleMesh, is_watertight
from flowsep.marching import marching_cubes

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
