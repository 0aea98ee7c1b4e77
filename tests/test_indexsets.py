import pytest

from hpexp import fem
from hpexp.indexsets import (BasisSpec, bubble_indices, dof_count,
                             enumerate_modes)
from hpexp.projections import _serendipity_mask


def test_bilinear_enumeration():
    modes = enumerate_modes(BasisSpec(2, 1, "Q"))
    assert set(modes) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_total_degree_enumeration():
    modes = enumerate_modes(BasisSpec(2, 2, "P"))
    assert len(modes) == 6
    assert all(sum(m) <= 2 for m in modes)


def test_serendipity_2d_enumeration():
    modes = enumerate_modes(BasisSpec(2, 3, "S"))
    assert len(modes) == 12
    assert (3, 1) in modes and (1, 3) in modes
    # graded lexicographic: sorted by total degree then tuple
    assert modes == sorted(modes, key=lambda m: (sum(m), m))
    # p=1: the two extra monomials coincide, S_1 = Q_1
    assert set(enumerate_modes(BasisSpec(2, 1, "S"))) == \
        set(enumerate_modes(BasisSpec(2, 1, "Q")))


def test_serendipity_3d_has_no_monomial_view():
    with pytest.raises(ValueError):
        enumerate_modes(BasisSpec(3, 4, "S"))


def test_dof_counts():
    assert dof_count(BasisSpec(3, 2, "S")) == 20
    assert dof_count(BasisSpec(3, 4, "Q")) == 125
    assert dof_count(BasisSpec(2, 2, "S")) == 8
    assert dof_count(BasisSpec(2, 1, "S")) == 4
    assert dof_count(BasisSpec(3, 1, "S")) == 8
    assert dof_count(BasisSpec(2, 5, "P")) == 21


def test_dof_count_matches_enumeration():
    for p in range(0, 9):
        for d in (2, 3):
            for fam in ("Q", "P"):
                spec = BasisSpec(d, p, fam)
                assert dof_count(spec) == len(enumerate_modes(spec))
        if p >= 1:
            spec = BasisSpec(2, p, "S")
            assert dof_count(spec) == len(enumerate_modes(spec))


def test_bubble_indices_cases():
    assert bubble_indices(2, 4, "S") == [(1, 1)]
    assert bubble_indices(2, 3, "S") == []
    assert bubble_indices(3, 6, "S") == [(1, 1, 1)]
    # (p-2)(p-3)/2 = 6 modes per face at p = 6; 6*6 + 1 beyond the edges
    assert len(bubble_indices(2, 6, "S")) == 6
    assert 6 * len(bubble_indices(2, 6, "S")) + len(bubble_indices(3, 6, "S")) == 37
    # rank order: graded lexicographic for S, product order for Q
    assert bubble_indices(2, 6, "S") == [(1, 1), (1, 2), (2, 1), (1, 3),
                                         (2, 2), (3, 1)]
    assert bubble_indices(2, 3, "Q") == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for family in ("Q", "S"):
        assert bubble_indices(0, 5, family) == [()]
        assert bubble_indices(1, 5, family) == [(1,), (2,), (3,), (4,)]
        assert bubble_indices(1, 1, family) == []
    with pytest.raises(ValueError):
        bubble_indices(2, 4, "P")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", range(1, 16))
def test_serendipity_census(d, p):
    # the closed form against the FEM dofmap of one element and the
    # projections' mask, three codings of the S rule
    n = dof_count(BasisSpec(d, p, "S"))
    dm = fem.build_dofmap(fem.mesh_uniform(d, 1), p, "S")
    assert dm.n_dof == n
    assert len(dm.local_modes) == n
    assert int(_serendipity_mask((p + 1,) * d, range(d), p).sum()) == n


def test_family_ordering_invariant():
    for d in (2, 3):
        for p in range(1, 31):
            q = dof_count(BasisSpec(d, p, "Q"))
            pp = dof_count(BasisSpec(d, p, "P"))
            s = dof_count(BasisSpec(d, p, "S"))
            assert pp <= s <= q
    assert dof_count(BasisSpec(2, 1, "S")) == dof_count(BasisSpec(2, 1, "Q"))
    assert dof_count(BasisSpec(3, 1, "S")) == dof_count(BasisSpec(3, 1, "Q"))


def test_serendipity_asymptotic_count():
    # Dof(S_p) = p^d/d! (1 + O(1/p)): the ratio stays above 1, decreases, and
    # is bounded by the explicit first-order envelope; the 10% window is hit
    # once p clears the O(1/p) term (p=30 still carries 3/p resp. 6/p of it).
    from math import factorial
    for d, envelope in ((2, 3.5), (3, 7.5)):
        prev = None
        for p in (30, 60, 120, 200):
            ratio = dof_count(BasisSpec(d, p, "S")) * factorial(d) / p ** d
            assert 1.0 < ratio < 1.0 + envelope / p
            if prev is not None:
                assert ratio < prev
            prev = ratio
        assert abs(prev - 1.0) < 0.10


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        BasisSpec(4, 2, "Q")
    with pytest.raises(ValueError):
        BasisSpec(2, 2, "X")
    with pytest.raises(ValueError):
        BasisSpec(2, 0, "S")
