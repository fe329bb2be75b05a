"""Every enumeration guard refuses a sweep just past its budget, in
process: the dimension-vector and arrow-matrix guards of Rep, the hom
sweep of all_homs, subspace enumeration, and the grid of the wall-scan
oracle."""

import pytest

from commacat import stability
from commacat.acceptance import bundled_toy_system
from commacat.core import all_homs
from commacat.instances import ARROW_QUIVER, Budget, FinVect, Quiver, Rep
from commacat.linalg import BudgetExceeded, enumerate_subspaces


def _path(n: int) -> Rep:
    return Rep(Quiver(n, tuple((i, i + 1) for i in range(n - 1))), 2)


def test_dimension_vector_guard_counts_each_vector_once_per_vertex():
    """C(n + 2, 2) * n against the default 65,536: 62,475 at 49 vertices
    passes, 66,300 at 50 is refused."""
    assert next(iter(_path(49).enumerate_objects(2))).dims == (0,) * 49
    with pytest.raises(BudgetExceeded,
                       match="dimension-vector sweep exceeds vector budget"):
        next(iter(_path(50).enumerate_objects(2)))


def test_arrow_matrix_guard_refuses_what_the_vector_count_lets_through():
    """2 * C(7, 2) = 42 passes a budget of 50; dimensions (2, 3) then need
    2^6 = 64 arrow matrices."""
    rep = Rep(ARROW_QUIVER, 2, Budget(max_vectors=50))
    with pytest.raises(BudgetExceeded, match="arrow-matrix sweep"):
        list(rep.enumerate_objects(5))


def test_hom_sweep_guard():
    """Hom(k^2, k^2) over F_2 holds 2^4 = 16 morphisms, past 8."""
    assert len(list(all_homs(FinVect(2), 2, 2, 16))) == 16
    with pytest.raises(BudgetExceeded, match="hom sweep of size 16"):
        list(all_homs(FinVect(2), 2, 2, 8))


def test_subspace_enumeration_guard():
    """F_2^3 holds 8 vectors, past 7."""
    assert len(enumerate_subspaces(3, 2, 8)) == 16
    with pytest.raises(BudgetExceeded, match="subspace enumeration"):
        enumerate_subspaces(3, 2, 7)


def test_grid_oracle_guard(monkeypatch):
    cat, system, geometry, lo, hi = bundled_toy_system()
    monkeypatch.setattr(stability, "GRID_MAX_POINTS", 1)
    with pytest.raises(BudgetExceeded, match="too fine"):
        stability.alpha_grid_probe(cat, system, geometry, lo, hi)
