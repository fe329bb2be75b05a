"""Glued subobjects decided by key containment, built only when read.

comma.glued_subobjects accepts a pair of component subobjects by one key
test and builds its structure map on the first read of obj or mono.  The
solve-per-pair enumeration it replaced is kept in cone_oracle.py as the
oracle: the keys, their order and the classes must be equal, and so must
every object and mono once read, in each glued context of
test_subobject_order.py and on every arrow object of total dimension 4
over F_2.
"""

import pytest

from commacat import comma
from commacat.comma import CommaCategory, glued_subobjects
from commacat.core import Mor
from commacat.errors import ExactnessViolation
from commacat.jordanholder import jh_filtration
from commacat.linalg import Matrix
from commacat.stability import SubobjectLattice, hn_filtration

from cone_oracle import eager_glued_subobjects
from test_stability import _dim_charge
from test_subobject_order import CONFIRMED, MAX_DIM, _contexts

GLUED = ("arrow", "rep-arrow", "tensor-hom-from", "framed-cocomma",
         *CONFIRMED)


def _same_as_the_oracle(cat, x) -> bool:
    """Whether glued_subobjects agrees with the oracle on x; False where
    both raise ExactnessViolation, with the same message."""
    try:
        want = eager_glued_subobjects(cat, x)
    except ExactnessViolation as exc:
        with pytest.raises(ExactnessViolation) as raised:
            glued_subobjects(cat, x)
        assert str(raised.value) == str(exc)
        return False
    got = glued_subobjects(cat, x)
    assert [s.key for s in got] == [s.key for s in want]
    assert [cat.subobject_class(s) for s in got] == [
        cat.class_vector(s.obj) for s in want]
    for lazy, eager in zip(got, want):
        assert (lazy.obj, lazy.mono) == (eager.obj, eager.mono)
        assert lazy == eager and eager == lazy
    return True


@pytest.mark.parametrize("p", sorted(MAX_DIM))
@pytest.mark.parametrize("name", GLUED)
def test_key_rule_matches_the_solve_per_pair(name, p):
    cat = _contexts(p)[name]
    compared = [_same_as_the_oracle(cat, x)
                for x in cat.enumerate_objects(MAX_DIM[p])]
    assert any(compared)
    # an assume_abelian context may fail to enumerate an object; that is
    # its witness, and the key rule must raise there too
    assert all(compared) or name in CONFIRMED


def test_key_rule_matches_on_every_arrow_object_of_dimension_4():
    cat = _contexts(2)["arrow"]
    objects = [x for x in cat.enumerate_objects(4) if cat.dim_total(x) == 4]
    assert len(objects) == 34
    assert all(_same_as_the_oracle(cat, x) for x in objects)


@pytest.mark.parametrize("name", ("arrow", "framed-cocomma"))
def test_a_record_hashes_like_its_eager_twin(name):
    """A record and the eager Subobject of the same pair hash alike, so
    either finds the other in a set; a record compares unequal to
    anything else, and its repr shows its key."""
    cat = _contexts(2)[name]
    x = max(cat.enumerate_objects(MAX_DIM[2]), key=cat.dim_total)
    got, want = glued_subobjects(cat, x), eager_glued_subobjects(cat, x)
    assert len(got) == len(want) > 2
    for lazy, eager in zip(got, want):
        assert hash(lazy) == hash(eager)
        assert lazy in {eager} and eager in {lazy}
        assert lazy != object() and not lazy == object()
        assert repr(lazy) == f"GluedSubobject(key={lazy.key!r})"


def _counting_solver(monkeypatch) -> dict:
    """Count the calls of CommaCategory._structure_solver, and the solves
    through what it returns that raise ExactnessViolation."""
    counts = {"calls": 0, "raised": 0}
    solver = CommaCategory._structure_solver

    def counted(self, *args, **kwargs):
        counts["calls"] += 1
        solve = solver(self, *args, **kwargs)

        def counted_solve(gg):
            try:
                return solve(gg)
            except ExactnessViolation:
                counts["raised"] += 1
                raise
        return counted_solve

    monkeypatch.setattr(CommaCategory, "_structure_solver", counted)
    return counts


def test_a_lattice_builds_no_structure_map_until_one_is_read(monkeypatch):
    """HN and canonical JH on a (3, 3) arrow object read keys and classes
    only; reading one step's object solves for that step alone, once."""
    cat = _contexts(2)["arrow"]
    alpha = Mor(3, 3, Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 1, 0]], 2))
    x = cat.obj(3, 3, alpha)
    # a table kept from an earlier test may hold records already read
    comma._comma_subobjects.cache_clear()
    counts = _counting_solver(monkeypatch)
    lat = SubobjectLattice(cat, x)
    hn = hn_filtration(cat, _dim_charge(cat), x, lattice=lat)
    jh = jh_filtration(cat, x, "canonical", lattice=lat)
    assert hn.length and jh.length == 6
    assert counts["calls"] == 0
    step = jh.steps[2]
    obj = step.obj
    assert counts["calls"] == 1
    assert step.obj is obj and step.mono.source is obj
    assert counts["calls"] == 1
    assert cat.class_vector(obj) == cat.subobject_class(step)


@pytest.mark.parametrize("name", CONFIRMED)
def test_the_confirming_solve_refuses_what_key_containment_accepts(
        monkeypatch, name):
    """Without the leg flag, key containment shows that a structure map
    exists but not that it is unique.  On some pair that passes it, the
    confirming solve finds more than one and raises, so the key test
    alone would have accepted a square that no unique map closes."""
    cat = _contexts(2)[name]
    assert not cat.subobject_key_order_exact
    counts = _counting_solver(monkeypatch)
    refused = 0
    for x in cat.enumerate_objects(MAX_DIM[2]):
        try:
            glued_subobjects(cat, x)
        except ExactnessViolation:
            refused += 1
    assert refused and counts["raised"] == refused
