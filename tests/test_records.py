"""The data model of the package's 12 immutable records.

Each case gives a record's class, keyword arguments naming every
constructor field in order, the defaults of the fields it may omit, and
values for the fields that equality and hashing leave out.  Last, the
constructors and the degree arguments refuse what is not an integer.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import quotcoh

from quotcoh.engine import (
    DegenerationStatus, DegreeInvariants, GradedInvariants, QuotientReport, e2_entry,
)
from quotcoh.intmat import IntMatrix, SmithDecomposition, _Frozen
from quotcoh.k3 import K3ActionSpec
from quotcoh.lattices import GLattice, Lattice, group_cohomology
from quotcoh.profiles import JordanProfile
from quotcoh.toric import Cone, CyclicSingularity, Fan

A2 = IntMatrix([[2, -1], [-1, 2]])
SWAP = IntMatrix([[0, 1], [1, 0]])
CONE = Cone(rays=((0, 1), (1, 0)), ambient=2)
ONE, ZERO = DegreeInvariants(rank=1, l_plus=1), DegreeInvariants(rank=0)

# (class, keyword arguments, defaults, fields left out of eq and hash with another value)
CASES = [
    (JordanProfile, dict(p=5, blocks=((1, 2), (5, 1))), {}, {}),
    (SmithDecomposition, dict(u=None, d=IntMatrix.diagonal([1, 6]), v=None, diagonal=(1, 6), rank=2),
     {}, {}),
    (DegreeInvariants, dict(rank=3, l_plus=1, l_minus=1, l_pf=0, l_qt=((1, 1),)),
     dict(l_plus=0, l_minus=0, l_pf=0, l_qt=()), {}),
    (GradedInvariants, dict(p=3, n=1, eta=3, degrees=(ONE, ZERO, ONE), strict=True),
     dict(strict=True), dict(strict=False)),
    (DegenerationStatus, dict(two=True, three=True, one=None, four=None, notes=("note",)),
     dict(notes=()), {}),
    (QuotientReport, dict(p=3, n=1, eta=2, degeneration=DegenerationStatus(True, True, True, True),
                          degenerate=True, alpha={0: 0}, alpha_odd_pair_sums={}, alpha_even_pair_bound=0,
                          even_torsion_free=True, odd_torsion_pairs={}, betti=(1, 0, 1), u={}, beta={},
                          d_p_pairs={}, assumptions=("compact",), conjectural_odd_torsion={1: 0}),
     dict(conjectural_odd_torsion=None), {}),
    (K3ActionSpec, dict(p=2, kind="symplectic", lattice_name="U", n_sing=8, l_plus_2=6, l_p_2=8),
     {}, {}),
    (Lattice, dict(gram=A2), {}, dict(det=0, signature=(0, 0))),
    (GLattice, dict(gram=A2, action=SWAP, p=2, allow_trivial=False),
     dict(allow_trivial=False), dict(allow_trivial=True, _lattice=None, _sigma=None)),
    (Cone, dict(rays=((0, 1), (1, 0)), ambient=2), {}, {}),
    (Fan, dict(maximal=(CONE,), ambient=2), {}, {}),
    (CyclicSingularity, dict(p=5, weights=(1, 2)), {}, {}),
]


@pytest.mark.parametrize("cls, kwargs, defaults, excluded", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, kwargs, defaults, excluded):
    record = cls(**kwargs)
    assert record == cls(*kwargs.values())
    # NamedTuple records are tuples by design; the validated ones equal only their own class
    assert (record == tuple(kwargs.values())) is (not issubclass(cls, _Frozen))
    assert record != object()
    if any(isinstance(v, dict) for v in kwargs.values()):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*kwargs.values()))

    # frozen: no field, and no new attribute, can be assigned or deleted
    for name in [*kwargs, *excluded, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**kwargs)

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
        assert all(getattr(clone, name) == getattr(record, name) for name in excluded)

    required = {k: v for k, v in kwargs.items() if k not in defaults}
    omitted = cls(**required)
    assert {k: getattr(omitted, k) for k in defaults} == defaults

    if excluded:
        # differing only in fields left out of comparison: equal, and hashed alike
        twin = cls(**kwargs)
        for name, value in excluded.items():
            object.__setattr__(twin, name, value)
            assert getattr(twin, name) != getattr(record, name)
        assert twin == record and hash(twin) == hash(record)

    if cls is JordanProfile:
        assert repr(record) == "JordanProfile(p=5, N1^2 + N5)"
    else:
        fields = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
        assert repr(record) == f"{cls.__name__}({fields})"


def test_every_validated_record_has_a_case():
    for module in pkgutil.iter_modules(quotcoh.__path__):
        importlib.import_module(f"quotcoh.{module.name}")
    records, todo = set(), [_Frozen]
    while todo:
        subclasses = todo.pop().__subclasses__()
        records.update(subclasses)
        todo.extend(subclasses)
    assert records <= {case[0] for case in CASES}


K3_DEGREES = (ONE, ZERO, DegreeInvariants(22, 2, 0, 4), ZERO, ONE)

# a float must raise, not be truncated (the ray (1.5, 2) read as (1, 2)), carried
# into the counts (a report with betti 6.0) or read as another degree (1.5 as 2)
NON_INTEGER = {
    "ray entry": lambda: Cone(((1.5, 2), (0, 1)), 2),
    "degree counts": lambda: DegreeInvariants(22.0, 2.0, 0, 4.0),
    "torsion block size": lambda: DegreeInvariants(5, 5, l_qt=((1.0, 2),)),
    "torsion block count": lambda: DegreeInvariants(5, 5, l_qt=((1, 2.0),)),
    "eta": lambda: GradedInvariants(5, 2, 4.0, K3_DEGREES),
    "n": lambda: GradedInvariants(5, 2.0, 4, K3_DEGREES),
    "profile prime": lambda: JordanProfile(5.0, ((1, 2),)),
    "lattice prime": lambda: GLattice(A2, SWAP, 2.0),
    "invariants prime": lambda: GradedInvariants(5.0, 2, 4, K3_DEGREES),
    "profile block size": lambda: JordanProfile(5, ((1.5, 2),)),
    "profile block count": lambda: JordanProfile(5, ((1, 2.0),)),
    "cohomology degree": lambda: group_cohomology(GLattice(A2, SWAP, 2), 1.5),
    "E2 filtration degree": lambda: e2_entry(GradedInvariants(5, 2, 4, K3_DEGREES), 1.5, 2),
}


@pytest.mark.parametrize("name", list(NON_INTEGER))
def test_non_integer_arguments_are_refused(name):
    with pytest.raises(TypeError, match="integer"):
        NON_INTEGER[name]()
