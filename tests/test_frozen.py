"""The value-object rule of gorlink._frozen.Frozen, checked on one instance
of every Frozen subclass in the package: equality, hashing and pickling
all read the slot state, and no instance carries state outside its slots."""

import importlib
import os
import pickle
import pkgutil
from fractions import Fraction

import pytest

import gorlink
from gorlink._frozen import Frozen
from gorlink.graph import LinkageGraph
from gorlink.hvectors import GorensteinType, HVector, enumerate_candidates
from gorlink.splitstats import RationalPolynomial
from gorlink.store import parse_certificate

FIXTURE_7_1 = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "fixture", "edge_7_1_0a09c033_2024.cert"
)

# state with a dict field: hashing raises TypeError
UNHASHABLE = {"SkewPolyMatrix", "RationalPolynomial", "EdgeCertificate"}


def _frozen_classes():
    found = set()
    for info in pkgutil.iter_modules(gorlink.__path__):
        module = importlib.import_module("gorlink." + info.name)
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Frozen) and value is not Frozen:
                found.add(value)
    return sorted(found, key=lambda cls: cls.__name__)


def _instances():
    cert = parse_certificate(open(FIXTURE_7_1).read())
    return [
        cert,
        cert.h,
        cert.matrix,
        cert.matrix.degree_matrix,
        cert.matrix.upper[(0, 1)],
        cert.witness,
        cert.witness.factor,
        GorensteinType("I", 1, 1),
        enumerate_candidates(1)[0],
        RationalPolynomial({0: 1, 2: Fraction(1, 2)}),
        LinkageGraph([(cert.d, cert.e, cert.h.csv())]),
    ]


INSTANCES = _instances()


def test_every_frozen_class_has_an_instance():
    assert sorted({type(obj) for obj in INSTANCES}, key=lambda c: c.__name__) == _frozen_classes()


@pytest.mark.parametrize("cls", _frozen_classes(), ids=lambda cls: cls.__name__)
def test_frozen_classes_are_slotted_through_the_mro(cls):
    assert all("__slots__" in vars(klass) for klass in cls.__mro__ if klass is not object)


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_value_rule(obj):
    cls = type(obj)
    assert not hasattr(obj, "__dict__")
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and not back != obj
    if cls.__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(back) == hash(obj)
    for name in (cls._all_slots()[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    # an object of another type with the same state is unequal
    twin_type = type("Twin", (Frozen,), {"__slots__": tuple(cls._all_slots())})
    twin = twin_type.__new__(twin_type)
    twin.__setstate__(obj.__getstate__())
    assert twin.__getstate__() == obj.__getstate__()
    assert obj != twin and twin != obj


def test_hvector_is_not_a_tuple():
    h = HVector((1, 3, 3, 1))
    assert h != (1, 3, 3, 1) and (1, 3, 3, 1) != h
    assert h.entries == (1, 3, 3, 1) and h == HVector([1, 3, 3, 1, 0])
    assert repr(h) == "HVector(entries=(1, 3, 3, 1))"
