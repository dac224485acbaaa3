"""Base class for immutable value objects: slots, no rebinding, picklable.

An object's state is its slot values in declaration order, bases first:
what __getstate__ pickles.  Equality, hashing and repr read that state, so
a class lists its fields once, in __slots__ (on every class of its MRO):
a == b iff both have the same type and equal states, so an HVector no
longer equals a tuple and a parsed certificate or projection witness
equals the one the search made; hash() hashes the state, so a dict field
(SkewPolyMatrix, RationalPolynomial, EdgeCertificate) raises TypeError;
repr() gives the type name and each slot by name.  MultiPoly, whose state
is a numpy vector, keeps its own methods.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def _all_slots(cls):
        out = []
        for klass in reversed(cls.__mro__):
            out.extend(getattr(klass, "__slots__", ()))
        return out

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._all_slots())

    def __setstate__(self, state):
        for name, value in zip(self._all_slots(), state):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return type(self) is type(other) and self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (n, getattr(self, n)) for n in self._all_slots())
        return "%s(%s)" % (type(self).__name__, fields)
