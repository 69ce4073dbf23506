"""Each record class against the ``@dataclass(frozen=True)`` it stands in for."""

import dataclasses
import math
from array import array

import numpy as np
import pytest

from vlcrelay import _trace, channel, clusters, codec, laws, node, safety, sim
from vlcrelay._record import Record

import oracles

NB = laws.FitResult(laws.Family.NEG_BINOMIAL, (0.1691, 0.0638))
POISSON = laws.FitResult(laws.Family.POISSON, (0.4,), max_cdf_error=0.01)

# two different values of each record class, each as its positional arguments
SAMPLES = {
    node.LinkConfig: ((230000, "broadcast", 0.0, 0.1, 1e-05, 2.85e-05),
                      (115200, node.Mode.BEACON, 1e-4, 0.05, 2e-05, 3e-05)),
    _trace.BinaryTrace: ((node.LinkConfig(), "iid-packet:p=0.1", 3, 13, b"\xa5\xa0"),
                         (node.LinkConfig(), "iid-packet:p=0.1", 4, 13, b"\xa5\xa0")),
    channel.IidPacket: ((0.1,), (0.2,)),
    channel.IidBit: ((0.003,), (0.0,)),
    channel.GilbertElliott: ((0.02, 0.1, 0.01, 0.5), (0.02, 0.1, 0.01, 0.6)),
    channel.NbCluster: ((0.1691, 0.0638, 0.05), (5.0, 0.5, 0.02)),
    channel.PerDistanceTable: ((np.array([10.0, 20.0]), np.array([230000, 230000]),
                                np.array([0.01, 0.1])),
                               (np.array([10.0]), np.array([115200]), np.array([0.2]))),
    laws.FitResult: ((laws.Family.NEG_BINOMIAL, (0.1691, 0.0638), math.nan),
                     (laws.Family.POISSON, (0.4,), 0.01)),
    laws.LatencyParams: ((5.9e-4, 0.0, 2.8e-4), (5.9e-4, 1e-4, 2.8e-4)),
    laws.ModelTable: (((0.01, 0.3), (POISSON, NB)), ((0.3,), (NB,))),
    laws.SalPoint: ((0.1, 0.999, 4, 1.2e-3), (0.1, 0.99, 3, 1.0e-3)),
    clusters.ClusterDistribution: (([0, 1, 3], [5, 2, 1], 9),
                                   (array("q", [0]), array("q", [4]), 4)),
    safety.ComparisonRow: (tuple(float(i) for i in range(12)),
                           tuple(float(i) for i in range(1, 13))),
    codec.ChipStream: ((np.zeros(64, dtype=np.uint8), 230000),
                       (np.ones(64, dtype=np.uint8), 230000)),
    sim.Summary: ((0.1, 0.1, 100, 90, 45, 45, 5.9e-4, 6.1e-4, 3),
                  (0.1, 0.1, 100, 90, 44, 46, 5.9e-4, 6.1e-4, 3)),
}


def _outcome(call):
    """What ``call()`` returns, or the type of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:  # noqa: BLE001  (the type is the outcome)
        return "raises", type(exc)


def _record_classes():
    modules = (node, _trace, channel, laws, clusters, safety, codec, sim)
    return {value for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record) and value is not Record}


def test_every_record_class_has_samples():
    assert _record_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    twin = oracles.dataclass_twin(cls)
    first, second = SAMPLES[cls]
    fields = cls._fields
    assert fields == tuple(twin.__dataclass_fields__)
    a, b, a2 = cls(*first), cls(*second), cls(*first)
    ta, tb, ta2 = twin(*first), twin(*second), twin(*first)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    # a value of another class with the same fields and values is not equal
    alike = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    twin_alike = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for other, twin_other in ((a2, ta2), (b, tb), (ta, a), (alike(*first), twin_alike(*first)),
                              ("x", "x"), (None, None)):
        assert _outcome(lambda: a == other) == _outcome(lambda: ta == twin_other)
        assert _outcome(lambda: a != other) == _outcome(lambda: ta != twin_other)
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(a2))
    for name in (fields[0], "no_such_field"):
        for value in (cls(*first), twin(*first)):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
    # keyword, mixed and default binding give the same value as positional
    keywords = dict(zip(fields, first))
    assert repr(cls(**keywords)) == repr(twin(**keywords)) == repr(a)
    assert repr(cls(first[0], **dict(zip(fields[1:], first[1:])))) == repr(a)
    required = [name for name in fields if name not in cls._defaults]
    assert required == [name for name, field in twin.__dataclass_fields__.items()
                        if field.default is dataclasses.MISSING]
    shortest = first[:len(required)]
    assert repr(cls(*shortest)) == repr(twin(*shortest))
    bad_calls = [(first + (0,), {}), (first, {"no_such_field": 1}),
                 (first, {fields[0]: first[0]})]
    if required:
        bad_calls.append(((), {name: value for name, value in keywords.items()
                               if name != required[-1]}))
    for args, kwargs in bad_calls:
        assert _outcome(lambda: cls(*args, **kwargs)) == ("raises", TypeError), (args, kwargs)
        assert _outcome(lambda: twin(*args, **kwargs)) == ("raises", TypeError), (args, kwargs)


@pytest.mark.parametrize("cls", [cls for cls in SAMPLES if hasattr(cls, "__post_init__")],
                         ids=lambda cls: cls.__name__)
def test_record_post_init_runs_once(cls, monkeypatch):
    calls = []
    post_init = cls.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = cls(*SAMPLES[cls][0])
    assert len(calls) == 1 and calls[0] is value
