"""Cache keys and config hashes against the canonical form they replaced.

:func:`repro.telemetry.manifest.canonical` tests exact built-in types
first and reads each dataclass's field names once per class.  The
reference below is the form it replaced: the general checks alone, in
their original order, with the fields read on every call.  Both must
give the same canonical form, key order included, and so the same
:func:`~repro.telemetry.manifest.stable_hash`: every result-cache entry
and every committed ``config_hash`` stays addressable.
"""

import dataclasses
import enum
import functools
import hashlib
import json
import pathlib
from collections import OrderedDict, namedtuple

from hypothesis import given, settings, strategies as st

import repro
from conftest import prop_settings
from repro.core.registry import INTERCONNECTS, get_primitive
from repro.harness.cache import ENTRY_SCHEMA, ResultCache
from repro.harness.config import SystemConfig
from repro.harness.experiment import table3_cells
from repro.harness.runner import CellSpec, FactorySpec
from repro.telemetry.manifest import canonical, stable_hash
from repro.workloads.micro import NullCriticalSection

ROOT = pathlib.Path(__file__).resolve().parents[1]


def reference_canonical(obj):
    """The canonical form as the general checks alone compute it."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: reference_canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__qualname__, **fields}
    if isinstance(obj, dict):
        return {
            str(key): reference_canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [reference_canonical(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if callable(obj):
        module = getattr(obj, "__module__", "?")
        qualname = getattr(obj, "__qualname__", repr(obj))
        return f"{module}.{qualname}"
    return repr(obj)


def reference_hash(payload):
    text = json.dumps(
        reference_canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(description):
    """:meth:`ResultCache.key` over the reference canonical form."""
    return reference_hash(
        {"schema": ENTRY_SCHEMA, "version": repro.__version__, "cell": description}
    )


# ----------------------------------------------------------------------
# Values of every shape the canonical form distinguishes
# ----------------------------------------------------------------------
class Colour(enum.Enum):
    RED = 1
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Tag(str, enum.Enum):
    ALPHA = "alpha"
    BETA = "1"


ENUM_MEMBERS = list(Colour) + list(Level) + list(Tag)
if hasattr(enum, "StrEnum"):  # Python 3.11+
    Mode = enum.StrEnum("Mode", ["FAST", "SLOW"])
    ENUM_MEMBERS += list(Mode)


@dataclasses.dataclass
class Point:
    x: object
    y: object = None


@dataclasses.dataclass
class Point3(Point):
    z: object = 0


@dataclasses.dataclass(frozen=True)
class Box:
    items: object
    label: str = "box"


class PlainChild(Point):
    """Not decorated itself: inherits Point's fields under its own name."""


Pair = namedtuple("Pair", "left right")


class Name(str):
    pass


class Count(int):
    pass


def module_function(x):
    return x


CALLABLES = [
    module_function,
    lambda x: x,
    len,
    Point,
    Colour,
    functools.partial(NullCriticalSection, acquires_per_proc=4, think_cycles=60),
    functools.partial(module_function, 3),
]

#: dict keys, chosen so that distinct keys collide after ``str``
keys = st.one_of(
    st.text(max_size=3),
    st.integers(-3, 12),
    st.sampled_from(["0", "1", "10", "2", "True", "None", "Level.LOW"]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=16),
    st.sampled_from(ENUM_MEMBERS),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=5),
    st.sampled_from(ENUM_MEMBERS),
    st.sampled_from(CALLABLES),
    st.builds(Name, st.text(max_size=3)),
    st.builds(Count, st.integers(-5, 5)),
    st.frozensets(st.integers(0, 5), max_size=3),
    st.builds(SystemConfig, n_processors=st.integers(1, 128)),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.builds(Point, children, children),
        st.builds(Point3, children, children, children),
        st.builds(PlainChild, children, children),
        st.builds(Box, children, st.text(max_size=3)),
        st.builds(Pair, children, children),
    )


values = st.recursive(atoms, containers, max_leaves=25)


@settings(prop_settings, max_examples=200)
@given(values)
def test_canonical_form_equals_the_reference(value):
    # the key order too: json.dumps below does not sort
    assert json.dumps(canonical(value)) == json.dumps(reference_canonical(value))
    assert stable_hash(value) == reference_hash(value)


# ----------------------------------------------------------------------
# The grids the benches key
# ----------------------------------------------------------------------
def ladder_cells():
    """The lock ladder's grid (``benchmarks/bench_lock_ladder.py``)."""
    factory = functools.partial(
        NullCriticalSection, acquires_per_proc=4, think_cycles=60
    )
    return [
        CellSpec(
            key=(fabric, primitive, n),
            primitive=primitive,
            config=SystemConfig(n_processors=n, interconnect=fabric),
            workload=FactorySpec(factory, get_primitive(primitive).lock_kind),
        )
        for fabric in INTERCONNECTS
        for primitive in ("tts", "delayed", "iqolb", "mcs", "reciprocating", "fissile")
        for n in (16, 32, 64, 128)
    ]


def test_cache_keys_equal_the_reference(tmp_path):
    cache = ResultCache(tmp_path)
    specs = table3_cells(32) + ladder_cells()
    assert len(specs) == 20 + 48
    for spec in specs:
        description = spec.describe()
        assert cache.key(description) == reference_key(description), spec.key


def test_config_hashes_equal_the_committed_table3():
    committed = json.loads((ROOT / "results" / "BENCH_table3.json").read_text())
    hashes = {
        tuple(cell["key"]): cell["manifest"]["config_hash"]
        for cell in committed["cells"]
    }
    specs = table3_cells(32)
    assert sorted(spec.key for spec in specs) == sorted(hashes)
    for spec in specs:
        assert stable_hash(spec.config) == hashes[spec.key], spec.key
