"""Schedule encoding and loading: the array paths match their references.

:func:`repro.compiler.serialize.canonical_dumps` writes a plain schedule
document with one template per row and composes a document that holds
one field by field.  The reference is the general encoder,
``json.dumps(canonical_json(x), ...)``: for every input the two give the
same bytes or raise the same exception type.

:func:`repro.compiler.serialize.schedule_from_dict` checks a schedule
with one sort of slot x link keys.  The reference is the object-based
loader it replaced (``tests/schedule_reference.py``): for every
document the two accept and reject alike, with the same exception type
and route-cache counts, and on accept they load the same slots and the
same connection order.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import serialize
from repro.compiler.serialize import (
    canonical_dumps,
    canonical_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core import perf
from repro.core.paths import route_requests
from repro.core.registry import get_scheduler
from repro.core.requests import Request, RequestSet
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from tests import schedule_reference as ref

# ----------------------------------------------------------------------
# canonical_dumps
# ----------------------------------------------------------------------

INTS = st.integers(-5, 300) | st.integers(-(2**70), 2**70)
ROW = st.fixed_dictionaries({"src": INTS, "dst": INTS, "size": INTS, "tag": INTS})
SCHEDULE = st.fixed_dictionaries({
    "version": INTS,
    "scheduler": st.text(max_size=8),
    "degree": INTS,
    "slots": st.lists(st.lists(ROW, max_size=5), max_size=5),
})
ROW_KEYS = ("src", "dst", "size", "tag")
TOP_KEYS = ("version", "scheduler", "degree", "slots")
#: Values the template must not write: each one either encodes
#: differently or is refused by the general encoder.
ODD_VALUES = [
    True, False, None, 2.0, -0.0, 2.5, 1e300, float("nan"), float("inf"),
    np.int64(3), np.int32(-1), np.float64(4.0), "7", "é", 10**30,
    (1, 2), [1], {"a": 1}, {1, 2},
]
ODD = st.sampled_from(ODD_VALUES)
PERTURBATIONS = (
    "row value", "top value", "drop row key", "extra row key",
    "drop top key", "extra top key", "tuple slots", "tuple slot",
    "tuple row", "non-str row key",
)


def reference_dumps(obj):
    return json.dumps(
        canonical_json(obj), sort_keys=True, separators=(",", ":"),
        ensure_ascii=True, allow_nan=False,
    )


def outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:  # the type is the outcome
        return type(exc)


@st.composite
def perturbed_schedule(draw):
    doc = draw(SCHEDULE)
    kind = draw(st.sampled_from(PERTURBATIONS))
    slots = doc["slots"]
    rows = [(i, j) for i, slot in enumerate(slots) for j in range(len(slot))]
    if kind.endswith("row key") or kind.startswith(("row", "tuple row")):
        if not rows:
            return doc
        i, j = draw(st.sampled_from(rows))
        row = slots[i][j]
        if kind == "row value":
            row[draw(st.sampled_from(ROW_KEYS))] = draw(ODD)
        elif kind == "drop row key":
            del row[draw(st.sampled_from(ROW_KEYS))]
        elif kind == "extra row key":
            row[draw(st.sampled_from(["extra", "", "src "]))] = draw(INTS)
        elif kind == "non-str row key":
            row[draw(st.sampled_from([1, None, 2.5]))] = draw(INTS)
        else:
            slots[i][j] = tuple(row.items())
    elif kind == "top value":
        doc[draw(st.sampled_from(TOP_KEYS))] = draw(ODD)
    elif kind == "drop top key":
        del doc[draw(st.sampled_from(TOP_KEYS))]
    elif kind == "extra top key":
        doc[draw(st.sampled_from(["extra", 1, "slots "]))] = draw(INTS)
    elif kind == "tuple slots":
        doc["slots"] = tuple(slots)
    elif slots:
        i = draw(st.integers(0, len(slots) - 1))
        slots[i] = tuple(slots[i])
    return doc


REGISTERS = st.fixed_dictionaries({
    "version": st.just(1),
    "topology": st.text(max_size=6),
    "degree": INTS | ODD,
    "words": st.dictionaries(
        st.sampled_from(["0", "1", "2"]),
        st.lists(st.lists(st.integers(-1, 4), max_size=5), max_size=3),
        max_size=3,
    ),
})


@st.composite
def holder(draw, schedule):
    """A document holding a schedule document, as an artifact does."""
    doc = {"schedule": draw(schedule)}
    for key, value in draw(st.lists(st.sampled_from([
        ("registers", REGISTERS), ("version", INTS | ODD),
        ("topology", st.text(max_size=6)), ("lineage", st.none() | st.just({})),
        (2, INTS),
    ]), unique_by=lambda kv: str(kv[0]), max_size=4)):
        doc[key] = draw(value)
    return doc


class TestCanonicalDumps:
    @settings(max_examples=100, deadline=None)
    @given(SCHEDULE)
    def test_plain_schedules_take_the_template(self, doc):
        encoded = serialize._schedule_dumps(doc)
        assert encoded is not None
        assert encoded == canonical_dumps(doc) == reference_dumps(doc)

    @settings(max_examples=250, deadline=None)
    @given(perturbed_schedule())
    def test_perturbed_schedules(self, doc):
        assert outcome(canonical_dumps, doc) == outcome(reference_dumps, doc)

    @settings(max_examples=150, deadline=None)
    @given(holder(SCHEDULE | perturbed_schedule()))
    def test_documents_holding_a_schedule(self, doc):
        assert outcome(canonical_dumps, doc) == outcome(reference_dumps, doc)

    @pytest.mark.parametrize("value", ODD_VALUES, ids=repr)
    def test_each_odd_value_in_each_place(self, value):
        for key in ROW_KEYS + TOP_KEYS:
            row = {"src": 0, "dst": 1, "size": 2, "tag": 3}
            doc = {"version": 1, "scheduler": "x", "degree": 1, "slots": [[row]]}
            (row if key in ROW_KEYS else doc)[key] = value
            for obj in (doc, {"schedule": doc}):
                assert outcome(canonical_dumps, obj) == outcome(reference_dumps, obj)

    @pytest.mark.parametrize("doc", [
        {"version": 1, "scheduler": "x", "degree": 0, "slots": []},
        {"version": 1, "scheduler": "x", "degree": 2, "slots": [[], []]},
        {"version": 1, "scheduler": "é日\U0001f600\n\"", "degree": 1,
         "slots": [[{"src": 0, "dst": 1, "size": 1, "tag": 0}]]},
        {"schedule": {"version": 1, "scheduler": "x", "degree": 0, "slots": []}},
    ])
    def test_edge_documents(self, doc):
        assert canonical_dumps(doc) == reference_dumps(doc)


# ----------------------------------------------------------------------
# the schedule loader
# ----------------------------------------------------------------------

TOPOLOGIES = {"torus4": lambda: Torus2D(4), "ring8": lambda: Ring(8)}
#: Endpoint values a loader must route or refuse as the reference does.
BAD_IDS = [-1, 16, 99, 2**70, "3", 3.0, True, None, [1]]
#: ``slots`` values that are not a list of lists of rows.
SLOT_SHAPES = [{}, "", "ab", 5, None, [{}], [""], [5], [[[0, 1]]], [{"src": 0}]]
MUTATIONS = (
    "none", "self-loop", "bad id", "conflict", "degree", "version",
    "drop size/tag", "drop src/dst", "row type", "slots shape",
)


@st.composite
def loaded_document(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[name]()
    n = topo.num_nodes
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        ),
        max_size=24,
    ))
    requests = RequestSet(
        [Request(s, d, size=draw(st.integers(1, 9)), tag=i)
         for i, (s, d) in enumerate(pairs)],
        allow_duplicates=True,
    )
    scheduler = draw(st.sampled_from(["greedy", "coloring", "combined"]))
    doc = schedule_to_dict(get_scheduler(scheduler)(route_requests(topo, requests), topo))
    kind = draw(st.sampled_from(MUTATIONS))
    slots = doc["slots"]
    cells = [(i, j) for i, slot in enumerate(slots) for j in range(len(slot))]
    if kind in ("self-loop", "bad id", "conflict", "drop size/tag",
                "drop src/dst", "row type") and cells:
        i, j = draw(st.sampled_from(cells))
        row = slots[i][j]
        if kind == "self-loop":
            row["dst"] = row["src"]
        elif kind == "bad id":
            row[draw(st.sampled_from(["src", "dst"]))] = draw(st.sampled_from(BAD_IDS))
        elif kind == "conflict":
            slots[draw(st.integers(0, len(slots) - 1))].append(dict(row))
        elif kind == "drop size/tag":
            del row[draw(st.sampled_from(["size", "tag"]))]
        elif kind == "drop src/dst":
            del row[draw(st.sampled_from(["src", "dst"]))]
        else:
            slots[i][j] = draw(st.sampled_from([[0, 1], "ab", 5, None]))
    elif kind == "degree":
        doc["degree"] = draw(st.sampled_from([
            doc["degree"] + 1, doc["degree"] - 1, float(doc["degree"]),
            str(doc["degree"]), None,
        ]))
    elif kind == "version":
        doc["version"] = draw(st.sampled_from([2, "1", 1.0, True, None]))
    elif kind == "slots shape":
        doc["slots"] = copy.deepcopy(draw(st.sampled_from(SLOT_SHAPES)))
        doc["degree"] = len(doc["slots"]) if hasattr(doc["slots"], "__len__") else 0
    return name, doc


def conflict_slot(message):
    """``not conflict-free`` messages compare by the slot they name."""
    head = "schedule file is not conflict-free here: "
    return message.split(":")[:2] if message.startswith(head) else message


def load(loader, name, doc):
    topo = TOPOLOGIES[name]()
    before = perf.snapshot()
    try:
        schedule, connections = loader(topo, copy.deepcopy(doc))
    except Exception as exc:  # the type and message are the outcome
        result = (type(exc), conflict_slot(str(exc)))
    else:
        key = lambda c: (c.index, c.request, c.links)  # noqa: E731
        result = (
            [[key(c) for c in cfg] for cfg in schedule],
            [key(c) for c in connections],
            schedule.scheduler,
        )
    after = perf.snapshot()
    return result, tuple(
        after[k] - before[k] for k in ("route_cache_hits", "route_cache_misses")
    )


class TestScheduleLoader:
    @settings(max_examples=300, deadline=None)
    @given(loaded_document())
    def test_matches_the_object_loader(self, case):
        name, doc = case
        assert load(schedule_from_dict, name, doc) == load(ref.schedule_from_dict, name, doc)

    def test_each_reject_is_typed_alike(self):
        """One document per reject the loader has, on both loaders."""
        torus = Torus2D(4)
        row = {"src": 0, "dst": 1, "size": 1, "tag": 0}
        base = {"version": 1, "scheduler": "x", "degree": 1, "slots": [[row]]}
        cases = {
            "version": ({**base, "version": 2}, serialize.ArtifactError),
            "missing dst": ({**base, "slots": [[{"src": 0}]]}, KeyError),
            "row type": ({**base, "slots": [[[0, 1]]]}, TypeError),
            "self-loop": ({**base, "slots": [[{"src": 3, "dst": 3}]]}, ValueError),
            "out of range": ({**base, "slots": [[{"src": 0, "dst": 16}]]}, ValueError),
            "conflict": ({**base, "slots": [[row, {**row, "dst": 2}]]},
                         serialize.ArtifactError),
            "degree": ({**base, "degree": 2}, serialize.ArtifactError),
        }
        for doc, error in cases.values():
            for loader in (schedule_from_dict, ref.schedule_from_dict):
                with pytest.raises(error):
                    loader(torus, doc)
