"""Mutation fuzz over a committed BENCH document.

A BENCH file is a document a user can hand in (``bench --baseline``,
``campaign report --bench-dir``), so damage to it must surface as a
list of named problems, never a traceback.  Starting from the committed
``BENCH_0004.json``, one test replaces, deletes or adds one to three
nodes anywhere in the tree; the other puts extreme numbers (huge
integers, infinities, NaN, booleans) into the fields the regression
detector computes with.  ``validate_bench`` must return a list of
strings for every mutant, and ``compare_bench`` (and the rendering of
its report) must run on every mutant ``validate_bench`` accepts.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observatory import compare_bench, validate_bench

BASE = json.loads((Path(__file__).resolve().parents[1]
                   / "BENCH_0004.json").read_text())

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)

NUMBERS = (st.integers() | st.floats() | st.booleans()
           | st.sampled_from((10 ** 400, -10 ** 400)))  # past float range


def _paths(node, prefix=()):
    """Every container path in the document, root included."""
    if isinstance(node, dict):
        yield prefix
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        yield prefix
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _mutate(document, data) -> None:
    path = data.draw(st.sampled_from(list(_paths(document))))
    container = document
    for step in path:
        container = container[step]
    keys = (list(container) if isinstance(container, dict)
            else list(range(len(container))))
    operation = data.draw(st.sampled_from(
        ("replace", "delete", "add") if keys else ("add",)))
    if operation == "add":
        value = data.draw(JSON_VALUES)
        if isinstance(container, dict):
            container[data.draw(st.text(max_size=6))] = value
        else:
            container.insert(data.draw(st.integers(0, len(container))),
                             value)
        return
    key = data.draw(st.sampled_from(keys))
    if operation == "delete":
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)


def _accepted_or_rejected(document) -> None:
    problems = validate_bench(document)
    assert isinstance(problems, list)
    assert all(isinstance(problem, str) for problem in problems)
    if not problems:
        for previous, current in ((BASE, document), (document, BASE),
                                  (document, document)):
            compare_bench(previous, current).render()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_bench_is_accepted_or_rejected(data):
    document = copy.deepcopy(BASE)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(document, data)
    _accepted_or_rejected(document)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_extreme_numbers_are_accepted_or_rejected(data):
    document = copy.deepcopy(BASE)
    entry = document["scenarios"][data.draw(
        st.sampled_from(sorted(document["scenarios"])))]
    field = data.draw(st.sampled_from(
        ("median_ticks_per_second", "noise", "ticks_per_second",
         "cycles", "wall_seconds", "seed")))
    target = entry if field in entry else entry["trials"][0]
    target[field] = data.draw(NUMBERS)
    _accepted_or_rejected(document)
