"""The README's library quick start and its CLI examples run as shown, and its
promise that all values are immutable holds, copies and pickles included."""

import copy
import os
import pickle
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bianchimax import (
    FieldParams,
    IdealHNF,
    KElement,
    atkin_lehner,
    bezout_pair,
    field_params,
    spin_map,
)
from bianchimax.field import _Frozen

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def fenced_block(heading, language):
    """The first ```language block after the given heading."""
    section = README[README.index(heading):]
    marker = f"```{language}\n"
    start = section.index(marker) + len(marker)
    return section[start:section.index("```", start)]


def cli_examples():
    """(command, shown output) for each `$ bianchimax` example shown in full."""
    lines = fenced_block("## CLI", "sh").splitlines()
    return [
        (command[2:], shown)
        for command, shown in zip(lines, lines[1:])
        if command.startswith("$ bianchimax ") and "..." not in shown
    ]


def test_library_quick_start_runs():
    result = subprocess.run(
        [sys.executable, "-c", fenced_block("## Library quick start", "python")],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cli_examples_found():
    assert len(cli_examples()) >= 4


@pytest.mark.parametrize("pipeline,shown", cli_examples(), ids=[c for c, _ in cli_examples()])
def test_cli_example_output(pipeline, shown):
    out = None
    for stage in pipeline.split(" | "):
        program, *args = shlex.split(stage)
        assert program == "bianchimax"
        result = subprocess.run(
            [sys.executable, "-m", "bianchimax", *args],
            input=out,
            capture_output=True,
            text=True,
            env=ENV,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout
    assert out == shown + "\n"


def library_values():
    """One value of each of the library's value types, built afresh per call."""
    params = field_params(5)
    v10 = atkin_lehner(params, 10)
    return {
        "KElement": params.element(5, 1),
        "FieldParams": params,
        "IdealHNF": IdealHNF.principal(params, params.element(5, 1)),
        "ExtendedMatrix": v10,
        "OrthoMap": spin_map(v10),
        "BezoutPair": bezout_pair(params, 10),
    }


@pytest.mark.parametrize("kind", sorted(library_values()))
def test_values_are_immutable(kind):
    value = library_values()[kind]
    assert type(value).__name__ == kind
    before_repr, before_hash = repr(value), hash(value)
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"{kind} is immutable"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"{kind} is immutable"):
            delattr(value, name)
    assert repr(value) == before_repr
    assert hash(value) == before_hash
    assert value == library_values()[kind]


def test_values_are_built_only_through_new(monkeypatch):
    # no value type has an __init__, so each type's own _new, compiled from its
    # __slots__, is the one place a value's slots are filled; FieldParams is
    # built afresh, as field_params caches it
    built = []
    for kind in {type(value) for value in library_values().values()}:

        def recording_new(*values, kind=kind, new=kind._new):
            built.append(kind)
            return new(*values)

        monkeypatch.setattr(kind, "_new", staticmethod(recording_new))
    values = {**library_values(), "FieldParams": FieldParams(5)}
    monkeypatch.undo()
    assert len(values) == 6
    for value in values.values():
        assert type(value).__init__ is object.__init__
        assert type(value) in built


@pytest.mark.parametrize("kind", sorted(library_values()))
def test_new_takes_one_value_per_slot(kind):
    value = library_values()[kind]
    new, slots = type(value)._new, slot_values(value)
    assert new.__qualname__ == f"{kind}._new"
    assert new(*slots) == value
    for wrong in (slots[:-1], (*slots, None)):
        with pytest.raises(TypeError, match=rf"^{kind}\._new\(\) "):
            new(*wrong)


class Shadowing(_Frozen):
    """A value type of the tests whose slot names are the names that a
    compiled _new reads and binds."""

    __slots__ = ("value", "cls", "new", "set0", "_0", "_1")


def test_a_new_value_type_gets_its_own_new():
    slots = tuple(range(6))
    value = Shadowing._new(*slots)
    assert type(value) is Shadowing and slot_values(value) == slots
    assert Shadowing._new is not library_values()["KElement"]._new
    assert value == Shadowing._new(*slots) and hash(value) == hash(Shadowing._new(*slots))
    assert value != Shadowing._new(*slots[:-1], 6)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is Shadowing and twin == value
    with pytest.raises(TypeError, match=r"^Shadowing\._new\(\) "):
        Shadowing._new(*slots[:-1])
    with pytest.raises(AttributeError, match="Shadowing is immutable"):
        value.cls = None


@pytest.mark.parametrize("kind", sorted(library_values()))
def test_value_types_are_final(kind):
    # a direct _Frozen subclass such as Shadowing is a new value type
    base = type(library_values()[kind])
    for namespace in ({}, {"__slots__": ()}, {"__slots__": ("extra",)}):
        with pytest.raises(TypeError, match=rf"^{kind} cannot be subclassed$"):
            type("Sub", (base,), namespace)


def slot_values(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


# field_params caches its FieldParams, so it is rebuilt through its constructor,
# and so is the KElement; the others come from library_values afresh.
REBUILT = {"KElement": lambda: KElement(5, 5, 1), "FieldParams": lambda: FieldParams(5)}


@pytest.mark.parametrize("kind", sorted(library_values()))
def test_equal_values_hash_alike(kind):
    value = library_values()[kind]
    rebuilt = REBUILT.get(kind, lambda: library_values()[kind])()
    assert value is not rebuilt
    assert value == rebuilt and not value != rebuilt
    assert hash(value) == hash(rebuilt)


@pytest.mark.parametrize("kind", sorted(library_values()))
def test_no_value_equals_another_type_or_its_own_slots(kind):
    values = library_values()
    value = values.pop(kind)
    for other in (*values.values(), slot_values(value)):
        assert not value == other and value != other
        assert not other == value and other != value


@pytest.mark.parametrize("kind", sorted(library_values()))
def test_every_slot_takes_part_in_equality_and_hash(kind):
    # _new fills the slots unchecked, so each slot in turn can be set apart
    value = library_values()[kind]
    slots = slot_values(value)
    for i in range(len(slots)):
        changed = type(value)._new(*slots[:i], None, *slots[i + 1:])
        assert changed != value and not changed == value
        assert hash(changed) != hash(value)


@pytest.mark.parametrize("kind", sorted(library_values()))
@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal_values(kind, duplicate):
    value = library_values()[kind]
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
