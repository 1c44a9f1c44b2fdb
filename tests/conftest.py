"""Shared pytest hooks: collects acceptance one-liners into a summary block,
and a check of the package's record classes."""

import copy
import pickle

import pytest


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def check_value_class():
    """Check a record class's construction, equality, hashing, mutability
    and repr against values given in constructor order."""
    return _check_value_class


def _check_value_class(cls, values, *, repr_text, defaults=None, frozen=True):
    defaults = defaults or {}
    names = list(values)
    first = cls(*values.values())
    second = cls(**values)
    assert cls.__match_args__ == tuple(names)
    assert [getattr(first, name) for name in names] == list(values.values())
    assert first == second and not first != second
    assert repr(first) == repr_text

    required = [values[name] for name in names if name not in defaults]
    assert [getattr(cls(*required), name) for name in defaults] == list(defaults.values())
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(**values, unknown=0)

    # Equal field values do not make objects of different classes equal.
    subclass = type(f"{cls.__name__}Copy", (cls,), {"__slots__": ()})
    assert subclass(**values) != first and first != subclass(**values)
    assert first != tuple(values.values())

    if frozen:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(first, name, values[name])
            with pytest.raises(AttributeError):
                delattr(first, name)
        assert first == second
        if _hashable(values.values()):
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError):
                hash(first)
        assert copy.copy(first) == first
        assert pickle.loads(pickle.dumps(first)) == first
    else:
        with pytest.raises(TypeError):
            hash(first)
        setattr(first, names[0], values[names[0]])
        assert first == second


def _hashable(items):
    try:
        hash(tuple(items))
    except TypeError:
        return False
    return True
