"""The readers of integers and codes from outside, and the rule that no other
module reads integers itself."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastfall import MalformedInput
from lastfall.errors import as_codes, as_int

SRC = Path(__file__).resolve().parent.parent / "src" / "lastfall"

# the types of the drawn values that count as integers
INTEGER_TYPES = (int, np.int16, np.int64)

ITEMS = st.one_of(
    st.integers(-3, 12), st.integers(-3, 12).map(np.int16), st.integers(-3, 12).map(np.int64),
    st.just(10**30), st.booleans(), st.floats(-3, 12), st.text(max_size=2), st.none(),
    st.lists(st.integers(0, 3), max_size=2))
BOUNDS = st.one_of(st.none(), st.integers(-3, 12))


def _in_bounds(v, least, below):
    return (least is None or v >= least) and (below is None or v < below)


@given(value=ITEMS, least=BOUNDS, below=BOUNDS)
def test_as_int_matches_a_plain_predicate(value, least, below):
    if type(value) in INTEGER_TYPES and _in_bounds(value, least, below):
        got = as_int(value, "v", least, below)
        assert type(got) is int and got == value
    else:
        with pytest.raises(MalformedInput, match="^v must be an integer"):
            as_int(value, "v", least, below)


@given(values=st.one_of(ITEMS, st.lists(ITEMS, max_size=4),
                        st.lists(ITEMS, max_size=4).map(tuple),
                        st.lists(st.integers(-3, 12), max_size=4).map(np.array)),
       below=st.one_of(st.none(), st.integers(1, 12)),
       length=st.one_of(st.none(), st.integers(0, 4)))
def test_as_codes_matches_a_plain_predicate(values, below, length):
    ok = (isinstance(values, (list, tuple, np.ndarray))
          and all(type(v) in INTEGER_TYPES for v in values)
          and all(_in_bounds(v, 0, below) for v in values)
          and length in (None, len(values)))
    if ok:
        got = as_codes(values, below, "v", length)
        assert type(got) is tuple and all(type(c) is int for c in got)
        assert got == tuple(int(v) for v in values)
    else:
        with pytest.raises(MalformedInput, match="^v must be a list of"):
            as_codes(values, below, "v", length)


def _integer_reads(tree):
    """(line, what) of every integer rule written out in a module: a use of
    operator.index or np.integer, a type(...) is int test and an isinstance
    test against int, outside PointsOracle.__init__."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "PointsOracle":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed.update(id(node) for node in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in {("operator", "index"), ("np", "integer"),
                                                   ("numpy", "integer")}):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
              and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)):
            found.append((node.lineno, "type(...) is int"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(isinstance(t, ast.Name) and t.id == "int"
                      for t in ast.walk(node.args[1]))):
            found.append((node.lineno, "isinstance(..., int)"))
    return found


def test_only_errors_reads_integers():
    """Every integer from outside is read by errors.as_int or as_codes;
    PointsOracle's vectorised point check is the one exception."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = {p.name: _integer_reads(ast.parse(p.read_text(), str(p)))
             for p in paths if p.name != "errors.py"}
    assert {name: reads for name, reads in found.items() if reads} == {}


@pytest.mark.parametrize("source", [
    "import operator\noperator.index(v)",
    "import numpy as np\nisinstance(v, np.integer)",
    "type(v) is int",
    "type(v) is not int",
    "isinstance(v, (int, float))",
])
def test_the_integer_rule_check_sees_each_rule(source):
    assert _integer_reads(ast.parse(source))
    assert not _integer_reads(ast.parse(
        f"class PointsOracle:\n    def __init__(self, v):\n        {source.splitlines()[-1]}"))
