"""The readers of integers, codes, containers and JSON text from outside,
and the rule that no other module reads integers or decodes JSON itself."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastfall import MalformedInput, PointsOracle, PolySystem, Ring, groebner_toy
from lastfall.cli import (gen_random_linearized, gen_random_system, verify_example,
                          verify_solver, verify_thm_1_1, verify_thm_2_6)
from lastfall.errors import as_codes, as_int, json_text
from lastfall.linsys import (LinearizedPoly, brute_force_solve, enumerate_solutions, full_space,
                             reducibility_check, solve_structured)
from conftest import deadline

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


def _x(field):
    return Ring(field, "k", ["X0"]).variable(0)


def _lp(field):
    return [LinearizedPoly(field, [[0, 1]])]


# (the name in the refusal, a call that hands `v` to the argument) for each
# integer argument that a caller hands the library
INTEGER_ARGUMENTS = {
    "pow_int": ("exponent", lambda f, v: _x(f).pow_int(v)),
    "reducibility_check": ("m", lambda f, v: reducibility_check(_lp(f), full_space(f), v)),
    "solve_structured": ("m", lambda f, v: solve_structured(_lp(f), full_space(f), v)),
    "brute_force_solve": ("m", lambda f, v: brute_force_solve(_lp(f), full_space(f), v)),
    "enumerate_solutions": ("m", lambda f, v: enumerate_solutions(_lp(f), full_space(f), v)),
    "enumerate_solutions-budget": (
        "budget", lambda f, v: enumerate_solutions(_lp(f), full_space(f), 1, budget=v)),
    "groebner_toy": (
        "step_budget", lambda f, v: groebner_toy(PolySystem(_x(f).ring, [_x(f)]), step_budget=v)),
    "LinearizedPoly": ("bound", lambda f, v: LinearizedPoly(f, [[0, 1]], bound=v)),
    "PointsOracle": ("point", lambda f, v: PointsOracle(Ring(f, "k", ["X0", "X1"]), [(v, 0)])),
    "verify_thm_1_1": ("seed", lambda f, v: verify_thm_1_1(seed=v, per_combo=0)),
    "verify_thm_2_6": ("per_combo", lambda f, v: verify_thm_2_6(per_combo=v, combos=())),
    "verify_solver": ("combos", lambda f, v: verify_solver(per_combo=0, combos=[(2, v)])),
    "verify_example": ("per_n", lambda f, v: verify_example(per_n=v, ns=())),
    "verify_example-ns": ("ns", lambda f, v: verify_example(per_n=0, ns=[v])),
    "gen_random_system": (
        "degree", lambda f, v: gen_random_system(_x(f).ring, v, 1, random.Random(0))),
    "gen_random_system-count": (
        "count", lambda f, v: gen_random_system(_x(f).ring, 1, v, random.Random(0))),
    "gen_random_linearized": (
        "m", lambda f, v: gen_random_linearized(f, v, 2, 1, random.Random(0))),
    "gen_random_linearized-bound": (
        "bound", lambda f, v: gen_random_linearized(f, 1, v, 1, random.Random(0))),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_arguments_are_read_by_the_shared_rule(gf8, argument):
    """Each of these arguments once took True as 1, or a float or a string
    to a bare TypeError; pow_int(True) was x."""
    what, call = INTEGER_ARGUMENTS[argument]
    for value in (True, 1.5, "1"):
        with deadline(5), pytest.raises(MalformedInput, match=f"^{what} must be"):
            call(gf8, value)


@pytest.mark.parametrize("call", [
    lambda ring: PointsOracle(ring, 5),
    lambda ring: PointsOracle(ring, None),
    lambda ring: LinearizedPoly(ring.field, 5),
    lambda ring: PolySystem(ring, 5),
    lambda ring: PolySystem(ring, [5]),
], ids=["PointsOracle-int", "PointsOracle-None", "LinearizedPoly-int", "PolySystem-int",
        "PolySystem-item"])
def test_containers_are_read_by_the_shared_rule(gf8, call):
    """Each of these once ended in a bare TypeError ("'int' object is not
    iterable"), or for an item that is no polynomial an AttributeError."""
    with pytest.raises(MalformedInput):
        call(Ring(gf8, "k", ["X0", "X1"]))


def _integer_reads(tree):
    """(line, what) of every integer rule written out in a module: a use of
    operator.index or np.integer, a type(...) is int test and an isinstance
    test against int."""
    found = []
    for node in ast.walk(tree):
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
    """Every integer from outside is read by errors.as_int or as_codes."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = {p.name: _integer_reads(ast.parse(p.read_text(), str(p)))
             for p in paths if p.name != "errors.py"}
    assert {name: reads for name, reads in found.items() if reads} == {}


def _json_decodes(tree):
    """The lines of a module that call json.loads or json.load."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr in ("loads", "load")]


def test_only_errors_decodes_json():
    """Every JSON text from outside is decoded by errors.json_text."""
    found = {p.name: _json_decodes(ast.parse(p.read_text(), str(p)))
             for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _json_decodes(ast.parse("import json\njson.loads(s)\njson.load(fh)")) == [2, 3]


def test_json_text_refuses_what_is_not_json():
    assert json_text('{"a": [1]}', "doc") == {"a": [1]}
    with pytest.raises(MalformedInput, match="^doc is not JSON: "):
        json_text('{"a": ', "doc")


@pytest.mark.parametrize("source", [
    "import operator\noperator.index(v)",
    "import numpy as np\nisinstance(v, np.integer)",
    "type(v) is int",
    "type(v) is not int",
    "isinstance(v, (int, float))",
])
def test_the_integer_rule_check_sees_each_rule(source):
    assert _integer_reads(ast.parse(source))
