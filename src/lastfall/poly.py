"""Sparse multivariate polynomials over the tower fields.

Terms are dicts mapping exponent tuples to nonzero coefficient codes.  A ring
fixes the field, the coefficient level ("k" for the top field, "kprime" for
the subfield) and an ordered variable list; the zero polynomial has degree
NEG_INF so that every "deg <= i" predicate stays safe.

The one monomial order is grevlex, a degree-compatible order; its enumeration
is shared with the span-closure engine: monomials are listed degree by
degree, ascending inside each degree, so that in any coefficient vector the
rightmost entries correspond to the largest monomials.
"""

import functools
import json
import operator
from itertools import chain, combinations_with_replacement

from .errors import (MalformedInput, RingMismatch, UnassignedVariable, as_codes, as_int,
                     json_value)
from .gf import FieldSpec

NEG_INF = float("-inf")


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def grevlex_descending_key(exps):
    """A flat key that sorts grevlex from the largest monomial down."""
    return (-sum(exps),) + exps[::-1]


@functools.lru_cache(maxsize=None)
def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, ascending in grevlex (a cached
    tuple)."""
    out = []
    if nvars == 0:
        return ((),) if d == 0 else ()
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    out.sort(key=grevlex_key)
    return tuple(out)


def sum_terms(pairs, add):
    """The exponent -> code dict of the summed (exponent, code) pairs, with
    every zero sum dropped; `add` adds two codes."""
    out = {}
    for e, c in pairs:
        s = add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def monomials_up_to(nvars, cap):
    return [e for d in range(cap + 1) for e in monomials_of_degree(nvars, d)]


class Ring:
    """A polynomial ring over k or k' with a fixed variable order."""

    def __init__(self, field, level, variables):
        if level not in ("k", "kprime"):
            raise MalformedInput(f"level {level!r} is neither 'k' nor 'kprime'")
        variables = tuple(variables)
        if not all(isinstance(v, str) for v in variables) or len(set(variables)) != len(variables):
            raise MalformedInput(f"variable names {list(variables)} are not unique strings")
        self.field = field
        self.level = level
        self.ops = field.kprime if level == "kprime" else field.k
        self.vars = variables
        self.nvars = len(variables)
        self._var_index = {v: i for i, v in enumerate(variables)}

    @property
    def coeff_order(self):
        return self.ops.order

    def check_coeff(self, c):
        """`c` as a code of the coefficient field (see :func:`errors.as_int`)."""
        return as_int(c, "coefficient code", 0, self.coeff_order)

    def var_index(self, name):
        try:
            return self._var_index[name]
        except KeyError:
            raise UnassignedVariable(f"unknown variable {name!r}") from None

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.monomial((0,) * self.nvars, c)

    def variable(self, v):
        """The variable named `v`, or the one at index `v`."""
        i = self.var_index(v) if isinstance(v, str) else as_int(v, "variable index", 0, self.nvars)
        return self.monomial((0,) * i + (1,) + (0,) * (self.nvars - 1 - i))

    def monomial(self, exps, c=1):
        c = self.check_coeff(c)
        if c == 0:
            return self.zero()
        return MultiPoly(self, {self._check_exps(exps): c})

    def _check_exps(self, exps):
        """`exps` as a tuple of nvars exponents (see :func:`errors.as_codes`)."""
        return as_codes(exps, None, "exponent vector", self.nvars)

    def from_terms(self, terms):
        return MultiPoly(self, sum_terms(
            ((self._check_exps(e), self.check_coeff(c)) for e, c in terms), self.field.add))

    def __eq__(self, other):
        return (isinstance(other, Ring) and other.field == self.field
                and other.level == self.level and other.vars == self.vars)

    def __hash__(self):
        return hash((self.field, self.level, self.vars))

    def __repr__(self):
        return f"Ring({self.level}, vars={list(self.vars)})"


class MultiPoly:
    """Immutable sparse polynomial; do not mutate `terms` after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @property
    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_zero(self):
        return not self.terms

    def _coerced(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingMismatch("polynomials live in different rings")
            return other
        raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerced(other)
        return MultiPoly(self.ring, sum_terms(
            chain(self.terms.items(), other.terms.items()), self.ring.field.add))

    def __neg__(self):
        f = self.ring.field
        return MultiPoly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.check_coeff(c)
        if c == 0:
            return self.ring.zero()
        f = self.ring.field
        return MultiPoly(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def __mul__(self, other):
        other = self._coerced(other)
        f = self.ring.field
        return MultiPoly(self.ring, sum_terms(
            ((tuple(map(operator.add, e1, e2)), f.mul(c1, c2))
             for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()), f.add))

    def pow_int(self, m):
        acc = self.ring.one()
        base = self
        while m:
            if m & 1:
                acc = acc * base
            base = base * base
            m >>= 1
        return acc

    def eval(self, point):
        """Evaluate at a tuple of field codes, one per variable (see
        :func:`errors.as_codes`)."""
        f = self.ring.field
        point = as_codes(point, f.order, "point", self.ring.nvars)
        acc = 0
        for e, c in self.terms.items():
            v = c
            for i, a in enumerate(e):
                if a:
                    v = f.mul(v, f.pow(point[i], a))
            acc = f.add(acc, v)
        return acc

    def substitute(self, assignment):
        """Full expansion of var -> MultiPoly (all in one target ring).

        Every variable appearing in this polynomial must be assigned.
        """
        images = {}
        target = None
        for name, img in assignment.items():
            self.ring.var_index(name)  # validates the name
            if target is None:
                target = img.ring
            elif img.ring != target:
                raise RingMismatch("substitution images live in different rings")
            images[self.ring.var_index(name)] = img
        if target is None:
            raise UnassignedVariable("empty assignment")
        # cache powers per variable
        used = set()
        for e in self.terms:
            for i, a in enumerate(e):
                if a:
                    used.add(i)
        missing = [self.ring.vars[i] for i in sorted(used - set(images))]
        if missing:
            raise UnassignedVariable(f"no image for {missing}")
        powers = {}
        for i, img in images.items():
            maxe = max((e[i] for e in self.terms), default=0)
            ps = [target.one()]
            for _ in range(maxe):
                ps.append(ps[-1] * img)
            powers[i] = ps
        out = target.zero()
        for e, c in self.terms.items():
            term = target.constant(c)
            for i, a in enumerate(e):
                if a:
                    term = term * powers[i][a]
            out = out + term
        return out

    def lies_in_subfield(self):
        q = self.ring.field.q
        return all(c < q for c in self.terms.values())

    def coeff_of(self, exps):
        return self.terms.get(tuple(exps), 0)

    def sorted_terms(self):
        """The (exponent, code) terms, largest monomial first."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading(self):
        """(exponent, coefficient) of the largest monomial present."""
        if not self.terms:
            return None
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- text / json -----------------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        field = self.ring.field
        for e, c in self.sorted_terms():
            coord = ",".join(str(d) for d in field.coords(c))
            names = []
            for i, a in enumerate(e):
                if a == 1:
                    names.append(self.ring.vars[i])
                elif a > 1:
                    names.append(f"{self.ring.vars[i]}^{a}")
            mono = " ".join(names) if names else "1"
            parts.append(f"({coord})*{mono}")
        return " + ".join(parts)

    @classmethod
    def from_text(cls, ring, text):
        """Parse the `to_text` format; any other shape raises MalformedInput."""
        text = text.strip()
        if text == "0":
            return ring.zero()
        terms = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            coord_part, star, mono_part = chunk.partition("*")
            coord_part = coord_part.strip()
            if not (star and coord_part.startswith("(") and coord_part.endswith(")")):
                raise MalformedInput(f"term {chunk!r} is not (coordinates)*monomial")
            digits = [_parse_int(x, chunk) for x in coord_part[1:-1].split(",")]
            code = ring.field.from_coords(digits)
            e = [0] * ring.nvars
            mono_part = mono_part.strip()
            if mono_part != "1":
                for atom in mono_part.split():
                    name, caret, expo = atom.partition("^")
                    e[ring.var_index(name)] += _parse_int(expo, chunk) if caret else 1
            terms.append((tuple(e), code))
        return ring.from_terms(terms)

    def to_json_obj(self):
        field = self.ring.field
        return [{"coeff": list(field.coords(c)), "exps": list(e)}
                for e, c in self.sorted_terms()]

    @classmethod
    def from_json_obj(cls, ring, obj):
        field = ring.field
        if not isinstance(obj, list):
            raise MalformedInput(f"a polynomial must be a list of terms, got {type(obj).__name__}")
        return ring.from_terms(
            (json_value(t, "exps", list), field.from_coords(json_value(t, "coeff", list)))
            for t in obj)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def _parse_int(s, chunk):
    try:
        return int(s)
    except ValueError:
        raise MalformedInput(f"{s!r} in term {chunk!r} is not an integer") from None


def frobenius_relations(ring, q, blocks, closing):
    """x_j^q - x_{j+1} along each block of variable indices, the last
    variable closed by x^q - sum_l closing[l] x_l over the block's own
    variables; the polynomials block by block, in block order."""
    def term(i, a, c):
        e = [0] * ring.nvars
        e[i] = a
        return tuple(e), c

    polys = []
    for block in blocks:
        for j, v in enumerate(block):
            nxt = [(block[j + 1], 1)] if j + 1 < len(block) else zip(block, closing)
            polys.append(MultiPoly(ring, dict(
                [term(v, q, 1)] + [term(w, 1, ring.field.neg(c)) for w, c in nxt if c])))
    return polys


class PolySystem:
    """A finite list of polynomials sharing one ring (duplicates allowed)."""

    def __init__(self, ring, polys):
        polys = tuple(polys)
        for f in polys:
            if f.ring != ring:
                raise RingMismatch("system polynomials live in different rings")
        self.ring = ring
        self.polys = polys
        self._zk_points = None  # the memo of falldeg.zk_points

    @property
    def degree(self):
        if not self.polys:
            return NEG_INF
        return max(f.degree for f in self.polys)

    def nonzero(self):
        return [f for f in self.polys if not f.is_zero()]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return (isinstance(other, PolySystem) and other.ring == self.ring
                and other.polys == self.polys)

    def to_json_obj(self):
        return {
            "field": self.ring.field.to_json(),
            "level": self.ring.level,
            "vars": list(self.ring.vars),
            "polys": [f.to_json_obj() for f in self.polys],
        }

    @classmethod
    def from_json_obj(cls, obj):
        field = FieldSpec.from_json(json_value(obj, "field", dict))
        ring = Ring(field, json_value(obj, "level"), json_value(obj, "vars", list))
        return cls(ring, [MultiPoly.from_json_obj(ring, p)
                          for p in json_value(obj, "polys", list)])

    def to_json_str(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_str(cls, s):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"not JSON: {exc}") from None
        return cls.from_json_obj(obj)
