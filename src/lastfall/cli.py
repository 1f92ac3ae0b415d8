"""Experiment harness and command line entry point.

Subcommands: descend, lastfall, solve-linearized, verify (thm11 | thm26 |
solver | example) and gen.  Campaign rows are recomputable from (seed,
instance id) alone; CSV outputs therefore contain only deterministic fields,
with wall-clock timings kept to the JSON summaries.
"""

import argparse
import csv
import inspect
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from itertools import product

from . import univar
from .descent import (build_F1, build_Fprime, build_Fprime1, f1_points,
                      fprime1_points, make_descent_context)
from .errors import (CampaignExhausted, EnumerationBudgetExceeded, LastfallError,
                     MalformedInput, NotReducible, as_int, json_text, json_value)
from .falldeg import PointsOracle, last_fall_degree
from .gf import FieldSpec, make_field
from .linsys import (LinearizedPoly, brute_force_solve, enumerate_solutions,
                     full_space, gbar_system, linearized_to_form, reducibility_check,
                     solve_structured, subspace_from_fW, subspace_equal)
from .poly import PolySystem, Ring, monomials_up_to


# -- instance generation --------------------------------------------------------


def gen_random_system(ring, degree, count, rng):
    """Dense uniform systems: every monomial of degree <= `degree` gets a
    uniform coefficient; all-zero polynomials are redrawn."""
    degree, count = as_int(degree, "degree", least=0), as_int(count, "count", least=0)
    monos = monomials_up_to(ring.nvars, degree)
    out = []
    for _ in range(count):
        while True:
            f = ring.from_terms((e, rng.randrange(ring.coeff_order)) for e in monos)
            if not f.is_zero():
                break
        out.append(f)
    return PolySystem(ring, out)


def gen_random_linearized(field, m, bound, count, rng, exact_top=True):
    """Random linearized polynomials, coefficient rows uniform over k."""
    m, bound = as_int(m, "m", least=1), as_int(bound, "bound", least=1)
    count = as_int(count, "count", least=0)
    out = []
    for _ in range(count):
        while True:
            rows = [tuple(rng.randrange(field.order) for _ in range(bound))
                    for _ in range(m)]
            lp = LinearizedPoly(field, rows, bound=bound)
            if lp.is_zero():
                continue
            if exact_top and all(r[bound - 1] == 0 for r in lp.coeffs):
                continue
            break
        out.append(lp)
    return out


def linearized_system_poly(F, field, m):
    ring = Ring(field, "k", [f"X{i}" for i in range(m)])
    return PolySystem(ring, [lp.to_poly(ring) for lp in F])


# -- campaigns -------------------------------------------------------------------

# the largest degree of a thm11 system, and the number of draws a campaign
# makes per combination before giving up
_DEGREE_MAX = 3
_THM26_MAX_ATTEMPTS = 200
_EXAMPLE_MAX_ATTEMPTS = 400


@dataclass
class CampaignResult:
    name: str
    columns: tuple
    rows: list          # list of dicts matching columns (deterministic)
    timings_ms: list

    @property
    def passed(self):
        return sum(r["status"] == "pass" for r in self.rows)

    @property
    def failed(self):
        return sum(r["status"] == "fail" for r in self.rows)

    @property
    def inconclusive(self):
        return sum(r["status"] == "inconclusive" for r in self.rows)

    @property
    def ok(self):
        return self.failed == 0 and self.inconclusive == 0

    def summary(self):
        return {
            "campaign": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "inconclusive": self.inconclusive,
            "total": len(self.rows),
            "wall_ms_total": round(sum(self.timings_ms), 3),
        }


def _run_campaign(name, columns, rows):
    """Collect a campaign's rows, numbered from 0 in the `instance` column.
    Each row is timed as the time spent producing it, rejected draws
    included."""
    out, timings = [], []
    t0 = time.perf_counter()
    for row in rows:
        timings.append((time.perf_counter() - t0) * 1000)
        out.append({"instance": len(out), **row})
        t0 = time.perf_counter()
    return CampaignResult(name, ("instance",) + columns, out, timings)


def _campaign_args(seed, count, combos, arity, count_name="per_combo", what="combos"):
    """A campaign's arguments, read before its first draw: the seed and the
    count as integers >= 0, and `combos` as a list or tuple of entries, each
    an integer >= 1 (arity None) or a list or tuple of `arity` of them."""
    seed, count = as_int(seed, "seed", least=0), as_int(count, count_name, least=0)
    shape = "integers" if arity is None else f"lists of {arity} integers"
    if not isinstance(combos, (list, tuple)) or arity is not None and not all(
            isinstance(c, (list, tuple)) and len(c) == arity for c in combos):
        raise MalformedInput(f"{what} must be a list of {shape}, got {combos!r}")
    return seed, count, [as_int(c, what, least=1) if arity is None
                         else tuple(as_int(v, what, least=1) for v in c) for c in combos]


def _status(certified, ok):
    """Rows resting on a cap-limited profile are never passes."""
    if not certified:
        return "inconclusive"
    return "pass" if ok else "fail"


def _points_profile(system, points):
    """Fall profile certified against the system's full zero set."""
    return last_fall_degree(system, oracle=PointsOracle(system.ring, points))


def _kprime_span(field, generators, m):
    """Every k'-combination of the generators (m-tuples of k codes), with
    the coefficients in product order."""
    for combo in product(range(field.q), repeat=len(generators)):
        point = [0] * m
        for c, gen in zip(combo, generators):
            if c:
                for i in range(m):
                    point[i] = field.add(point[i], field.mul(c, gen[i]))
        yield tuple(point)


_THM11_COMBOS = tuple((p, n, m) for p in (2, 3) for n in (2, 3) for m in (1, 2))


def verify_thm_1_1(seed=0, per_combo=25, combos=_THM11_COMBOS):
    """Exact equality of max(fall degree, q*deg) across the descent, on seeded
    random systems.  Rows with an uncertified side are inconclusive."""
    seed, per_combo, combos = _campaign_args(seed, per_combo, combos, 3)

    def rows():
        for (p, n, m) in combos:
            field = make_field(p, 1, n)
            ctx = make_descent_context(field, m)
            for j in range(per_combo):
                rng = random.Random(f"{seed}:thm11:{p}:{n}:{m}:{j}")
                degree = rng.randint(1, _DEGREE_MAX)
                F = gen_random_system(ctx.ring_original, degree, m, rng)
                dF = int(F.degree)
                prof1 = _points_profile(build_F1(F, ctx), f1_points(F, ctx))
                prof2 = _points_profile(build_Fprime1(F, ctx), fprime1_points(F, ctx))
                qd = field.q * dF
                lhs = max(prof1.last_fall_degree, qd)
                rhs = max(prof2.last_fall_degree, qd)
                yield {
                    "p": p, "e": 1, "n": n, "m": m,
                    "deg_F": dF, "d_F1": prof1.last_fall_degree,
                    "d_Fprime1": prof2.last_fall_degree, "q_deg_F": qd,
                    "lhs": lhs, "rhs": rhs,
                    "cert_F1": int(prof1.certified), "cert_Fprime1": int(prof2.certified),
                    "status": _status(prof1.certified and prof2.certified, lhs == rhs),
                }
    return _run_campaign("thm11", ("p", "e", "n", "m", "deg_F", "d_F1", "d_Fprime1",
                                   "q_deg_F", "lhs", "rhs", "cert_F1", "cert_Fprime1",
                                   "status"), rows())


_THM26_COMBOS = tuple((n, m, c) for n in (2, 3, 4) for m in (1, 2) for c in (1, 2))


def verify_thm_2_6(seed=0, per_combo=9, combos=_THM26_COMBOS):
    """Fall-degree bound for descended linearized systems that pass the
    reducibility test for W = k (q = 2)."""
    seed, per_combo, combos = _campaign_args(seed, per_combo, combos, 3)

    def rows():
        for (n, m, c) in combos:
            field = make_field(2, 1, n)
            space = full_space(field)
            ctx = make_descent_context(field, m)
            accepted = 0
            attempt = 0
            while accepted < per_combo and attempt < _THM26_MAX_ATTEMPTS:
                rng = random.Random(f"{seed}:thm26:{n}:{m}:{c}:{attempt}")
                attempt += 1
                npolys = rng.randint(1, m)
                F = gen_random_linearized(field, m, c + 1, npolys, rng)
                if not reducibility_check(F, space, m=m).reducible:
                    continue
                accepted += 1
                Fsys = linearized_system_poly(F, field, m)
                dF = int(Fsys.degree)
                prof = _points_profile(build_Fprime1(Fsys, ctx), fprime1_points(Fsys, ctx))
                bound = max((field.q - 1) * m + 1, field.q * dF)
                yield {
                    "p": 2, "e": 1, "n": n, "m": m,
                    "npolys": npolys, "deg_F": dF, "reducible": 1,
                    "d_Fprime1": prof.last_fall_degree, "bound": bound,
                    "cert": int(prof.certified),
                    "status": _status(prof.certified, prof.last_fall_degree <= bound),
                }
            if accepted < per_combo:
                raise CampaignExhausted(f"could not draw {per_combo} reducible instances "
                                        f"at {(n, m, c)}")
    return _run_campaign("thm26", ("p", "e", "n", "m", "npolys", "deg_F", "reducible",
                                   "d_Fprime1", "bound", "cert", "status"), rows())


_SOLVER_COMBOS = tuple((n, m) for n in (2, 3, 4) for m in (1, 2))


def verify_solver(seed=0, per_combo=84, combos=_SOLVER_COMBOS):
    """Structured solver vs the stacked-kernel oracle on random (F, W).  A
    reducible row whose rewritten system has a cap-limited profile is
    inconclusive, with fall_bound_ok = -1.  A non-reducible row whose W^m is
    too large to enumerate is not cross-checked, with fall_bound_ok = 1."""
    seed, per_combo, combos = _campaign_args(seed, per_combo, combos, 2)

    def rows():
        for (n, m) in combos:
            field = make_field(2, 1, n)
            xn1 = univar.x_pow_n_minus_one(field.kprime, n)
            divisors = [d for d in univar.monic_divisors(field.kprime, xn1)
                        if univar.degree(d) >= 1]
            spaces = {tuple(d): subspace_from_fW(d, field) for d in divisors}
            for j in range(per_combo):
                rng = random.Random(f"{seed}:solver:{n}:{m}:{j}")
                fw = divisors[rng.randrange(len(divisors))]
                space = spaces[tuple(fw)]
                npolys = rng.randint(1, 2)
                F = gen_random_linearized(field, m, field.n, npolys, rng, exact_top=False)
                oracle_sb = brute_force_solve(F, space, m=m)
                row = {
                    "p": 2, "e": 1, "n": n, "m": m,
                    "fW": "".join(str(c) for c in fw), "nprime": space.nprime,
                    "npolys": npolys, "dim_oracle": oracle_sb.dim,
                }
                rep = reducibility_check(F, space, m=m)
                if rep.reducible:
                    sb = solve_structured(F, space, m=m, report=rep)
                    equal = subspace_equal(sb, oracle_sb)
                    prof = _gbar_profile(F, space, m, oracle_sb)
                    fall_ok = (int(prof.last_fall_degree <= (field.q - 1) * m + 1)
                               if prof.certified else -1)
                    row.update({
                        "reducible": 1, "dim_structured": sb.dim,
                        "equal": int(equal), "fall_bound_ok": fall_ok,
                        "status": _status(prof.certified, fall_ok == 1) if equal else "fail",
                    })
                else:
                    try:
                        pts = set(enumerate_solutions(F, space, m=m))
                    except EnumerationBudgetExceeded:
                        crosscheck = 1
                    else:
                        crosscheck = int(pts == set(_kprime_span(field, oracle_sb.generators, m)))
                    row.update({
                        "reducible": 0, "dim_structured": -1,
                        "equal": -1, "fall_bound_ok": crosscheck,
                        "status": _status(True, crosscheck),
                    })
                yield row
    return _run_campaign("solver", ("p", "e", "n", "m", "fW", "nprime", "npolys",
                                    "dim_oracle", "reducible", "dim_structured", "equal",
                                    "fall_bound_ok", "status"), rows())


def _gbar_profile(F, space, m, basis):
    """Points-certified profile of the input forms plus the rewriting
    relations; `basis` spans their zero set."""
    system = gbar_system([linearized_to_form(lp, space, m) for lp in F], space, m)
    return _points_profile(system, _gbar_points(basis, space, m))


def _gbar_points(basis, space, m):
    """Zero set of the rewritten system: each solution x in the span of the
    basis, as the flat point (x_i^{q^j}) over i < m, j < n'."""
    field = space.field
    return [tuple(field.frob(x, j) for x in point for j in range(space.nprime))
            for point in _kprime_span(field, basis.generators, m)]


def verify_example(seed=0, per_n=10, ns=(3, 5)):
    """The bivariate shape a x^{q^2} + b x^q + c x + u y^{q^2} + v y^q + w y at
    q = 2: whenever one of the univariate companions is coprime to x^n - 1,
    the descended-plus-field-equations system falls no later than 2q."""
    q = 2
    seed, per_n, ns = _campaign_args(seed, per_n, ns, None, "per_n", "ns")

    def rows():
        for n in ns:
            field = make_field(2, 1, n)
            ctx = make_descent_context(field, 2)
            xn1 = tuple(univar.x_pow_n_minus_one(field.k, n))
            accepted = 0
            attempt = 0
            while accepted < per_n and attempt < _EXAMPLE_MAX_ATTEMPTS:
                rng = random.Random(f"{seed}:example:{n}:{attempt}")
                attempt += 1
                a, b, c = (rng.randrange(field.order) for _ in range(3))
                u, v, w = (rng.randrange(field.order) for _ in range(3))
                gcd_x = univar.gcd(field.k, (c, b, a), xn1)
                gcd_y = univar.gcd(field.k, (w, v, u), xn1)
                if gcd_x != (1,) and gcd_y != (1,):
                    continue
                accepted += 1
                lp = LinearizedPoly(field, [(c, b, a), (w, v, u)], bound=3)
                Fsys = linearized_system_poly([lp], field, 2)
                prof = _points_profile(build_Fprime1(Fsys, ctx), fprime1_points(Fsys, ctx))
                yield {
                    "n": n,
                    "gcd_x_trivial": int(gcd_x == (1,)), "gcd_y_trivial": int(gcd_y == (1,)),
                    "d_Fprime1": prof.last_fall_degree, "bound": 2 * q,
                    "cert": int(prof.certified),
                    "status": _status(prof.certified, prof.last_fall_degree <= 2 * q),
                }
            if accepted < per_n:
                raise CampaignExhausted(f"could not draw {per_n} admissible instances at n={n}")
    return _run_campaign("example", ("n", "gcd_x_trivial", "gcd_y_trivial", "d_Fprime1",
                                     "bound", "cert", "status"), rows())


# -- output ----------------------------------------------------------------------


def campaign_csv(result):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([row[c] for c in result.columns])
    return buf.getvalue()


def campaign_json(result):
    rows = []
    for row, ms in zip(result.rows, result.timings_ms):
        r = dict(row)
        r["wall_ms"] = round(ms, 3)  # non-deterministic; excluded from the CSV
        rows.append(r)
    return json.dumps({"summary": result.summary(), "rows": rows}, indent=2,
                      sort_keys=True)


def write_campaign(result, outdir):
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{result.name}.csv")
    json_path = os.path.join(outdir, f"{result.name}.json")
    with open(csv_path, "w") as fh:
        fh.write(campaign_csv(result))
    with open(json_path, "w") as fh:
        fh.write(campaign_json(result))
    return csv_path, json_path


# -- command line ----------------------------------------------------------------


def _read_text(path):
    """The contents of a UTF-8 text file; other bytes raise MalformedInput."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from None


def _load_config(path):
    """The JSON object in the file at `path`, or {} when there is no path;
    anything but a JSON object raises MalformedInput."""
    if not path:
        return {}
    cfg = json_text(_read_text(path), path)
    if not isinstance(cfg, dict):
        raise MalformedInput(f"the config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _emit(text, path):
    """Write `text` and a newline to `path`, or print it if there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_gen(args):
    cfg = _load_config(args.config)
    field = FieldSpec.from_json(cfg.get("field", {"p": 2, "e": 1, "n": 2}))
    m = as_int(cfg.get("m", 1), "m", least=1)
    degree = as_int(cfg.get("degree", 2), "degree", least=0)
    count = as_int(cfg.get("count", m), "count", least=0)
    bound = as_int(cfg.get("bound", field.n), "bound", least=1)
    seed = args.seed if args.seed is not None else as_int(cfg.get("seed", 0), "seed", least=0)
    rng = random.Random(f"{seed}:gen")
    if "linearized" in cfg and json_value(cfg, "linearized", bool):
        F = gen_random_linearized(field, m, bound, count, rng)
        system = linearized_system_poly(F, field, m)
    else:
        ring = Ring(field, "k", [f"X{i}" for i in range(m)])
        system = gen_random_system(ring, degree, count, rng)
    _emit(system.to_json_str(), args.out)
    return 0


def _load_system(path):
    return PolySystem.from_json_str(_read_text(path))


def cmd_descend(args):
    system = _load_system(args.system)
    field = system.ring.field
    basis = json_text(args.basis, "--basis") if args.basis else None
    ctx = make_descent_context(field, system.ring.nvars, basis=basis)
    if args.emit == "Fprime":
        out = build_Fprime(system, ctx)
    elif args.emit == "Fprime1":
        out = build_Fprime1(system, ctx)
    else:
        out = build_F1(system, ctx)
    _emit(out.to_json_str(), args.out)
    return 0


def cmd_lastfall(args):
    system = _load_system(args.system)
    prof = last_fall_degree(system, cap=args.cap, certify=args.certify)
    payload = json.dumps(prof.to_json_obj(), indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _emit(payload, os.path.join(args.out, "lastfall.json"))
        with open(os.path.join(args.out, "lastfall.csv"), "w") as fh:
            csv.writer(fh, lineterminator="\n").writerows(prof.csv_rows())
    else:
        print(payload)
        csv.writer(sys.stdout, lineterminator="\n").writerows(prof.csv_rows())
    return 0


def cmd_solve_linearized(args):
    cfg = _load_config(args.config)
    field = FieldSpec.from_json(json_value(cfg, "field", dict))
    m = as_int(json_value(cfg, "m"), "m", least=1)
    F = []
    for rows in json_value(cfg, "coeffs", list):
        if not isinstance(rows, list) or len(rows) != m:
            raise MalformedInput(f"a polynomial must be a list of m = {m} rows, got {rows!r}")
        F.append(LinearizedPoly(field, rows))
    space = subspace_from_fW(json_value(cfg, "fw", list), field)
    result = {}
    if args.oracle:
        chosen = brute_force_solve(F, space, m=m)
        result["mode"] = "oracle"
    else:
        sb = solve_structured(F, space, m=m)
        chosen = sb
        result["mode"] = "structured"
        result["trace"] = {
            "final_gcd": list(sb.trace.final_gcd),
            "eliminated_stages": list(sb.trace.active_stages),
            "substitutions": {
                str(s): [list(r) for r in lp.coeffs]
                for s, lp in sb.trace.substitutions.items()
            },
        }
        if args.compare:
            result["agrees_with_oracle"] = subspace_equal(sb, brute_force_solve(F, space, m=m))
    result["dim"] = chosen.dim
    result["generators"] = [[field.coords(v) for v in gen] for gen in chosen.generators]
    result["coord_matrix"] = [[int(c) for c in row] for row in chosen.coord_matrix]
    _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
    return 0


_CAMPAIGNS = {
    "thm11": verify_thm_1_1,
    "thm26": verify_thm_2_6,
    "solver": verify_solver,
    "example": verify_example,
}


def cmd_verify(args):
    cfg = _load_config(args.config)
    kwargs = cfg.get(args.campaign, {})
    if not isinstance(kwargs, dict):
        raise MalformedInput(f"the {args.campaign!r} entry must be a JSON object, "
                             f"got {type(kwargs).__name__}")
    campaign = _CAMPAIGNS[args.campaign]
    unknown = sorted(set(kwargs) - set(inspect.signature(campaign).parameters))
    if unknown:
        print(f"lastfall verify {args.campaign}: unknown config key(s): "
              f"{', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.seed is not None:  # a config seed is read even when --seed replaces it
        as_int(kwargs.get("seed", 0), "seed", least=0)
        kwargs["seed"] = args.seed
    result = campaign(**kwargs)
    if args.out:
        write_campaign(result, args.out)
    if args.format == "json" or not args.out:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(campaign_csv(result), end="")
    ok = result.failed == 0 and (result.inconclusive == 0 or args.allow_inconclusive)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="lastfall")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random system file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("descend", help="emit a descended or chain-extended system")
    p.add_argument("system", help="input system JSON file")
    p.add_argument("--emit", choices=("Fprime", "Fprime1", "F1"), default="Fprime1")
    p.add_argument("--basis", default=None, help="JSON list of basis element codes")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("lastfall", help="fall profile of a system")
    p.add_argument("system", help="input system JSON file")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--certify", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_lastfall)

    p = sub.add_parser("solve-linearized", help="solve a linearized system over W")
    p.add_argument("--oracle", action="store_true", help="force the brute-force path")
    p.add_argument("--compare", action="store_true", help="also run and diff the oracle")
    p.set_defaults(func=cmd_solve_linearized)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("campaign", choices=tuple(_CAMPAIGNS))
    p.add_argument("--allow-inconclusive", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    """Run one command; a LastfallError or OSError (a missing or unreadable
    file) it raises becomes one stderr line and exit code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = None if args.seed is None else as_int(args.seed, "--seed", least=0)
        return args.func(args)
    except (LastfallError, OSError) as exc:
        hint = "; --oracle solves it by brute force" if isinstance(exc, NotReducible) else ""
        print(f"lastfall {args.command}: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
