"""Command line surface and campaign plumbing."""

import contextlib
import io
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastfall import CampaignExhausted, MalformedInput, cli, falldeg, make_field
from lastfall.cli import (_run_campaign, campaign_csv, campaign_json, gen_random_linearized,
                          gen_random_system, main, verify_solver, verify_thm_1_1,
                          verify_thm_2_6, write_campaign)
from lastfall.descent import build_Fprime, build_Fprime1, make_descent_context
from lastfall.falldeg import GroebnerOracle, PointsOracle, groebner_toy, last_fall_degree
from lastfall.poly import PolySystem, Ring

import random

from conftest import deadline
from oracles import VARIABLE_ORDERS, in_variable_order, malformed_system_docs, shuffled_variables


def test_gen_deterministic(gf9):
    ring = Ring(gf9, "k", ["X0", "X1"])
    a = gen_random_system(ring, 2, 2, random.Random("s"))
    b = gen_random_system(ring, 2, 2, random.Random("s"))
    assert a == b


def test_gen_degree_one_is_affine(gf4):
    ring = Ring(gf4, "k", ["X0", "X1"])
    system = gen_random_system(ring, 1, 3, random.Random(1))
    assert all(f.degree <= 1 for f in system.polys)


def test_cli_gen_and_descend_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"p": 2, "e": 1, "n": 2},
                               "m": 1, "degree": 2, "count": 1, "seed": 3}))
    sysfile = tmp_path / "system.json"
    rc = main(["--config", str(cfg), "--out", str(sysfile), "gen"])
    assert rc == 0
    system = PolySystem.from_json_str(sysfile.read_text())
    assert system.ring.nvars == 1

    out = tmp_path / "desc.json"
    rc = main(["--out", str(out), "descend", str(sysfile), "--emit", "Fprime1"])
    assert rc == 0
    descended = PolySystem.from_json_str(out.read_text())
    assert descended.ring.nvars == 2
    assert len(descended.polys) == 2 + 2  # components + field equations

    rc = main(["--out", str(tmp_path / "f1.json"), "descend", str(sysfile),
               "--emit", "F1"])
    assert rc == 0


def test_cli_descend_emits_fprime(tmp_path):
    """--emit Fprime writes `build_Fprime` of the system."""
    field = make_field(2, 1, 2)
    system = gen_random_system(Ring(field, "k", ["X0"]), 2, 1, random.Random(4))
    path = tmp_path / "system.json"
    path.write_text(system.to_json_str())
    out = tmp_path / "fprime.json"
    assert main(["--out", str(out), "descend", str(path), "--emit", "Fprime"]) == 0
    want = build_Fprime(system, make_descent_context(field, 1))
    assert out.read_text() == want.to_json_str() + "\n"


def test_cli_lastfall(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"p": 2, "e": 1, "n": 1},
                               "m": 2, "degree": 2, "count": 2, "seed": 5}))
    sysfile = tmp_path / "system.json"
    main(["--config", str(cfg), "--out", str(sysfile), "gen"])
    outdir = tmp_path / "prof"
    rc = main(["--out", str(outdir), "lastfall", str(sysfile), "--cap", "5"])
    assert rc == 0
    prof = json.loads((outdir / "lastfall.json").read_text())
    assert prof["status"] in ("certified", "cap-limited")
    csv_text = (outdir / "lastfall.csv").read_text()
    assert csv_text.splitlines()[0] == "degree,dim_V,dim_V_cap_lower,dim_prev,fall"


def test_cli_lastfall_orders_agree(tmp_path):
    """A system file and the same system under a seeded permutation of its
    variables: the same rows at cap 6 uncertified, and the same certified
    last fall degree."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"p": 3, "e": 1, "n": 1},
                               "m": 2, "degree": 2, "count": 2, "seed": 11}))
    sysfile = tmp_path / "system.json"
    main(["--config", str(cfg), "--out", str(sysfile), "gen"])
    system = PolySystem.from_json_str(sysfile.read_text())
    (tmp_path / "shuffled.json").write_text(shuffled_variables(system, 11).to_json_str())
    profs = {}
    for name in ("system", "shuffled"):
        for run, flags in (("certified", []), ("cap6", ["--cap", "6", "--no-certify"])):
            outdir = tmp_path / f"{name}-{run}"
            assert main(["--out", str(outdir), "lastfall", str(tmp_path / f"{name}.json"),
                         *flags]) == 0
            profs[name, run] = json.loads((outdir / "lastfall.json").read_text())
    assert profs["system", "cap6"]["rows"] == profs["shuffled", "cap6"]["rows"]
    assert (profs["system", "certified"]["status"] == profs["shuffled", "certified"]["status"]
            == "certified")
    assert (profs["system", "certified"]["last_fall_degree"]
            == profs["shuffled", "certified"]["last_fall_degree"])


def test_cli_lastfall_has_no_order_option(tmp_path, capsys):
    """grevlex is the one monomial order: --order is a usage error."""
    sysfile = tmp_path / "system.json"
    sysfile.write_text(PolySystem(Ring(make_field(2, 1, 1), "k", ["X0"]), []).to_json_str())
    with pytest.raises(SystemExit) as exc:
        main(["lastfall", str(sysfile), "--order", "grlex"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
@pytest.mark.parametrize("spec", [(3, 1, 2), (2, 2, 2)], ids=["GF(3)", "GF(4)-tower"])
def test_cli_lastfall_default_oracle_matches_groebner(tmp_path, monkeypatch, spec,
                                                      variable_order):
    """F'_1 over GF(3) and over the GF(4) tower: the files that the default
    oracle certifies equal, byte for byte, those of an explicit Groebner
    oracle."""
    ctx = make_descent_context(make_field(*spec), 2)
    F = gen_random_system(ctx.ring_original, 2, 2, random.Random(f"cli-default:{spec}"))
    sysfile = tmp_path / "system.json"
    sysfile.write_text(in_variable_order(build_Fprime1(F, ctx), variable_order).to_json_str()
                       + "\n")

    def run(name):
        assert main(["--out", str(tmp_path / name), "lastfall", str(sysfile)]) == 0
        return {f: (tmp_path / name / f).read_bytes() for f in ("lastfall.json", "lastfall.csv")}

    def no_buchberger(*args, **kwargs):
        raise AssertionError("the default oracle ran the Buchberger")

    monkeypatch.setattr(falldeg, "groebner_toy", no_buchberger)
    default = run("default")
    assert json.loads(default["lastfall.json"])["status"] == "certified"

    def with_groebner(system, **kwargs):
        return last_fall_degree(system, oracle=GroebnerOracle(groebner_toy(system)), **kwargs)

    monkeypatch.setattr(cli, "last_fall_degree", with_groebner)
    assert run("groebner") == default


def test_cli_solve_linearized(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "field": {"p": 2, "e": 1, "n": 2},
        "m": 2,
        "coeffs": [[[1, 0], [1, 0]]],   # x_0 - x_1
        "fw": [1, 0, 1],                # x^2 - 1
    }))
    rc = main(["--config", str(cfg), "solve-linearized", "--compare"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "structured"
    assert out["agrees_with_oracle"] is True
    assert out["dim"] == 2

    rc = main(["--config", str(cfg), "solve-linearized", "--oracle"])
    assert rc == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["mode"] == "oracle"
    assert out2["coord_matrix"] == out["coord_matrix"]


def test_cli_solve_linearized_q_above_7(tmp_path, capsys):
    """q = 9 (k' = GF(9)) solves and agrees with the oracle; a ceiling of
    q = 7 on the structured solver once ended it in a ValueError
    traceback."""
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"field": {"p": 3, "e": 2, "n": 2}, "m": 1,
                               "coeffs": [[[1, 1]]], "fw": [2, 1]}))
    assert main(["--config", str(cfg), "solve-linearized", "--compare"]) == 0
    assert json.loads(capsys.readouterr().out)["agrees_with_oracle"] is True


def test_campaign_csv_reproducible(tmp_path):
    a = verify_thm_1_1(seed=9, per_combo=1, combos=((2, 2, 1),))
    b = verify_thm_1_1(seed=9, per_combo=1, combos=((2, 2, 1),))
    assert campaign_csv(a) == campaign_csv(b)
    paths = write_campaign(a, str(tmp_path))
    assert (tmp_path / "thm11.csv").exists()
    payload = json.loads((tmp_path / "thm11.json").read_text())
    assert payload["summary"]["total"] == 1
    assert "wall_ms" in payload["rows"][0]


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"thm11": {"per_combo": 1, "combos": [[2, 2, 1]]}}))
    rc = main(["--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "o"),
               "verify", "thm11"])
    assert rc == 0
    assert (tmp_path / "o" / "thm11.csv").exists()
    capsys.readouterr()
    # the config checks accept the one-element field GF(2)
    cfg.write_text(json.dumps({"example": {"ns": [1], "per_n": 1}}))
    assert main(["--config", str(cfg), "verify", "example"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] == 1


def assert_refused_as_exhausted(tmp_path, capsys, campaign, config, line):
    """`lastfall verify` of the campaign with the config prints the one
    stderr line and exits 2."""
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({campaign: config}))
    assert main(["--config", str(cfg), "verify", campaign]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"lastfall verify: {line}"]


def test_thm26_refuses_to_truncate_a_campaign(tmp_path, capsys):
    """With at most 200 draws per combination, 201 rows once came back as
    200 rows with no failure, and `lastfall verify thm26` exited 0; later
    it ended in a traceback.  It is a typed refusal, still a RuntimeError."""
    line = "could not draw 201 reducible instances at (2, 1, 1)"
    with pytest.raises(CampaignExhausted, match=re.escape(line)) as info:
        verify_thm_2_6(seed=0, per_combo=201, combos=((2, 1, 1),))
    assert isinstance(info.value, RuntimeError)
    assert_refused_as_exhausted(tmp_path, capsys, "thm26",
                                {"per_combo": 201, "combos": [[2, 1, 1]]}, line)


def test_example_refuses_to_truncate_a_campaign(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_EXAMPLE_MAX_ATTEMPTS", 3)
    line = "could not draw 4 admissible instances at n=3"
    with pytest.raises(CampaignExhausted, match=line):
        cli.verify_example(seed=0, per_n=4, ns=(3,))
    assert_refused_as_exhausted(tmp_path, capsys, "example", {"per_n": 4, "ns": [3]}, line)


def test_solver_subcommand_campaign_smoke():
    res = verify_solver(seed=1, per_combo=4, combos=((2, 1), (3, 2)))
    assert res.failed == 0


def test_cli_gen_linearized(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"p": 2, "e": 1, "n": 3},
                               "m": 2, "count": 1, "seed": 8,
                               "linearized": True, "bound": 2}))
    sysfile = tmp_path / "lin.json"
    assert main(["--config", str(cfg), "--out", str(sysfile), "gen"]) == 0
    system = PolySystem.from_json_str(sysfile.read_text())
    # linearized shape: every monomial is a q-power of a single variable
    for f in system.polys:
        for e in f.terms:
            nonzero = [a for a in e if a]
            assert len(nonzero) == 1 and nonzero[0] in (1, 2, 4)


class _NeverCertifies(PointsOracle):
    """A points oracle whose staircase bound no cap reaches."""

    def max_gb_degree(self):
        return 10**9


def test_cli_verify_inconclusive_exit_code(tmp_path, capsys, monkeypatch):
    """Cap-limited rows are never passes; without the override the exit code
    is nonzero, with it the campaign may still succeed."""
    monkeypatch.setattr(cli, "PointsOracle", _NeverCertifies)
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"thm11": {"per_combo": 2, "combos": [[2, 2, 2]]}}))
    rc = main(["--config", str(cfg), "--seed", "0", "verify", "thm11"])
    assert rc == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["inconclusive"] == summary["total"] > 0
    rc = main(["--config", str(cfg), "--seed", "0", "verify", "thm11",
               "--allow-inconclusive"])
    assert rc == 0
    capsys.readouterr()


def test_cli_verify_csv_format(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"thm11": {"per_combo": 1, "combos": [[2, 2, 1]]}}))
    rc = main(["--config", str(cfg), "--format", "csv", "--out",
               str(tmp_path / "o"), "verify", "thm11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("instance,p,e,n,m,")
    assert (tmp_path / "o" / "thm11.csv").read_text() == out


def test_run_campaign_numbers_times_and_counts():
    statuses = ["pass", "fail", "inconclusive", "pass", "pass"]

    def rows():
        for v, status in enumerate(statuses):
            if v == 1:
                time.sleep(0.02)   # work before a yield is that row's time
            yield {"v": v, "status": status}

    res = _run_campaign("toy", ("v", "status"), rows())
    assert res.columns == ("instance", "v", "status")
    assert [r["instance"] for r in res.rows] == list(range(len(statuses)))
    assert [r["v"] for r in res.rows] == list(range(len(statuses)))
    assert len(res.timings_ms) == len(res.rows)
    assert res.timings_ms[1] >= 20
    assert (res.passed, res.failed, res.inconclusive) == tuple(
        statuses.count(s) for s in ("pass", "fail", "inconclusive"))
    assert not res.ok
    assert campaign_csv(res).splitlines()[2] == "1,1,fail"
    payload = json.loads(campaign_json(res))
    assert [("wall_ms" in r) for r in payload["rows"]] == [True] * len(statuses)
    assert payload["summary"]["total"] == len(statuses)


def test_cli_verify_rejects_unknown_config_keys(tmp_path, capsys):
    for campaign, cfg in (("thm11", {"bogus": 3}),
                          ("thm26", {"per_combo": 1, "certifier": "points"}),
                          ("example", {"max_attempts": 5, "zzz": 1}),
                          ("solver", {"check_fall_bound": "no", "per_combo": 1})):
        path = tmp_path / f"{campaign}.json"
        path.write_text(json.dumps({campaign: cfg}))
        rc = main(["--config", str(path), "verify", campaign])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        unknown = sorted(set(cfg) - {"per_combo"})
        assert captured.err.splitlines() == [
            f"lastfall verify {campaign}: unknown config key(s): {', '.join(unknown)}"]


_ONE_THM11 = {"per_combo": 1, "combos": [[2, 2, 1]]}


_PLAIN = "lastfall verify: "


@pytest.mark.parametrize("campaign,config,prefix", [
    pytest.param("thm11", [1], _PLAIN, id="config-not-object"),
    pytest.param("thm11", {"thm11": [1]}, _PLAIN, id="entry-not-object"),
    pytest.param("thm11", {"thm11": {**_ONE_THM11, "seed": "x"}}, _PLAIN, id="seed-string"),
    pytest.param("thm11", {"thm11": {**_ONE_THM11, "seed": -1}}, _PLAIN, id="seed-negative"),
    pytest.param("thm11", {"thm11": {"per_combo": "x"}}, _PLAIN, id="per-combo-string"),
    pytest.param("thm11", {"thm11": {"per_combo": -1}}, _PLAIN, id="per-combo-negative"),
    pytest.param("thm11", {"thm11": {**_ONE_THM11, "per_combo": True}}, _PLAIN,
                 id="per-combo-bool"),
    pytest.param("example", {"example": {"per_n": -1}}, _PLAIN, id="per-n-negative"),
    pytest.param("example", {"example": {"per_n": 1.5}}, _PLAIN, id="per-n-float"),
    pytest.param("thm11", {"thm11": {"cap": "x"}},
                 "lastfall verify thm11: unknown config key(s): cap", id="cap-string"),
    pytest.param("thm11", {"thm11": {"combos": [[2, 2]]}}, _PLAIN, id="combo-too-short"),
    pytest.param("solver", {"solver": {"combos": [[2, 1, 1]], "per_combo": 1}},
                 _PLAIN, id="combo-too-long"),
    pytest.param("thm11", {"thm11": {"combos": "x"}}, _PLAIN, id="combos-string"),
    pytest.param("thm11", {"thm11": {"combos": [[2, 2, 1.5]], "per_combo": 1}},
                 _PLAIN, id="combo-float"),
    pytest.param("thm26", {"thm26": {"combos": [[2, 0, 1]]}}, _PLAIN, id="combo-zero"),
    pytest.param("example", {"example": {"ns": 3}}, _PLAIN, id="ns-not-list"),
    pytest.param("solver", {"solver": {"check_fall_bound": "no", "per_combo": 1,
                                       "combos": [[2, 1]]}},
                 "lastfall verify solver: unknown config key(s): check_fall_bound",
                 id="check-fall-bound-string"),
])
def test_cli_verify_refuses_malformed_config(tmp_path, capsys, campaign, config, prefix):
    """Each of these configs once ended in a traceback, or ran (an empty
    campaign for a negative count, a string read as true) and exited 0.
    The solver campaign no longer takes check_fall_bound, nor thm11 cap, so
    those keys are refused as unknown."""
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(config))
    rc = main(["--config", str(path), "verify", campaign])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


def test_solver_uncertified_fall_bound_is_inconclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "PointsOracle", _NeverCertifies)
    res = verify_solver(seed=0, per_combo=4, combos=((2, 2),))
    reducible = [r for r in res.rows if r["reducible"]]
    assert reducible
    for row in reducible:
        assert row["equal"] == 1
        assert row["fall_bound_ok"] == -1
        assert row["status"] == "inconclusive"
    assert res.inconclusive == len(reducible)

    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"solver": {"per_combo": 4, "combos": [[2, 2]]}}))
    assert main(["--config", str(cfg), "--seed", "0", "verify", "solver"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["inconclusive"] == len(reducible)


def test_cli_refuses_non_reducible_system(tmp_path, capsys):
    """x_0 (t x_0 + x_0^2) + x_1^2 over GF(4) fails at stage 0 with a gcd
    of degree 1; the structured path refuses it, the oracle path solves it."""
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "field": {"p": 2, "e": 1, "n": 2},
        "m": 2,
        "coeffs": [[[2, 1], [0, 1]]],
        "fw": [1, 0, 1],
    }))
    rc = main(["--config", str(cfg), "solve-linearized"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "lastfall solve-linearized: not reducible at stage 0: the stage companions "
        "and f_W have a symbolic gcd of degree 1; --oracle solves it by brute force"]
    assert main(["--config", str(cfg), "solve-linearized", "--oracle"]) == 0


_SOLVE_GOOD = {"field": {"p": 2, "e": 1, "n": 2}, "m": 2,
               "coeffs": [[[1, 0], [1, 0]]], "fw": [1, 0, 1]}


def test_cli_solve_linearized_refuses_incomplete_config(tmp_path, capsys):
    """A config without field, m, coeffs, fw or the field's p or n, or one
    that is not JSON, once ended in a traceback instead of one line and exit
    code 2."""
    good = _SOLVE_GOOD
    configs = [{"m": 2, "coeffs": [[[1], [1]]], "fw": [1, 1]}]
    configs += [{k: v for k, v in good.items() if k != key} for key in good]
    configs += [{**good, "field": {k: v for k, v in good["field"].items() if k != key}}
                for key in ("p", "n")]
    configs.append({**good, "coeffs": 3})
    texts = [json.dumps(doc) for doc in configs] + ['{"field": ']
    cfg = tmp_path / "solve.json"
    for text in texts:
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "solve-linearized"])
        captured = capsys.readouterr()
        assert rc == 2, text
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("lastfall solve-linearized: "), text


def test_cli_solve_linearized_refuses_a_missing_config(capsys):
    """Without --config it once ended in a TypeError traceback."""
    assert main(["solve-linearized"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("lastfall solve-linearized: ")


@pytest.mark.parametrize("doc", [
    pytest.param({**_SOLVE_GOOD, "m": 1}, id="two-rows-for-m-1"),
    pytest.param({**_SOLVE_GOOD, "coeffs": [[[1, 0]]]}, id="one-row-for-m-2"),
    pytest.param({**_SOLVE_GOOD, "m": 0}, id="m-0"),
    pytest.param({**_SOLVE_GOOD, "m": "2"}, id="m-string"),
    pytest.param({**_SOLVE_GOOD, "m": True}, id="m-boolean"),
    pytest.param({**_SOLVE_GOOD, "coeffs": [[[7, 0], [1, 0]]]}, id="code-7-over-gf4"),
    pytest.param({**_SOLVE_GOOD, "coeffs": [[[True, 0], [1, 0]]]}, id="code-boolean"),
    pytest.param({"field": {"p": 2, "e": 1, "n": 1}, "m": 2, "coeffs": [[[1], [1]]],
                  "fw": [5, 1]}, id="fw-code-5-over-gf2"),
    pytest.param({**_SOLVE_GOOD, "coeffs": [[1, 0]]}, id="rows-not-lists"),
    pytest.param({**_SOLVE_GOOD, "fw": []}, id="fw-empty"),
])
def test_cli_solve_linearized_refuses_malformed_config(tmp_path, capsys, doc):
    """Each of these configs once ended in a numpy, index or type error
    traceback, or (one row for m = 2) solved as if the missing row were
    zero."""
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["--config", str(cfg), "solve-linearized"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("lastfall solve-linearized: ")


def test_cli_lastfall_refuses_malformed_exponents(tmp_path, capsys):
    """[true, 0] once loaded as the exponent vector (1, 0)."""
    for exps in ([1.5, 0], [-1, 2], [True, 0]):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "field": {"p": 2, "e": 1, "n": 1}, "level": "k", "vars": ["X0", "X1"],
            "polys": [[{"coeff": [1], "exps": exps}]]}))
        rc = main(["--out", str(tmp_path / "prof"), "lastfall", str(path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lastfall lastfall: ")
        assert not (tmp_path / "prof").exists()


def test_cli_lastfall_refuses_malformed_coefficients(tmp_path, capsys):
    """Over GF(2) a digit of 3 once ended in a traceback and exit code 1,
    and 1.5, true or a two-digit vector loaded silently."""
    for coeff in ([3], [1.5], [1, 0], [True]):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "field": {"p": 2, "e": 1, "n": 1}, "level": "k", "vars": ["X0", "X1"],
            "polys": [[{"coeff": coeff, "exps": [1, 0]}]]}))
        rc = main(["--out", str(tmp_path / "prof"), "lastfall", str(path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lastfall lastfall: ")
        assert not (tmp_path / "prof").exists()


def test_cli_lastfall_reads_a_field_without_e(tmp_path, capsys):
    """e defaults to 1 in a system file, as in a config; a field without e
    was once refused."""
    outs = []
    for field in ({"p": 3, "e": 1, "n": 2}, {"p": 3, "n": 2}):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "field": field, "level": "k", "vars": ["X0"],
            "polys": [[{"coeff": [1, 2], "exps": [2]}, {"coeff": [0, 1], "exps": [0]}]]}))
        assert main(["lastfall", str(path), "--cap", "5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_lastfall_refuses_malformed_documents(tmp_path, capsys):
    """A missing key or a value of the wrong type once ended in a KeyError
    or TypeError traceback instead of one line and exit code 2."""
    texts = {name: json.dumps(doc)
             for name, doc in malformed_system_docs(make_field(2, 1, 2)).items()}
    texts["not-json"] = '{"field": '
    path = tmp_path / "system.json"
    for name, text in texts.items():
        path.write_text(text)
        rc = main(["--out", str(tmp_path / "prof"), "lastfall", str(path)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2, name
        assert len(err) == 1 and err[0].startswith("lastfall lastfall: "), name
        assert not (tmp_path / "prof").exists()


def test_cli_solve_linearized_ignores_seed(tmp_path, capsys):
    """The structured solution and its elimination trace do not depend on
    --seed; this instance once printed a different substitution per seed."""
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "field": {"p": 2, "e": 1, "n": 3},
        "m": 2,
        "coeffs": [[[6, 0, 4], [7, 6, 4]], [[7, 5, 3], [2, 4, 2]]],
        "fw": [1, 0, 0, 1],
    }))
    outs = []
    for seed in ("1", "2", "3"):
        assert main(["--seed", seed, "--config", str(cfg), "solve-linearized",
                     "--compare"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["agrees_with_oracle"] is True


_DELETE = object()
_FIELD_PATHS = [(key,) for key in ("p", "e", "n", "m1", "m2")] + [
    ("m1", 0), ("m1", 1), ("m2", 0), ("m2", 1), ("m2", 2)]
_FIELD_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-2, 12), st.just(10**30),
    st.floats(-2, 12), st.text(max_size=3), st.lists(st.integers(-1, 10), max_size=4),
    st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=2))


@settings(max_examples=150)
@given(path=st.sampled_from(_FIELD_PATHS), value=_FIELD_VALUES)
def test_cli_lastfall_field_fuzz(path, value):
    """A GF(9) system document with one field value replaced or deleted
    either runs or is refused with one stderr line and exit code 2; a
    non-integer p, e or n, or a bad modulus, once ended in a traceback."""
    doc = {"field": make_field(3, 1, 2).to_json(), "level": "k", "vars": ["X0", "X1"],
           "polys": [[{"coeff": [1, 1], "exps": [2, 0]}, {"coeff": [2, 0], "exps": [0, 1]}],
                     [{"coeff": [0, 1], "exps": [1, 1]}, {"coeff": [1, 0], "exps": [0, 0]}]]}
    *parents, last = path
    target = doc["field"]
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        system = Path(d) / "system.json"
        system.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["--out", str(Path(d) / "prof"), "lastfall", str(system), "--cap", "4"])
    lines = err.getvalue().splitlines()
    assert (rc, lines) == (0, []) or (rc == 2 and len(lines) == 1
                                      and lines[0].startswith("lastfall lastfall: ")), doc


_SOLVE_PATHS = [(key,) for key in _SOLVE_GOOD] + [("field", key) for key in ("p", "e", "n")] + [
    ("coeffs", 0), ("coeffs", 0, 0), ("coeffs", 0, 1)] + [
    ("coeffs", 0, r, c) for r in range(2) for c in range(2)] + [("fw", c) for c in range(3)]
_SOLVE_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.sampled_from([0, 2, 99999]),
    st.integers(-3, -1), st.floats(-2, 12), st.text(max_size=3),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=2))


@settings(max_examples=150)
@given(path=st.sampled_from(_SOLVE_PATHS), value=_SOLVE_VALUES)
def test_cli_solve_linearized_config_fuzz(path, value):
    """A solve-linearized config with one key or row entry replaced or
    deleted either runs or is refused with one stderr line and exit code 2,
    in the structured, --compare and --oracle modes."""
    doc = json.loads(json.dumps(_SOLVE_GOOD))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "solve.json"
        cfg.write_text(json.dumps(doc))
        for mode in ([], ["--compare"], ["--oracle"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["--config", str(cfg), "solve-linearized", *mode])
            lines = err.getvalue().splitlines()
            assert (rc, lines) == (0, []) or (
                rc == 2 and len(lines) == 1
                and lines[0].startswith("lastfall solve-linearized: ")), (doc, mode)


@pytest.mark.parametrize("config", [
    pytest.param({"degree": -1}, id="degree-negative"),
    pytest.param({"linearized": True, "bound": 0}, id="bound-0"),
    pytest.param([1, 2], id="not-an-object"),
    pytest.param({"m": "2"}, id="m-string"),
    pytest.param({"count": "x"}, id="count-string"),
    pytest.param({"degree": 1.5}, id="degree-float"),
    pytest.param({"m": -1, "linearized": True}, id="m-negative"),
    pytest.param({"m": True}, id="m-boolean"),
])
def test_cli_gen_refuses_malformed_config(tmp_path, capsys, config):
    """Each of these gen configs once spun forever, ended in an AttributeError
    or TypeError traceback, or (m = -1) wrote a system in no variables."""
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(config))
    with deadline(30):
        rc = main(["--config", str(cfg), "gen"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("lastfall gen: ")


@pytest.mark.parametrize("call", [
    lambda: gen_random_system(Ring(make_field(2, 1, 2), "k", ["X0"]), -1, 1, random.Random(0)),
    lambda: gen_random_linearized(make_field(2, 1, 2), 1, 0, 1, random.Random(0)),
    lambda: gen_random_linearized(make_field(2, 1, 2), 0, 2, 1, random.Random(0)),
], ids=["degree-negative", "bound-0", "m-0"])
def test_generators_refuse_empty_draws(call):
    """With no monomial or no coefficient to draw, the generators once
    redrew an all-zero polynomial forever."""
    with deadline(30), pytest.raises(MalformedInput):
        call()


@pytest.mark.parametrize("basis", ["[1.5, 2]", "[true, 2]", "[1", '"x"', '{"a": 1}',
                                   "[100, 2]", "[-1, 2]"])
def test_cli_descend_refuses_malformed_basis(tmp_path, capsys, basis):
    """A float or boolean code once truncated silently to another basis; the
    others ended in a JSONDecodeError or ValueError traceback."""
    system = tmp_path / "system.json"
    system.write_text(PolySystem(Ring(make_field(2, 1, 2), "k", ["X0"]), []).to_json_str())
    rc = main(["--out", str(tmp_path / "out.json"), "descend", str(system), "--basis", basis])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("lastfall descend: ")
    assert not (tmp_path / "out.json").exists()


def test_cli_descend_accepts_a_basis(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(PolySystem(Ring(make_field(2, 1, 2), "k", ["X0"]), []).to_json_str())
    assert main(["--out", str(tmp_path / "out.json"), "descend", str(system),
                 "--basis", "[2, 3]"]) == 0


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_lastfall_refuses_bad_cap(tmp_path, capsys, cap):
    """A cap below 1 once ended in a ValueError traceback and exit code 1."""
    system = tmp_path / "system.json"
    ring = Ring(make_field(2, 1, 1), "k", ["X0"])
    system.write_text(PolySystem(ring, [ring.variable(0)]).to_json_str())
    rc = main(["lastfall", str(system), "--cap", cap])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("lastfall lastfall: ")


def test_caps_refused_with_malformed_input():
    from lastfall import last_fall_degree, span_closure

    ring = Ring(make_field(2, 1, 1), "k", ["X0"])
    system = PolySystem(ring, [ring.variable(0)])
    with pytest.raises(MalformedInput):
        last_fall_degree(system, cap=0)
    with pytest.raises(MalformedInput):
        span_closure(system, -1)


@pytest.mark.parametrize("argv", [
    pytest.param(["lastfall", "{missing}"], id="lastfall"),
    pytest.param(["descend", "{missing}"], id="descend"),
    pytest.param(["lastfall", "{dir}"], id="lastfall-directory"),
    pytest.param(["--config", "{missing}", "gen"], id="gen-config"),
    pytest.param(["--config", "{missing}", "solve-linearized"], id="solve-linearized-config"),
    pytest.param(["--config", "{missing}", "verify", "thm11"], id="verify-config"),
    pytest.param(["lastfall", "{binary}"], id="lastfall-binary"),
    pytest.param(["descend", "{binary}"], id="descend-binary"),
    pytest.param(["--config", "{binary}", "gen"], id="gen-config-binary"),
    pytest.param(["--config", "{binary}", "solve-linearized"],
                 id="solve-linearized-config-binary"),
    pytest.param(["--config", "{binary}", "verify", "thm11"], id="verify-config-binary"),
])
def test_cli_missing_file_exits_2(tmp_path, capsys, argv):
    """A missing or unreadable file once ended in a FileNotFoundError (or
    IsADirectoryError) traceback and exit code 1, and a file that is not
    UTF-8 (the bytes ff fe) in a UnicodeDecodeError traceback."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    argv = [a.format(missing=tmp_path / "missing.json", dir=tmp_path, binary=binary)
            for a in argv]
    command = next(a for a in argv if not a.startswith("-") and "/" not in a)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"lastfall {command}: ")
    assert str(tmp_path) in err[0]


def test_cli_closes_the_system_file(tmp_path, capsys):
    """lastfall and descend once left the system file open."""
    import warnings

    system = tmp_path / "system.json"
    ring = Ring(make_field(2, 1, 1), "k", ["X0"])
    system.write_text(PolySystem(ring, [ring.variable(0)]).to_json_str())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["lastfall", str(system)]) == 0
        assert main(["descend", str(system)]) == 0
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_cli_solve_linearized_runs_the_oracle_only_when_asked(tmp_path, capsys, monkeypatch):
    """The plain structured request once ran the brute-force oracle too and
    threw its answer away."""
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(_SOLVE_GOOD))
    assert main(["--config", str(cfg), "solve-linearized"]) == 0
    want = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("brute_force_solve ran")

    monkeypatch.setattr(cli, "brute_force_solve", refuse)
    assert main(["--config", str(cfg), "solve-linearized"]) == 0
    assert capsys.readouterr().out == want
