"""The benchmark workloads: ``fall-campaigns`` and ``linear-cli``.

A workload is set up once (the fields, descent contexts and subspaces it
uses; this is what ``setup_s`` times from a fresh interpreter) and then run
in rounds.  Round ``r`` of seed ``s`` draws its instances from the campaign
seed ``s * 1000 + r`` alone, so round 0 of seed 0 is exactly
``lastfall --seed 0 verify ...`` and the reference outputs recorded at
``reference/seed0`` apply to it.  A round times only the calls into the
library, less the time the host-speed sampler (``hostspeed``) took in them;
inputs are made and outputs checked outside the timed calls.

Every instance yields one outcome: it fails when it raised, when a campaign
row does not have status ``pass`` (the statuses come from the campaigns'
independent oracles) or when its output does not match its check.
"""

import contextlib
import json
import os
import random
import tempfile
import time
import traceback

import hostspeed
from lastfall import cli, descent, falldeg, linsys, univar
from lastfall.gf import make_field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference", "seed0")
# files the CLI workload writes and reads back, inside the checkout
SCRATCH = os.path.join(os.path.dirname(HERE), ".bench_out")


def campaign_seed(seed, r):
    return seed * 1000 + r


class RoundResult:
    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, message):
        self.failed += count
        self.problems.append(message)

    def add(self, other):
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _timed(call, tracer, name):
    """Run call() once; returns (result, seconds), leaving out the time the
    host-speed sampler took.  Under a tracer the call runs inside the
    benchmark's root span."""
    with tracer.root(name) if tracer else contextlib.nullcontext():
        busy0 = hostspeed.busy_s()
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0
        return result, elapsed - (hostspeed.busy_s() - busy0)


def _read_reference(name):
    with open(os.path.join(REFERENCE_DIR, name)) as fh:
        return fh.read()


# -- campaigns ---------------------------------------------------------------


class CampaignWorkload:
    """Acceptance-size campaigns from ``lastfall.cli``, run back to back."""

    campaigns = ()   # (cli function name, csv name, rows at acceptance size)

    def __init__(self, seed):
        self.seed = seed

    def run_round(self, r, tracer=None):
        out = RoundResult()
        cs = campaign_seed(self.seed, r)
        for fn_name, csv_name, expected in self.campaigns:
            out.attempted += expected
            fn = getattr(cli, fn_name)
            try:
                result, dt = _timed(lambda: fn(seed=cs), tracer, fn_name)
            except Exception:
                out.fail(expected, f"{fn_name}(seed={cs}) raised:\n{traceback.format_exc()}")
                continue
            out.seconds += dt
            self._check(result, csv_name, expected, cs, out)
        return out

    def _check(self, result, csv_name, expected, cs, out):
        bad = {i for i, row in enumerate(result.rows) if row["status"] != "pass"}
        if len(result.rows) != expected:
            out.problems.append(f"{csv_name}: {len(result.rows)} rows, expected {expected}")
            bad.update(range(len(result.rows), expected))
        if cs == 0:
            text, ref_text = cli.campaign_csv(result), _read_reference(csv_name)
            got, ref = text.splitlines(), ref_text.splitlines()
            differ = {i for i in range(expected)
                      if got[:1] != ref[:1] or got[i + 1:i + 2] != ref[i + 1:i + 2]}
            if text != ref_text and not differ:
                differ = set(range(expected))
            if differ:
                out.problems.append(f"{csv_name}: {len(differ)} rows differ from the "
                                    "reference CSV")
            bad |= differ
        bad = {i for i in bad if i < expected}
        if bad:
            out.fail(len(bad), f"{csv_name}: {len(bad)} failed rows")


class FallCampaigns(CampaignWorkload):
    campaigns = (("verify_thm_1_1", "thm11.csv", 200),
                 ("verify_example", "example.csv", 20))

    def setup(self):
        # the (p, n, m) combinations verify_thm_1_1 and verify_example use
        combos = {(p, n, m) for p in (2, 3) for n in (2, 3) for m in (1, 2)}
        combos |= {(2, 3, 2), (2, 5, 2)}
        fields = {(p, n): make_field(p, 1, n) for (p, n) in {c[:2] for c in combos}}
        for (p, n, m) in combos:
            descent.make_descent_context(fields[(p, n)], m)


class LinearCampaigns(CampaignWorkload):
    campaigns = (("verify_thm_2_6", "thm26.csv", 108),
                 ("verify_solver", "solver.csv", 504))

    def setup(self):
        for n in (2, 3, 4):
            field = make_field(2, 1, n)
            linsys.full_space(field)
            for m in (1, 2):
                descent.make_descent_context(field, m)
            xn1 = univar.x_pow_n_minus_one(field.kprime, n)
            for d in univar.monic_divisors(field.kprime, xn1):
                if univar.degree(d) >= 1:
                    linsys.subspace_from_fW(d, field)


# -- CLI fall profiles -----------------------------------------------------------


class CliCertify:
    """``lastfall --out DIR lastfall system.json`` through ``lastfall.cli.main``:
    parse the system (which rebuilds its field tables), compute the fall
    profile and certify it with the default toy-Buchberger oracle."""

    # p, e, n, m, equations, degree, requests per round: the Fprime1 system of
    # a random F over GF(q^n) in m variables.  Toy-Buchberger time swings
    # with the draw (1.6-6.5 s per GF(3) n=3 m=2 draw), so the shapes are
    # small enough for several draws per round to average that out.
    shapes = ((2, 1, 8, 1, 1, 2, 1), (2, 1, 4, 2, 2, 2, 3), (2, 2, 2, 2, 2, 2, 3),
              (3, 1, 2, 2, 2, 2, 3))

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.contexts = [descent.make_descent_context(make_field(p, e, n), m)
                         for (p, e, n, m, _, _, _) in self.shapes]

    def run_round(self, r, tracer=None):
        out = RoundResult()
        cs = campaign_seed(self.seed, r)
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            path = os.path.join(tmp, "system.json")
            outdir = os.path.join(tmp, "profile")
            for ctx, (p, e, n, m, count, degree, draws) in zip(self.contexts, self.shapes):
                for j in range(draws):
                    out.attempted += 1
                    rng = random.Random(f"{cs}:cli:{p}:{e}:{n}:{m}:{j}")
                    F = cli.gen_random_system(ctx.ring_original, degree, count, rng)
                    self._request(F, ctx, path, outdir, tracer, out,
                                  f"cli GF({p}^{e * n}) m={m} draw {j}")
        return out

    @staticmethod
    def _request(F, ctx, path, outdir, tracer, out, tag):
        Fp1 = descent.build_Fprime1(F, ctx)
        with open(path, "w") as fh:
            fh.write(Fp1.to_json_str() + "\n")
        result = os.path.join(outdir, "lastfall.json")
        if os.path.exists(result):
            os.remove(result)
        argv = ["--out", outdir, "lastfall", path]
        try:
            code, dt = _timed(lambda: cli.main(argv), tracer, "cli-request")
        except Exception:
            out.fail(1, f"{tag} raised:\n{traceback.format_exc()}")
            return
        out.seconds += dt
        if code != 0 or not os.path.exists(result):
            out.fail(1, f"{tag}: exit code {code}, lastfall.json written: "
                        f"{os.path.exists(result)}")
            return
        with open(result) as fh:
            got = json.load(fh)
        # the points oracle is independent of Buchberger
        oracle = falldeg.PointsOracle(Fp1.ring, descent.fprime1_points(F, ctx))
        want = falldeg.last_fall_degree(Fp1, oracle=oracle).to_json_obj()
        if got != want:
            out.fail(1, f"{tag}: profile differs from the points-oracle profile")


class LinearCli:
    """The linear campaigns, then the CLI requests, in every round."""

    def __init__(self, seed):
        self.parts = (LinearCampaigns(seed), CliCertify(seed))

    def setup(self):
        for part in self.parts:
            part.setup()

    def run_round(self, r, tracer=None):
        out = RoundResult()
        for part in self.parts:
            out.add(part.run_round(r, tracer))
        return out


WORKLOADS = {
    "fall-campaigns": FallCampaigns,
    "linear-cli": LinearCli,
}
