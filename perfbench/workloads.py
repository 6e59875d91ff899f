"""The benchmark's workloads.

A workload is built from a seed: every random input it feeds the program
is drawn here, before timing starts. One pass is a list of operations,
each a call into the package followed by a check of its output. An
operation that raises or fails its check counts as failed.
"""

import functools
import hashlib
import itertools
import json
import math
import time

import numpy as np

U_GRID = (0.5, 0.2, 0.1, 0.05, 0.01)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def law_check(maxima, sigma_sq, D, dim, p, sigma_sq_se=0.0):
    """Check d^(2/p-1) sigma^2 <= mean(max^2) <= 4 D^2 sigma^2 within five
    standard errors.

    The upper end is Doob's L^2 maximal inequality with
    E||M_n||^2 <= D^2 sigma^2; the lower end follows from max >= ||M_n|| and
    ||x||_p >= d^(1/p-1/2) ||x||_2. A Monte Carlo estimate of sigma^2 widens
    both ends by five of its own standard errors. Coverage verdicts alone
    cannot catch a running maximum that is zero or scaled down; this can.
    """
    sq = np.asarray(maxima, dtype=float) ** 2
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(sq.size))
    lo_factor = dim ** (2.0 / p - 1.0)
    hi_factor = 4.0 * D * D
    lo = lo_factor * sigma_sq - 5.0 * (se + lo_factor * sigma_sq_se)
    hi = hi_factor * sigma_sq + 5.0 * (se + hi_factor * sigma_sq_se)
    if not lo <= mean <= hi:
        raise CheckFailed(f"mean(max^2) = {mean:.6g} outside the law range "
                          f"[{lo:.6g}, {hi:.6g}] (sigma^2 = {sigma_sq:.6g})")


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Probe:
    """Keeps the running maxima and moment profile of the last campaign.

    ``verify_confidence`` and ``tightness`` return verdicts, not the maxima
    the law check needs, so the probe wraps the two names the verify
    module looks up. It adds one Python call per campaign.
    """

    def __init__(self, fk):
        self._verify = fk.verify
        self.maxima = None
        self.profile = None

    def __enter__(self):
        self._saved = (self._verify.running_max_ensemble,
                       self._verify.moment_profile)
        ensemble, profile = self._saved

        @functools.wraps(ensemble)
        def running_max_ensemble(*args, **kwargs):
            self.maxima = ensemble(*args, **kwargs)
            return self.maxima

        @functools.wraps(profile)
        def moment_profile(*args, **kwargs):
            self.profile = profile(*args, **kwargs)
            return self.profile

        self._verify.running_max_ensemble = running_max_ensemble
        self._verify.moment_profile = moment_profile
        return self

    def __exit__(self, *exc):
        (self._verify.running_max_ensemble,
         self._verify.moment_profile) = self._saved

    def take(self):
        """The last campaign's (maxima, profile); cleared for the next one."""
        if self.maxima is None or self.profile is None:
            raise CheckFailed("campaign did not simulate an ensemble")
        out = (self.maxima, self.profile)
        self.maxima = self.profile = None
        return out


class Workload:
    """Inputs made from a seed, and the checked operations of one pass."""

    name = ""

    def __init__(self, fk, seed, toy=False):
        self.fk = fk
        self.rng = np.random.default_rng(int(seed))
        self.probe = Probe(fk)
        self.digests = {}
        self.proof_latencies = []

    def _seed(self):
        return int(self.rng.integers(1, 2**31 - 1))

    def ops(self):
        """[(name, callable)] run in order; the first is the cold call
        that set-up time includes."""
        raise NotImplementedError

    def _digest(self, label, path):
        """sha256 of a report file; every pass of one seed must match."""
        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(label, digest)
        require(digest == first,
                f"{label} report bytes changed between passes of one seed")
        return data

    def _campaign_law(self, dist, D):
        maxima, profile = self.probe.take()
        se = profile.mc_errors[0] if profile.mc_errors else 0.0
        law_check(maxima, profile.sigma_sq, D, dist.space.dimension,
                  dist.space.p, se)


class Gate(Workload):
    """Many short paths: the acceptance gate's coverage, Pinelis and Doob
    routes, at a tenth of its trial counts except for the Pinelis checks."""

    name = "gate"

    def __init__(self, fk, seed, toy=False):
        super().__init__(fk, seed, toy)
        self.trials = 500 if toy else 10_000
        self.pinelis_trials = 1_000 if toy else 20_000
        self.profile_trials = 200 if toy else 2_000
        self.pareto = fk.symmetric_pareto(fk.make_euclidean(5), 4.5)
        self.sign = fk.rademacher(fk.make_euclidean(1), 1.0)
        self.pareto_seed = self._seed()
        self.sign_seed = self._seed()
        self.pinelis_seed = self._seed()
        self.profile_seed = self._seed()
        self.doob_seed = self._seed()

    def ops(self):
        return [("cli_verify", self.cli_verify),
                ("sign_campaign", self.sign_campaign),
                ("tightness", self.tightness),
                ("pinelis_n5", lambda: self.pinelis(5)),
                ("pinelis_n20", lambda: self.pinelis(20)),
                ("pinelis_profile", self.pinelis_profile),
                ("doob_route", self.doob_route)]

    def _config(self, dist, seed):
        return self.fk.CampaignConfig(dist=dist, n=50, trials=self.trials, q=4.0,
                                      D=dist.space.smoothness_D, u_grid=U_GRID,
                                      seed=seed)

    def cli_verify(self):
        code = self.fk.cli.run([
            "verify", "--dist", "pareto", "--alpha", "4.5", "--dim", "5",
            "--n", "50", "--trials", str(self.trials), "--q", "4", "--D", "1",
            "--u", ",".join(str(u) for u in U_GRID),
            "--seed", str(self.pareto_seed), "--out", "verify.json"])
        require(code == 0, f"fuknagaev verify exited {code}")
        rows = json.loads(self._digest("verify", "verify.json"))["rows"]
        require(len(rows) == len(U_GRID) and all(r["verdict"] for r in rows),
                "fuknagaev verify report has a failing level")
        self._campaign_law(self.pareto, 1.0)

    def sign_campaign(self):
        report = self.fk.verify.verify_confidence(
            self._config(self.sign, self.sign_seed))
        require(report.passed, "Rademacher campaign failed a level")
        self._campaign_law(self.sign, 1.0)

    def tightness(self):
        report = self.fk.verify.tightness(
            self._config(self.pareto, self.pareto_seed), n_boot=200)
        require(report.passed, "tightness ratio below 1 at some level")
        self._campaign_law(self.pareto, 1.0)

    def sign_ensemble(self, dist, n, trials, seed):
        """Per-trial seeded increments, built the way criterion 6 builds
        them."""
        st = self.fk.stochastic
        return [st.sample_increments(dist, n, st.trial_seed(seed, j))
                for j in range(trials)]

    def pinelis(self, n):
        """pinelis_check for sign increments against E cosh(t S_n) =
        cosh(t)^n, with the standard error of the closed-form variance:
        the sample one understates it when cosh(t S_n) is this skewed."""
        ens = self.sign_ensemble(self.sign, n, self.pinelis_trials,
                                 self.pinelis_seed + n)
        for t in (0.1, 0.5, 1.0):
            rep = self.fk.stochastic.pinelis_check(ens, t=t, D=1.0, dist=self.sign)
            require(rep.passed, f"pinelis_check failed at n={n}, t={t}")
            exact = math.cosh(t) ** n
            var = (1.0 + math.cosh(2.0 * t) ** n) / 2.0 - exact * exact
            se = max(rep.standard_error, math.sqrt(var / rep.trials))
            require(abs(rep.empirical_cosh - exact) <= 5.0 * se,
                    f"Pinelis mean {rep.empirical_cosh:.6g} is more than 5 "
                    f"standard errors from cosh(t)^n = {exact:.6g} "
                    f"(n={n}, t={t})")

    def pinelis_profile(self):
        st = self.fk.stochastic
        ens = st.truncated_ensemble(self.pareto, 20, self.profile_trials,
                                    self.profile_seed, 3.0)
        state = st.pinelis_supermartingale_profile(ens, t=0.5, D=1.0,
                                                   dist=self.pareto, trunc_L=3.0)
        require(state.passed, "Pinelis supermartingale profile rose above 1")

    def square(self, z):
        return z * z

    def uniform_inputs(self, rng, n):
        return rng.random(n)

    def doob_route(self):
        """Criterion 8: Doob paths of f(Z) = sum Z_i^2, Z_i uniform(0,1),
        certified against the McDiarmid bound; Var f = 10 (1/5 - 1/9)."""
        fk = self.fk
        terms = tuple(fk.CoordinateTerm(g=self.square, mean=1.0 / 3.0)
                      for _ in range(10))
        maxima = fk.stochastic.doob_running_max_ensemble(
            fk.SeparableFunction(terms=terms), self.uniform_inputs,
            trials=self.trials, seed=self.doob_seed)
        spec = fk.HolderSpec(holder_L=1.0, alpha=1.0,
                             coordinate_moments=((1.0 / 6.0, 1.0 / 15.0),) * 10)
        sigma_sq, c4_to_4 = fk.bounds.holder_constants(spec, 4.0)
        for u in (0.1, 0.05, 0.01):
            bound = fk.bounds.mcdiarmid_bound(sigma_sq, c4_to_4, 4.0, 1.0, u).value
            exceed = int((maxima > bound).sum())
            cp = fk.verify.clopper_pearson_upper(exceed, len(maxima), 0.99)
            require(cp <= u, f"McDiarmid route fails at u={u}: cp_upper {cp:.6g}")
        law_check(maxima, 8.0 / 9.0, 1.0, 1, 2.0)


class LongPaths(Workload):
    """A few long l^p paths in dimension 16, with D the space's smoothness
    constant."""

    name = "long_paths"

    def __init__(self, fk, seed, toy=False):
        super().__init__(fk, seed, toy)
        self.trials = 500 if toy else 2_000
        self.n = 50 if toy else 1_000
        self.laws = (fk.student_t(fk.make_lp(16, 4.0), 5.0),
                     fk.gaussian(fk.make_lp(16, 3.0), 1.0))
        self.seeds = (self._seed(), self._seed())

    def ops(self):
        return [(f"{dist.kind}_l{dist.space.p:g}",
                 lambda dist=dist, seed=seed: self.campaign(dist, seed))
                for dist, seed in zip(self.laws, self.seeds)]

    def campaign(self, dist, seed):
        D = dist.space.smoothness_D
        report = self.fk.verify.verify_confidence(self.fk.CampaignConfig(
            dist=dist, n=self.n, trials=self.trials, q=4.0, D=D, u_grid=U_GRID,
            seed=seed))
        require(report.passed, f"{dist.kind} campaign failed a level")
        self._campaign_law(dist, D)


PROOF_GRID = tuple(itertools.product(
    (2.5, 3.0, 3.5, 4.0, 4.5, 6.0, 8.0, 10.0),
    (1.0, math.sqrt(2.0), 2.0),
    (0.1, 0.5, 1.0, 5.0),
    (0.001, 0.01, 0.1, 0.5)))

QUANTILE_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 10))


class Calculus(Workload):
    """No Monte Carlo: proof chains, quantile calculus on a sample file,
    the quantile lemmas and a tail-term crossover."""

    name = "calculus"

    def __init__(self, fk, seed, toy=False):
        super().__init__(fk, seed, toy)
        self.grid = PROOF_GRID[::16] if toy else PROOF_GRID
        size = 2_000 if toy else 200_000
        sample = self.rng.standard_t(3.0, size=size)
        with open("sample.txt", "w", encoding="utf-8") as handle:
            handle.write("\n".join(format(x, ".17g") for x in sample) + "\n")
        self.sample_size = size
        pair_len = 200 if toy else 2_000
        self.pairs = []
        for _ in range(20):
            x = self.rng.standard_t(4.0, size=pair_len)
            self.pairs.append((x, 0.5 * x + self.rng.standard_t(4.0, size=pair_len)))
        self.cross_profile = fk.MomentProfile(
            sigma_sq=100.0 * (1.0 + self.rng.random()), cq_to_q=1.0, q=4.0)

    def ops(self):
        ops = [(f"proof_{i}", lambda point=point: self.proof(*point))
               for i, point in enumerate(self.grid)]
        return ops + [("cli_quantile", self.cli_quantile),
                      ("lemma_suite", self.lemma_suite),
                      ("crossover", self.crossover)]

    def proof(self, q, D, sigma, u):
        start = time.perf_counter()
        report = self.fk.legendre.proof_chain(q, D, sigma, u)
        self.proof_latencies.append(time.perf_counter() - start)
        require(report.all_passed,
                f"proof_chain({q}, {D:.6g}, {sigma}, {u}) failed "
                f"{report.failing_steps}")
        require(report.final_coefficient == self.fk.bounds.constant_c(q, D),
                f"final coefficient differs from constant_c({q}, {D:.6g})")

    def cli_quantile(self):
        code = self.fk.cli.run([
            "quantile", "sample.txt", "--u",
            ",".join(str(u) for u in QUANTILE_LEVELS), "--out", "quantile.json"])
        require(code == 0, f"fuknagaev quantile exited {code}")
        report = json.loads(self._digest("quantile", "quantile.json"))
        require(report["config"]["size"] == self.sample_size,
                "quantile report read a different sample size")
        rows = report["rows"]
        require(len(rows) == len(QUANTILE_LEVELS), "quantile report lost a level")
        for r in rows:
            require(r["q"] <= r["q1"] <= r["qinf"],
                    f"Q <= Q1 <= Qinf fails at u={r['level']}")

    def lemma_suite(self):
        report = self.fk.quantile.quantile_lemma_suite(self.pairs, (0.5, 0.1, 0.01))
        require(report.all_ok, f"quantile lemma suite failed: {report}")

    def crossover(self):
        fk, prof, D = self.fk, self.cross_profile, 1.0
        t = fk.verify.crossover_scan(prof, D, (1.0, 1e4))
        require(t is not None and 1.0 <= t <= 1e4,
                f"no tail-term crossover found for sigma^2 = {prof.sigma_sq:.6g}")
        c = fk.bounds.constant_c(prof.q, D)
        poly = 2.0 * (2.0 * c * prof.cq / t) ** prof.q
        gauss = 2.0 * math.exp(-t * t / (8.0 * D * D * prof.sigma_sq))
        require(abs(gauss - poly) <= 1e-6 * max(gauss, poly),
                f"tail terms differ at the crossover t = {t:.6g}")


WORKLOADS = {w.name: w for w in (Gate, LongPaths, Calculus)}
