"""Per-layer spans recorded from outside the package.

The package is not edited: ``instrument`` replaces the module attributes
that callers look up (for example ``fuknagaev.verify.running_max_ensemble``
or ``SmoothSpace.norms``) with wrappers that time each call, and puts the
originals back on exit. A layer's self time is the time of its spans minus
the part covered by spans opened inside them, so the self times of all
spans, the pass's root span included, add up to the pass's wall time.

Spans are aggregated by name as they close (calls, inclusive time, self
time) rather than stored one by one: a gate pass opens a few hundred
thousand of them, one or more per simulated trial.
"""

import contextlib
import functools
import inspect
import os
import time
from collections import Counter


class Tracer:
    """Span totals and counters of one traced pass."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive s, self s]
        self.counts = Counter()
        self.reuse = {}  # (law, n, seed) -> largest trial count simulated
        self._child = []  # per open span: time covered by its children

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)``
        records counts once the call has returned."""
        errors = name.split(".")[0] + ".errors"
        child = self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[errors] += 1
                raise
            finally:
                took = time.perf_counter() - start
                inner = child.pop()
                if child:
                    child[-1] += took
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += took
                rec[2] += took - inner
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` to count its calls, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_total(self):
        return sum(rec[2] for rec in self.spans.values())


def _bound(fn, args, kwargs):
    """Arguments of a call by parameter name, defaults filled in."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return bound.arguments


def _ensemble(fn, law_of):
    """Count trials, increment bytes and repeated (law, n, seed) trials."""
    def after(tr, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        trials, seed = a.get("trials", 0), a.get("seed")
        law, n, dim = law_of(a)
        tr.counts["stochastic.trials"] += trials
        tr.counts["stochastic.increment_bytes"] += trials * n * dim * 8
        key = (law, n, seed)
        tr.reuse[key] = max(tr.reuse.get(key, 0), trials)
    return after


def _iid_law(a):
    dist = a.get("dist")
    return dist, a.get("n", 0), dist.space.dimension if dist is not None else 0


def _doob_law(a):
    spec = a.get("f_spec")
    if spec is None:
        return None, 0, 0
    return ("doob", spec.terms), len(spec.terms), spec.space.dimension


def _count(name, size):
    def after(tr, args, kwargs, result):
        tr.counts[name] += size(args, kwargs, result)
    return after


def _mc_fallbacks(tr, args, kwargs, result):
    errs = getattr(result, "mc_errors", None) or ()
    tr.counts["stochastic.mc_moment_fallbacks"] += sum(1 for e in errs if e > 0)


def _bootstrap(fn):
    def after(tr, args, kwargs, result):
        tr.counts["verify.bootstrap_resamples"] += _bound(fn, args, kwargs).get("n_boot", 0)
    return after


def _report_bytes(tr, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs.get("path")
    if path and os.path.exists(path):
        tr.counts["cli.report_bytes"] += os.path.getsize(path)


def _sorted_values(args, kwargs, result):
    return len(result)


def _rows(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else 1


def _plan(fk, workload):
    """(owner, attribute, span name) to instrument; a name ending in
    ``_calls`` is counted, not timed.

    Names are those the callers look up at call time: verify imported
    several stochastic, quantile and bounds functions into its own
    namespace, so those are wrapped there as well as at home.
    """
    st, vf, qu, lg, bd, cl = (fk.stochastic, fk.verify, fk.quantile,
                              fk.legendre, fk.bounds, fk.cli)
    plan = [
        (vf, "running_max_ensemble", "stochastic.ensemble"),
        (st, "running_max_ensemble", "stochastic.ensemble"),
        (st, "truncated_ensemble", "stochastic.ensemble"),
        (st, "doob_running_max_ensemble", "stochastic.ensemble"),
        (st, "sample_increments", "stochastic.sample"),
        (st, "moment_profile", "stochastic.moment_profile"),
        (vf, "moment_profile", "stochastic.moment_profile"),
        (st, "pinelis_check", "stochastic.pinelis"),
        (st, "pinelis_supermartingale_profile", "stochastic.pinelis"),
        (st, "truncated_norm_exp_moment", "stochastic.truncated_moment"),
        (st, "truncated_norm_mean", "stochastic.truncated_moment"),
        (fk.SmoothSpace, "norms", "spaces.norms"),
        (fk.SmoothSpace, "norm", "spaces.norms"),
        (vf, "make_sample", "quantile.make_sample"),
        (qu, "make_sample", "quantile.make_sample"),
        (vf, "quantile_q", "quantile.quantile_q"),
        (qu, "quantile_q", "quantile.quantile_q"),
        (qu, "cvar_q1", "quantile.cvar"),
        (qu, "q_infinity", "quantile.qinf"),
        (qu, "quantile_triple", "quantile.triple"),
        (qu, "load_sample", "quantile.load_sample"),
        (qu, "quantile_lemma_suite", "quantile.lemma_suite"),
        (lg, "proof_chain", "legendre.proof_chain"),
        (lg, "inverse_legendre", "legendre.inverse_legendre"),
        (lg, "psi_tail", "legendre.psi_tail_calls"),
        (vf, "confidence_bound", "bounds"),
        (vf, "constant_c", "bounds"),
        (bd, "confidence_bound", "bounds"),
        (bd, "constant_c", "bounds"),
        (bd, "tail_bound", "bounds"),
        (bd, "holder_constants", "bounds"),
        (bd, "mcdiarmid_bound", "bounds"),
        (vf, "verify_confidence", "verify.campaign"),
        (vf, "clopper_pearson_upper", "verify.cp"),
        (vf, "tightness", "verify.tightness"),
        (vf, "crossover_scan", "verify.crossover"),
        (cl, "run", "cli.run"),
        (cl, "emit_report", "cli.emit"),
    ]
    if hasattr(workload, "sign_ensemble"):
        plan.append((workload, "sign_ensemble", "stochastic.ensemble"))
    for name in ("square", "uniform_inputs"):
        if hasattr(workload, name):
            plan.append((workload, name, "stochastic.doob_callback_calls"))
    return plan


def _hook(span, fn, owner, attr):
    if span == "stochastic.ensemble":
        return _ensemble(fn, _doob_law if attr == "doob_running_max_ensemble"
                         else _iid_law)
    if span == "stochastic.moment_profile":
        return _mc_fallbacks
    if span == "spaces.norms":
        return _count("spaces.norm_rows", _rows)
    if span == "quantile.make_sample":
        hook = _count("quantile.sorted_values", _sorted_values)
        if attr == "make_sample" and owner.__name__.endswith(".verify"):
            def tightness_sorts(tr, args, kwargs, result):
                hook(tr, args, kwargs, result)
                tr.counts["quantile.tightness_sorts"] += 1
            return tightness_sorts
        return hook
    if span == "verify.tightness":
        return _bootstrap(fn)
    if span == "cli.emit":
        return _report_bytes
    return None


@contextlib.contextmanager
def instrument(tracer, fk, workload):
    """Replace every planned attribute with a traced wrapper; restore on
    exit."""
    saved = []
    try:
        for owner, attr, name in _plan(fk, workload):
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn, owner.__dict__.get(attr) is fn))
            if name.endswith("_calls"):
                wrapped = tracer.counter(name, fn)
            else:
                wrapped = tracer.span(name, fn, _hook(name, fn, owner, attr))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, fn, own in reversed(saved):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)


def layer_metrics(tr):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    def calls(name):
        return tr.spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tr.spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tr.spans.get(name, (0, 0.0, 0.0))[2]

    c = tr.counts
    trials = c["stochastic.trials"]
    unique = sum(tr.reuse.values())
    resamples = c["verify.bootstrap_resamples"]
    sorts = c["quantile.tightness_sorts"] - calls("verify.tightness")
    return {
        "stochastic.ensemble_calls": (calls("stochastic.ensemble"), "count"),
        "stochastic.trials": (trials, "count"),
        "stochastic.ensemble_s": (own("stochastic.ensemble"), "s"),
        "stochastic.us_per_trial": (
            total("stochastic.ensemble") / trials * 1e6 if trials else 0.0, "us"),
        "stochastic.sample_calls": (calls("stochastic.sample"), "count"),
        "stochastic.sample_s": (own("stochastic.sample"), "s"),
        "stochastic.increment_bytes": (c["stochastic.increment_bytes"], "B"),
        "stochastic.doob_callback_calls": (c["stochastic.doob_callback_calls"], "count"),
        "stochastic.trial_reuse_ratio": (unique / trials if trials else 0.0, "ratio"),
        "stochastic.moment_profile_calls": (calls("stochastic.moment_profile"), "count"),
        "stochastic.moment_profile_s": (own("stochastic.moment_profile"), "s"),
        "stochastic.mc_moment_fallbacks": (c["stochastic.mc_moment_fallbacks"], "count"),
        "stochastic.pinelis_s": (own("stochastic.pinelis"), "s"),
        "stochastic.truncated_moment_calls": (calls("stochastic.truncated_moment"), "count"),
        "stochastic.errors": (c["stochastic.errors"], "count"),
        "spaces.norms_calls": (calls("spaces.norms"), "count"),
        "spaces.norm_rows": (c["spaces.norm_rows"], "count"),
        "spaces.norms_s": (own("spaces.norms"), "s"),
        "quantile.make_sample_calls": (calls("quantile.make_sample"), "count"),
        "quantile.sorted_values": (c["quantile.sorted_values"], "count"),
        "quantile.make_sample_s": (own("quantile.make_sample"), "s"),
        "quantile.sorts_per_resample": (sorts / resamples if resamples else 0.0, "count"),
        "quantile.qinf_calls": (calls("quantile.qinf"), "count"),
        "quantile.qinf_s": (own("quantile.qinf"), "s"),
        "quantile.cvar_s": (own("quantile.cvar"), "s"),
        "quantile.load_sample_s": (own("quantile.load_sample"), "s"),
        "quantile.errors": (c["quantile.errors"], "count"),
        "legendre.proof_points": (calls("legendre.proof_chain"), "count"),
        "legendre.proof_chain_s": (own("legendre.proof_chain"), "s"),
        "legendre.inverse_legendre_calls": (calls("legendre.inverse_legendre"), "count"),
        "legendre.inverse_legendre_s": (own("legendre.inverse_legendre"), "s"),
        "legendre.psi_tail_calls": (c["legendre.psi_tail_calls"], "count"),
        "legendre.errors": (c["legendre.errors"], "count"),
        "bounds.calls": (calls("bounds"), "count"),
        "bounds.s": (own("bounds"), "s"),
        "verify.campaign_calls": (calls("verify.campaign"), "count"),
        "verify.campaign_s": (own("verify.campaign"), "s"),
        "verify.cp_calls": (calls("verify.cp"), "count"),
        "verify.cp_s": (own("verify.cp"), "s"),
        "verify.tightness_s": (own("verify.tightness"), "s"),
        "verify.bootstrap_resamples": (resamples, "count"),
        "cli.runs": (calls("cli.run"), "count"),
        "cli.run_s": (own("cli.run"), "s"),
        "cli.emit_s": (own("cli.emit"), "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "B"),
    }
