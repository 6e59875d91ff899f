"""Contracts of the shared implementations: the documented draw order of
every sampler, per-trial seeds read from Philox's own stream, moment
profiles that never draw and fit in bounded memory,
the Pinelis pair read from one set of partial sums, the truncated moments
of the scalar norm law, and the input checks and exit codes of the command
line."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from fuknagaev import cli, quantile, stochastic
from fuknagaev.bounds import (HolderSpec, constant_c, holder_constants, independent_sum_bound,
                              tail_bound)
from fuknagaev.errors import (InternalInconsistencyError, InvalidCountError, InvalidDimensionError,
                              InvalidQError)
from fuknagaev.legendre import cgf_pieces, proof_chain, rio36_check, truncation_error_bound
from fuknagaev.spaces import SmoothSpace, make_euclidean, make_lp, smoothness_certificate
from fuknagaev.stochastic import (CoordinateTerm, IncrementDistribution, MomentProfile,
                                  SeparableFunction, gaussian,
                                  moment_profile, norm_moment, pinelis_check,
                                  pinelis_supermartingale_profile, rademacher,
                                  running_max_ensemble, sample_increments, student_t,
                                  symmetric_pareto, trial_seed,
                                  truncated_ensemble, truncated_norm_exp_moment,
                                  truncated_norm_mean, uniform_cube)
from fuknagaev.verify import CampaignConfig, clopper_pearson_upper, crossover_scan, tightness

R1 = make_euclidean(1)
R3 = make_euclidean(3)


# ---------------------------------------------------------------- (a) draw order

def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _directions(rng, n, space):
    g = rng.standard_normal((n, space.dimension))
    return g / space.norms(g)[:, None]


def _running_max(xi, space):
    """max_i ||M_i|| of the path of the (n, d) increments xi, by _paths."""
    return float(stochastic._paths(xi[None].copy(), space)[2][0])


@pytest.mark.parametrize("space", [R1, R3, make_lp(4, 3.0)])
def test_sampler_draw_order(space):
    n, seed, a = 7, 1234, 4.5
    rebuilt = {}
    rng = _philox(seed)
    rebuilt[gaussian(space, a)] = a * rng.standard_normal((n, space.dimension))
    rng = _philox(seed)
    rebuilt[uniform_cube(space, a)] = rng.uniform(-a, a, size=(n, space.dimension))
    rng = _philox(seed)
    rebuilt[rademacher(space, a)] = np.full(n, a)[:, None] * _directions(rng, n, space)
    rng = _philox(seed)
    theta = _directions(rng, n, space)
    rebuilt[symmetric_pareto(space, a)] = \
        ((1.0 - rng.random(n)) ** (-1.0 / a))[:, None] * theta
    rng = _philox(seed)
    theta = _directions(rng, n, space)
    rebuilt[student_t(space, a)] = rng.standard_t(a, size=n)[:, None] * theta
    assert {dist.kind for dist in rebuilt} == set(stochastic._LAWS)
    for dist, expected in rebuilt.items():
        got = sample_increments(dist, n, seed)
        assert np.array_equal(got, expected), dist.kind
    # a trial seed reads its row of a block that the same construction draws
    dist = gaussian(space, 1.0)
    B = _block(dist, n)
    rng = np.random.Generator(np.random.Philox(trial_seed(seed, 1)))
    assert np.array_equal(sample_increments(dist, n, trial_seed(seed, B + 3)),
                          rng.standard_normal((B, n, space.dimension))[3])


# ---------------------------------------------------------------- per-trial seeds

_EDGES = (0, 2**32 - 1, 2**32, 2**64)
_LAST_TRIAL = 2**247 - 1


def _philox_block(seed, trial):
    """Block ``trial`` of the stream of np.random.Philox(seed): for small
    trials literally Philox(seed).random_raw(4 * trial + 4)[4 * trial:], past
    them the block after advance(trial), which skips whole blocks."""
    if trial < 2048:
        return np.random.Philox(seed).random_raw(4 * trial + 4)[4 * trial:]
    bits = np.random.Philox(seed)
    bits.advance(trial)
    return bits.random_raw(4)


def _reference(seed, trial):
    """A new Philox keyed as Philox(trial_seed(seed, trial)) is."""
    return np.random.Philox(key=_philox_block(seed, trial)[:2])


def _want_words(seed, trial, n_words, dtype):
    block = _philox_block(seed, trial)
    return (block if dtype == np.uint64 else block.view(np.uint32))[:n_words]


def test_philox_advance_skips_whole_blocks():
    raw = np.random.Philox(3).random_raw(4 * 2100)
    for trial in (0, 1, 511, 512, 2047, 2048, 2099):
        bits = np.random.Philox(3)
        bits.advance(trial)
        assert np.array_equal(bits.random_raw(4), raw[4 * trial:4 * trial + 4])


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**130 - 1)),
       trial=st.one_of(st.sampled_from(_EDGES + (_LAST_TRIAL,)), st.integers(0, _LAST_TRIAL)),
       dtype=st.sampled_from([np.uint32, np.uint64]), data=st.data())
def test_trial_seed_words_equal_philox_blocks(seed, trial, dtype, data):
    n_words = data.draw(st.integers(1, 8 if dtype == np.uint32 else 4))
    got = trial_seed(seed, trial).generate_state(n_words, dtype)
    assert got.dtype == dtype and np.array_equal(got, _want_words(seed, trial, n_words, dtype))


def test_trial_seed_words_at_word_edges():
    for seed in _EDGES + (2**130 - 1,):
        for trial in _EDGES + (2**70 - 1, _LAST_TRIAL):
            for dtype, n_words in ((np.uint32, 8), (np.uint64, 4)):
                got = trial_seed(seed, trial).generate_state(n_words, dtype)
                assert np.array_equal(got, _want_words(seed, trial, n_words, dtype))


@pytest.mark.parametrize("seed, trial, error", [
    (-1, 0, ValueError), (0, -1, ValueError), (-2**70, 3, ValueError),
    (1.0, 0, TypeError), (0, 2.0, TypeError), (np.float64(3), 0, TypeError),
    (0, np.float32(1), TypeError)])
def test_trial_seed_rejects_what_seed_sequence_rejects(seed, trial, error):
    with pytest.raises(error):
        np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    with pytest.raises(error):
        trial_seed(seed, trial)


@pytest.mark.parametrize("seed, trial, error", [
    (0, 2**247, ValueError), (5, 2**256, ValueError), (5, 2**256 + 3, ValueError),
    ("3", 0, TypeError), (0, "3", TypeError), (np.bool_(True), 0, TypeError),
    (0, np.bool_(False), TypeError), (0, None, TypeError)])
def test_trial_seed_rejects_bad_inputs_and_too_large_trials(seed, trial, error):
    # Philox's advance wraps at 2^256, so trial 2^256 would silently reuse trial 0's words
    with pytest.raises(error, match="trial" if error is ValueError else None):
        trial_seed(seed, trial)


def test_trial_seed_accepts_numpy_integers():
    got = trial_seed(np.int64(7), np.int64(3)).generate_state(4)
    assert np.array_equal(got, _want_words(7, 3, 4, np.uint32))
    assert np.array_equal(got, trial_seed(7, 3).generate_state(4))
    with pytest.raises(ValueError):
        trial_seed(np.int64(-7), 3)
    with pytest.raises(ValueError, match="only support"):
        trial_seed(7, 3).generate_state(2, np.int64)


@pytest.mark.parametrize("n_words, dtype", [(5, np.uint64), (9, np.uint32), (-1, np.uint32)])
def test_trial_seed_holds_32_bytes(n_words, dtype):
    with pytest.raises(ValueError, match="32 bytes"):
        trial_seed(7, 3).generate_state(n_words, dtype)
    assert trial_seed(7, 3).generate_state(0, dtype).shape == (0,)


def test_trial_generators_do_not_spawn():
    rng = np.random.Generator(np.random.Philox(trial_seed(5, 9)))
    with pytest.raises(TypeError):
        rng.spawn(2)
    assert not hasattr(trial_seed(5, 9), "spawn")


@pytest.mark.parametrize("n", [5, 20])
def test_per_trial_ensemble_equals_philox_block_ensemble(n):
    # criterion 6's construction, at a tenth of its trials: the rows of the
    # block ensemble, and the paths behind its running maxima
    dist, seed = rademacher(R1, 1.0), 20240506 + n
    ours = [sample_increments(dist, n, trial_seed(seed, j)) for j in range(2000)]
    assert np.array_equal(ours, truncated_ensemble(dist, n, 2000, seed, math.inf))
    assert np.array_equal([_row(dist, n, seed, j) for j in range(0, 2000, 97)],
                          [ours[j] for j in range(0, 2000, 97)])
    assert np.array_equal([_running_max(row, R1) for row in ours],
                          running_max_ensemble(dist, n, 2000, seed))


def test_per_trial_keys_of_interleaved_seeds_across_tables():
    # two seeds take turns over blocks at both edges of 11 seed tables each,
    # more than the 8 tables kept, at both edges of every block; then the
    # first tables again, long evicted
    seeds, dist, n = (20240511, 2**64 + 3), rademacher(R1, 1.0), 7
    B = 2**16 // n
    blocks = [b for k in range(11) for b in (512 * k - 1, 512 * k, 512 * k + 1, 512 * k + 511)
              if b >= 0]
    blocks += [0, 511, 512, 1023]
    stochastic._seed_table.cache_clear()
    for j in (B * b + r for b in blocks for r in (0, B - 1)):
        for seed in seeds:
            got = sample_increments(dist, n, trial_seed(seed, j))
            assert got.tobytes() == _row(dist, n, seed, j).tobytes(), (seed, j)


def test_per_trial_sampling_memory_is_bounded():
    # 1e5 trials of 40 seeds: one block of 2^16 values a seed, 512 KB, and
    # each thread keeps only its last block
    sign = rademacher(R1, 1.0)
    stochastic._seed_table.cache_clear()
    tracemalloc.start()
    try:
        for seed in range(40):
            for j in range(2500):
                sample_increments(sign, 5, trial_seed(seed, j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("n_words", [1, 2, 4, 4096, 4097, 10000])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_trial_seed_words_across_table_edges(n_words, dtype):
    # a table holds 512 trials; a request of more than 32 bytes is no row of it
    for seed in (0, 2**64 + 3):
        for trial in (511, 512, 513, 1023, 1024, 2**32 - 1, 2**32 + 1):
            if n_words * np.dtype(dtype).itemsize > 32:
                with pytest.raises(ValueError, match="32 bytes"):
                    trial_seed(seed, trial).generate_state(n_words, dtype)
                continue
            got = trial_seed(seed, trial).generate_state(n_words, dtype)
            assert got.dtype == dtype
            assert np.array_equal(got, _want_words(seed, trial, n_words, dtype))


@pytest.mark.parametrize("n_words", [2, 4])
def test_trial_seed_words_do_not_depend_on_visit_order(n_words):
    trials = list(range(9 * 512 + 5))  # 10 tables: more than the cache keeps

    def words(order):
        stochastic._seed_table.cache_clear()
        got = {j: trial_seed(11, j).generate_state(n_words, np.uint64) for j in order}
        return np.array([got[j] for j in trials])

    ref = words(trials)
    raw = np.random.Philox(11).random_raw(4 * len(trials)).reshape(-1, 4)
    assert np.array_equal(ref, raw[:, :n_words])
    assert np.array_equal(words(trials[::-1]), ref)
    assert np.array_equal(words(np.random.default_rng(0).permutation(trials).tolist()), ref)


@pytest.mark.parametrize("n_words", [2, 4])
def test_seed_table_is_read_only(n_words):
    want = _want_words(5, 3, n_words, np.uint64)
    got = trial_seed(5, 3).generate_state(n_words, np.uint64)
    got[:] = 0  # a returned array is the caller's own
    assert np.array_equal(trial_seed(5, 3).generate_state(n_words, np.uint64), want)
    table = stochastic._seed_table(5, 0)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0


def test_seed_tables_memory_is_bounded():
    # 1e5 trials in 200 tables of 16 KB; all of them kept would reach 3 MB
    stochastic._seed_table.cache_clear()
    tracemalloc.start()
    try:
        for seed in range(40):
            for j in range(2500):
                trial_seed(seed, j).generate_state(2, np.uint64)  # Philox's request
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_large_seed_requests_hold_no_memory():
    # a request of more than 32 bytes is rejected before any table is built
    stochastic._seed_table.cache_clear()
    tracemalloc.start()
    try:
        for n_words in (10000, 10001, 10002):
            with pytest.raises(ValueError, match="32 bytes"):
                trial_seed(1, 2**40 + n_words).generate_state(n_words, np.uint64)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 12
    assert stochastic._seed_table.cache_info().currsize == 0


def _on_four_threads(draws):
    """draws(worker) for workers 0..3, started together, with frequent thread switches."""
    start = threading.Barrier(4, timeout=60)

    def run(worker):
        start.wait()
        return draws(worker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(run, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)


def test_block_rngs_built_on_four_threads_at_once():
    seeds = (3, 2**40 + 1)
    stochastic._seed_table.cache_clear()  # the seeds' tables are built concurrently too

    def draws(worker):
        return [(seed, b, np.random.Generator(np.random.Philox(trial_seed(seed, b))).random(8))
                for b in range(worker, 64, 4) for seed in seeds]

    results = [row for rows in _on_four_threads(draws) for row in rows]
    assert len(results) == 128
    for seed, b, got in results:
        assert np.array_equal(got, np.random.Generator(_reference(seed, b)).random(8))


def test_trial_seed_words_on_four_threads_at_once():
    trials = [0, 511, 512, 2**32 + 5, 2**70, _LAST_TRIAL] + list(range(1, 3000, 7))
    stochastic._seed_table.cache_clear()

    def draws(worker):
        return [(j, dtype, n_words, trial_seed(13, j).generate_state(n_words, dtype))
                for j in trials[worker::4] for dtype, n_words in ((np.uint32, 8), (np.uint64, 4),
                                                                   (np.uint64, 2))]

    results = [row for rows in _on_four_threads(draws) for row in rows]
    assert len(results) == 3 * len(trials)
    for j, dtype, n_words, got in results:
        assert np.array_equal(got, _want_words(13, j, n_words, dtype))


# ---------------------------------------------------------------- trials as block rows

_SAMPLED = (gaussian(R3, 1.5), uniform_cube(R3, 0.5), rademacher(R1, 1.0),
            symmetric_pareto(make_lp(4, 3.0), 4.5), student_t(R3, 5.0))
_TRIALS = (0, 511, 512, 2**32 + 5, 2**70, _LAST_TRIAL)


def _fresh(dist, n, bits):
    """The increments of a new Generator on the new bit generator ``bits``."""
    return stochastic._draw(dist, (n,), np.random.Generator(bits))


def _block(dist, n):
    """B, the trials of one block: max(1, 2^16 // (n d))."""
    return max(1, 2**16 // (n * dist.space.dimension))


def _row(dist, n, seed, j):
    """Trial j of seed's ensemble: row j % B of the B paths that a new
    Generator on Philox keyed as Philox(trial_seed(seed, j // B)) is draws."""
    B = _block(dist, n)
    rows = stochastic._draw(dist, (B, n), np.random.Generator(_reference(seed, j // B)))
    return rows[j % B]


def _seeds(seed, dist, n):
    """An int, a SeedSequence and the trial seeds of ``seed``, each with the
    n increments that sample_increments draws for it: a new generator's for
    the first two, the rows of trial seeds' blocks for the rest."""
    cases = [(seed, _fresh(dist, n, np.random.Philox(seed))),
             (np.random.SeedSequence(seed),
              _fresh(dist, n, np.random.Philox(np.random.SeedSequence(seed))))]
    return cases + [(trial_seed(seed, j), _row(dist, n, seed, j)) for j in _TRIALS]


@pytest.mark.parametrize("dist", _SAMPLED, ids=lambda d: d.kind)
@pytest.mark.parametrize("n", [1, 5, 20])
def test_sample_increments_equal_a_new_philox_generator(dist, n):
    for seed, want in _seeds(2**40 + 9, dist, n):
        got = sample_increments(dist, n, seed)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dist", _SAMPLED, ids=lambda d: d.kind)
@pytest.mark.parametrize("n", [1, 7, 20])
def test_trial_rows_at_block_edges_equal_ensemble_rows(dist, n):
    seed, B = 2**40 + 9, _block(dist, n)
    ens = truncated_ensemble(dist, n, B + 2, seed, math.inf)
    maxima = running_max_ensemble(dist, n, B + 2, seed)
    for j in (B + 1, 0, B - 1, B):  # from the second block back to the first, and again
        row = sample_increments(dist, n, trial_seed(seed, j))
        assert row.tobytes() == ens[j].tobytes(), j
        assert _running_max(row, dist.space) == maxima[j]
    last = sample_increments(dist, n, trial_seed(seed, _LAST_TRIAL))
    assert last.tobytes() == _row(dist, n, seed, _LAST_TRIAL).tobytes()


def test_trial_rows_are_read_only():
    # a later call returns a view of the same block: no caller may write it
    dist, seed = gaussian(R3, 1.5), 6
    row = sample_increments(dist, 4, trial_seed(seed, 2))
    with pytest.raises(ValueError, match="read-only"):
        row[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        row *= 2.0
    assert sample_increments(dist, 4, trial_seed(seed, 3)).flags.writeable is False
    assert row.tobytes() == _row(dist, 4, seed, 2).tobytes()
    owned = sample_increments(dist, 4, seed)  # an int seed: a new array, the caller's
    owned *= 2.0
    assert owned.tobytes() == (2.0 * _fresh(dist, 4, np.random.Philox(seed))).tobytes()


def test_trial_rows_of_equal_laws_keep_their_own_bits():
    # scales 0.0 and -0.0 make equal laws whose zeros differ in sign: the
    # block a thread keeps is not handed from one to the other
    plus, minus = gaussian(R1, 0.0), gaussian(R1, -0.0)
    assert plus == minus
    for dist in (plus, minus, plus):
        got = sample_increments(dist, 4, trial_seed(1, 1))
        assert got.tobytes() == truncated_ensemble(dist, 4, 2, 1, math.inf)[1].tobytes()


def test_interleaved_and_failed_calls_leave_later_streams_unchanged(monkeypatch):
    # laws, n and seeds interleaved at random, so that most trial seeds draw a new block
    cases = [(dist, n, seed, want) for dist in _SAMPLED for n in (1, 7)
             for seed, want in _seeds(31, dist, n)]
    order = np.random.default_rng(4).permutation(len(cases) * 2) % len(cases)
    for i in order:
        dist, n, seed, want = cases[i]
        assert sample_increments(dist, n, seed).tobytes() == want.tobytes()

    def later_calls_unchanged():
        for dist, n, seed, want in cases[::5]:
            assert sample_increments(dist, n, seed).tobytes() == want.tobytes()

    with pytest.raises(ValueError):  # a bad seed, before any draw
        sample_increments(_SAMPLED[0], 5, -1)
    later_calls_unchanged()

    def fails(self, rows, scratch=()):
        raise RuntimeError("the step after the normal draws failed")

    # a radial law fails after its normal draws, in the middle of a block: the
    # sign law in R^1 where its draws go onto the unit sphere {-1, 1}, the
    # Pareto law on l^3 R^4 where their norms are taken. Then the same trial
    # again, unpatched: the failed draw left no block behind under its key
    for step, dist in (("_unit", _SAMPLED[2]), ("_norms", _SAMPLED[3])):
        with monkeypatch.context() as patch, pytest.raises(RuntimeError, match="draws failed"):
            patch.setattr(SmoothSpace, step, fails)
            sample_increments(dist, 20, trial_seed(31, 5))
        got = sample_increments(dist, 20, trial_seed(31, 5))
        assert got.tobytes() == _row(dist, 20, 31, 5).tobytes()
        later_calls_unchanged()


@pytest.mark.parametrize("space", [R1, make_lp(1, 3.0)], ids=["R1", "l3-R1"])
@pytest.mark.parametrize("law, param", [(rademacher, 2.0), (symmetric_pareto, 4.5),
                                        (student_t, 5.0)], ids=["rademacher", "pareto", "t"])
def test_one_coordinate_draws_are_signs_times_radii(space, law, param):
    # the unit sphere of R^1 is {-1, 1}: a direction is the sign of its normal draw
    dist = law(space, param)
    B = _block(dist, 20)
    for j in _TRIALS:
        rng = np.random.Generator(_reference(2**40 + 9, j // B))
        z = rng.standard_normal((B, 20, 1))
        if law is rademacher:
            radius = param
        elif law is symmetric_pareto:
            radius = ((1.0 - rng.random((B, 20))) ** (-1.0 / param))[..., None]
        else:
            radius = rng.standard_t(param, size=(B, 20))[..., None]
        got = sample_increments(dist, 20, trial_seed(2**40 + 9, j))
        assert got.tobytes() == (np.sign(z) * radius)[j % B].tobytes()


def test_sample_increments_on_four_threads_at_once():
    cases = [(dist, 5, j) for dist in _SAMPLED for j in range(0, 2048, 2)]
    want = {dist: truncated_ensemble(dist, 5, 2048, 77, math.inf) for dist in _SAMPLED}

    def draws(worker):
        got = [(i, sample_increments(dist, n, trial_seed(77, j)).tobytes())
               for i, (dist, n, j) in enumerate(cases) if i % 4 == worker]
        return stochastic._last_block.rows, got

    results = _on_four_threads(draws)
    got = dict(row for _, rows in results for row in rows)
    assert sorted(got) == list(range(len(cases)))
    assert all(got[i] == want[dist][j].tobytes() for i, (dist, _, j) in enumerate(cases))
    assert len({id(block) for block, _ in results}) == 4  # one last block per thread


def test_doob_generator_kept_by_sample_inputs_is_its_own():
    kept = []

    def inputs(rng, n):
        kept.append(rng)
        return rng.random(n)

    f = SeparableFunction(terms=(CoordinateTerm(g=lambda z: z, mean=0.5),) * 4)
    stochastic.doob_running_max_ensemble(f, inputs, 3, seed=12)
    rng = kept[0]
    ref = np.random.Generator(_reference(12, 0))
    ref.random((3, 4))  # the three trials' inputs
    for j, dist in enumerate(_SAMPLED):
        want = _row(dist, 5, 8, j).tobytes()
        assert sample_increments(dist, 5, trial_seed(8, j)).tobytes() == want
        assert rng.random(3).tobytes() == ref.random(3).tobytes()  # its own stream goes on
        assert sample_increments(dist, 5, trial_seed(8, j)).tobytes() == want


# ---------------------------------------------------------------- (b) no draw

def test_moment_profile_draws_once(monkeypatch):
    # a profile makes no draw at all and is a pure function of the law
    dist = gaussian(make_lp(3, 3.0), 1.0)
    draws = []
    real = stochastic._draw

    def counting(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(stochastic, "_draw", counting)
    prof = moment_profile(dist, q=4.0, n=5)
    assert draws == []
    assert prof == moment_profile(dist, q=4.0, n=5) and prof.mc_errors is None
    assert prof.sigma_sq == 5 * norm_moment(dist, 2.0)
    assert prof.cq_to_q == 5 * norm_moment(dist, 4.0)


@pytest.mark.parametrize("law", [gaussian, uniform_cube])
@pytest.mark.parametrize("p", [3.0, 4.0, 2.5])
@pytest.mark.parametrize("d", [1, 16])
def test_blocked_moment_draw_equals_one_draw(law, p, d):
    # the Monte Carlo oracle of the exact moments: 1e6 increments drawn from
    # one generator in blocks of 2^16 values (the first block is the start
    # of one draw), whose mean norm powers lie within 3 SE of the exact ones
    dist, seed, total = law(make_lp(d, p), 1.0), 0x5EED0, 1_000_000
    rng = np.random.Generator(np.random.Philox(seed))
    rows = 2 ** 16 // d
    norms = np.concatenate([dist.space.norms(stochastic._draw(dist, (min(rows, total - s),), rng))
                            for s in range(0, total, rows)])
    assert np.array_equal(norms[:rows], dist.space.norms(sample_increments(dist, rows, seed)))
    for order in (2.0, 4.5):
        vals = norms ** order
        se = vals.std(ddof=1) / math.sqrt(total)
        assert abs(vals.mean() - norm_moment(dist, order)) <= 3 * se


_LAWS = ((symmetric_pareto, 4.5), (student_t, 5.0), (rademacher, 2.0), (gaussian, 1.5),
         (uniform_cube, 0.5))
_SPACES = (make_euclidean, lambda d: make_lp(d, 2.0), lambda d: make_lp(d, 2.5),
           lambda d: make_lp(d, 3.0), lambda d: make_lp(d, 6.0))


@pytest.mark.parametrize("dist", [law(space(d), param) for d in (1, 3, 16)
                                  for space in _SPACES for law, param in _LAWS])
def test_closed_form_profiles_make_no_draw(monkeypatch, dist):
    # every law on every space: closed forms and the exact product-law path
    monkeypatch.setattr(stochastic, "_draw", None)
    prof = moment_profile(dist, q=4.0, n=2)
    assert prof.mc_errors is None
    assert prof.cq_to_q == 2 * norm_moment(dist, 4.0) and prof.cq_to_q > 0
    if dist.kind == "symmetric_pareto":
        assert prof.cq_to_q == 2 * 4.5 / 0.5


def test_moment_fallback_memory_is_bounded():
    tracemalloc.start()
    try:
        prof = moment_profile(gaussian(make_lp(16, 3.0)), 4.0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.mc_errors is None
    assert peak < 4 * 2 ** 20  # one draw of 1e6 x 16 values was 128 MB


# ---------------------------------------------------------------- (c) Pinelis pair

def test_pinelis_pair_share_partial_sums():
    dist, L, t, n = symmetric_pareto(R3, 4.5), 3.0, 0.5, 8
    ens = truncated_ensemble(dist, n, 1500, seed=21, trunc_L=L)
    rep = pinelis_check(ens, t=t, D=1.0, dist=dist, trunc_L=L)

    finals = np.array([R3.norm(xi.sum(axis=0)) for xi in ens])
    cosh_vals = np.cosh(t * finals)
    e_term = truncated_norm_exp_moment(dist, t, L) - 1.0 - t * truncated_norm_mean(dist, L)
    assert rep.trials == len(ens) and rep.n == n
    assert rep.e_term == e_term
    assert rep.product_bound == (1.0 + e_term) ** n
    assert rep.empirical_cosh == pytest.approx(cosh_vals.mean(), rel=1e-12)
    assert rep.standard_error == pytest.approx(
        cosh_vals.std(ddof=1) / math.sqrt(len(ens)), rel=1e-9)

    state = pinelis_supermartingale_profile(ens, t=t, D=1.0, dist=dist, trunc_L=L)
    assert state.g_means[0] == 1.0 and state.g_standard_errors[0] == 0.0
    assert len(state.g_means) == n + 1
    assert state.g_means[-1] * (1.0 + e_term) ** n == pytest.approx(rep.empirical_cosh,
                                                                  rel=1e-12)

    mixed = [*ens[:10], *truncated_ensemble(dist, n + 1, 2, seed=22, trunc_L=L)]
    for check in (pinelis_check, pinelis_supermartingale_profile):
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            check(mixed, t=t, D=1.0, dist=dist, trunc_L=L)


def _pinelis_inputs_that_do_not_match_dist():
    """(ensemble, dist, trunc_L) triples that both Pinelis checks reject."""
    R2, signs2 = make_euclidean(2), rademacher(make_euclidean(2), 1.0)
    ens = truncated_ensemble(signs2, 4, 50, seed=3, trunc_L=1.0)
    seqs = list(ens)
    nan = ens.copy()
    nan[7, 2, 1] = math.nan
    pareto = symmetric_pareto(R3, 4.5)
    return {
        "R3 space": (seqs, rademacher(R3, 1.0), None),
        "R3 axis": (ens, rademacher(R3, 1.0), None),
        "2-D": (ens[0], signs2, None),
        "no trials": (ens[:0], signs2, None),
        "nan": (nan, signs2, None),
        "nan sequences": (list(nan), signs2, None),
        "inf": (np.where(nan == nan, ens, math.inf), gaussian(R2, 1.0), math.inf),
        "above L": (truncated_ensemble(pareto, 4, 400, seed=5, trunc_L=10.0), pareto, 1.5),
        "ragged": ([ens[0], ens[1][:3]], signs2, None),
        "no sequences": ([], signs2, None),
    }


@pytest.mark.parametrize("case", ["R3 space", "R3 axis", "2-D", "no trials", "nan",
                                  "nan sequences", "inf", "above L", "ragged", "no sequences"])
def test_pinelis_checks_reject_an_ensemble_that_does_not_match_dist(case):
    ensemble, dist, L = _pinelis_inputs_that_do_not_match_dist()[case]
    D = dist.space.smoothness_D
    for check in (pinelis_check, pinelis_supermartingale_profile):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ensemble"):
                check(ensemble, t=0.5, D=D, dist=dist, trunc_L=L)


@pytest.mark.parametrize("check", [pinelis_check, pinelis_supermartingale_profile])
def test_pinelis_checks_read_a_list_of_arrays_as_their_stack(check):
    def same(ensemble, array):
        got, want = vars(check(ensemble, 0.5, 1.0, sign)), vars(check(array, 0.5, 1.0, sign))
        return got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in got)

    sign = rademacher(R1, 1.0)
    assert same([np.ones((5, 1))] * 3, np.ones((3, 5, 1)))
    ens = truncated_ensemble(sign, 6, 40, seed=2, trunc_L=1.0)
    assert same(list(ens), ens) and same(ens.tolist(), ens)


def test_pinelis_checks_take_unit_directions_at_their_scale():
    # a unit direction's norm may round a few ulp above 1: not above the level
    dist = rademacher(make_lp(3, 4.0), 2.0)
    ens = [sample_increments(dist, 6, trial_seed(8, j)) for j in range(500)]
    assert any((dist.space.norms(row) > 2.0).any() for row in ens)
    assert pinelis_check(ens, t=0.5, D=math.sqrt(3.0), dist=dist).passed


@pytest.mark.parametrize("dist, L", [(symmetric_pareto(R3, 4.5), 3.0),
                                     (student_t(make_lp(4, 3.0), 5.0), 2.0),
                                     (rademacher(R1, 1.0), 1.0)],
                         ids=["pareto-R3", "t-l3", "sign-R1"])
def test_pinelis_checks_agree_on_the_array_and_its_sequences(dist, L):
    ens = truncated_ensemble(dist, 8, 700, seed=31, trunc_L=L)
    before = ens.tobytes()
    seqs = list(ens)  # views of ens, read into a new array of the checks' own
    D = dist.space.smoothness_D
    assert pinelis_check(ens, 0.5, D, dist, L) == pinelis_check(seqs, 0.5, D, dist, L)
    state, from_seqs = (pinelis_supermartingale_profile(e, 0.5, D, dist, L) for e in (ens, seqs))
    assert state.t == from_seqs.t and state.passed == from_seqs.passed
    for field in ("e_terms", "g_means", "g_standard_errors"):
        assert getattr(state, field).tobytes() == getattr(from_seqs, field).tobytes()
    assert ens.tobytes() == before
    # np.asarray of a subclass is a new view of the caller's memory, which stays as it was
    for view in (ens.view(np.recarray), np.ma.masked_array(ens)):
        assert pinelis_check(view, 0.5, D, dist, L) == pinelis_check(seqs, 0.5, D, dist, L)
        pinelis_supermartingale_profile(view, 0.5, D, dist, L)
        assert ens.tobytes() == before


# ---------------------------------------------------------------- (d) truncated moments

@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("L", [0.4, 1.0, 1.5, 2.0, 5.0])
def test_uniform_truncated_moments_match_closed_forms(t, L):
    a = 1.5
    dist = uniform_cube(R1, a)
    lim = min(L, a)
    mgf = 1.0 if t == 0 else (math.exp(t * lim) - 1.0) / (t * a) + max(0.0, 1.0 - lim / a)
    assert truncated_norm_exp_moment(dist, t, L) == pytest.approx(mgf, rel=0, abs=1e-12)
    assert truncated_norm_mean(dist, L) == pytest.approx(lim * lim / (2.0 * a),
                                                         rel=0, abs=1e-12)


def test_zero_gaussian_truncated_moments():
    dist = gaussian(R1, 0.0)
    assert truncated_norm_exp_moment(dist, 1.0, 2.0) == 1.0
    assert truncated_norm_mean(dist, 2.0) == 0.0


@pytest.mark.parametrize("d", [1, 3, 16])
def test_gaussian_truncated_moments_on_l2_equal_euclidean(d):
    # l^2 is the euclidean norm, so its norm law is chi(d) as well
    for L in (0.5, 2.0, 6.0):
        lp, euclid = gaussian(make_lp(d, 2.0), 1.5), gaussian(make_euclidean(d), 1.5)
        assert truncated_norm_mean(lp, L) == truncated_norm_mean(euclid, L)
        assert truncated_norm_exp_moment(lp, 0.7, L) == truncated_norm_exp_moment(euclid, 0.7, L)
    assert truncated_norm_mean(gaussian(make_lp(3, 2.0)), 2.0) == pytest.approx(0.94788, abs=1e-5)


def _chi_mgf(d, scale, t):
    """E exp(t scale R) for R ~ chi(d), by 30-digit quadrature."""
    with mpmath.workdps(30):
        norm = 2 ** (1 - d / 2) / mpmath.gamma(d / 2)
        f = lambda r: norm * r ** (d - 1) * mpmath.exp(t * scale * r - r * r / 2)
        return float(mpmath.quad(f, [0, 1, 10, mpmath.inf]))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("t", [0.7, 3.0, 30.0])
def test_untruncated_gaussian_exp_moment_is_finite(d, t):
    # exp(t x) alone overflows far out in the tail, where the density is zero
    dist = gaussian(make_euclidean(d), 0.5)
    assert truncated_norm_exp_moment(dist, t, math.inf) == pytest.approx(
        _chi_mgf(d, 0.5, t), rel=1e-9)


@pytest.mark.parametrize("dist", [symmetric_pareto(R3, 4.5), student_t(R1, 5.0),
                                  student_t(R3, 3.0), symmetric_pareto(R1, 2.5)])
def test_untruncated_polynomial_tail_exp_moment_is_infinite(dist):
    assert truncated_norm_exp_moment(dist, 0.7, math.inf) == math.inf
    assert truncated_norm_exp_moment(dist, 0.0, math.inf) == pytest.approx(1.0, rel=1e-9)


def test_rademacher_truncated_moments_are_point_masses():
    dist = rademacher(R1, 2.0)
    assert truncated_norm_exp_moment(dist, 0.5, 2.0) == math.exp(1.0)
    assert truncated_norm_exp_moment(dist, 0.5, 1.9) == 1.0
    assert truncated_norm_mean(dist, 3.0) == 2.0


def test_overflowing_exp_moment_is_infinite():
    # the quadrature's integrand overflows near x = t, the point mass at exp(1000)
    assert truncated_norm_exp_moment(gaussian(R1, 1.0), 40.0, math.inf) == math.inf
    assert truncated_norm_exp_moment(rademacher(R1, 1000.0), 1.0, math.inf) == math.inf
    # E exp(t |Z|) = 2 exp(t^2 / 2) Phi(t) is still finite at t = 37
    assert truncated_norm_exp_moment(gaussian(R1, 1.0), 37.0, math.inf) == pytest.approx(
        2.0 * math.exp(37.0 ** 2 / 2.0) * stats.norm.cdf(37.0), rel=1e-9)


def _exp_moment_mpmath(lo, pdf, sf, t, L):
    """E exp(t X) 1{X <= L} + P[X > L] for X with density pdf from lo, by
    30-digit quadrature on intervals that shrink towards L, where the
    integrand peaks; for L = inf, on [lo, lo + 2^-4], [lo + 2^-4, lo + 2^-3],
    ..., [lo + 2^10, inf]."""
    with mpmath.workdps(30):
        L = mpmath.mpf(L)
        if L == mpmath.inf:
            points = [lo] + [lo + mpmath.mpf(2) ** k for k in range(-4, 11)] + [L]
            return float(mpmath.quad(lambda x: pdf(x) * mpmath.exp(t * x), points))
        points = [lo] + [L - (L - lo) / mpmath.mpf(2) ** k for k in range(1, 30)] + [L]
        return float(mpmath.quad(lambda x: pdf(x) * mpmath.exp(t * x), points) + sf(L))


_SQRT_2_PI = mpmath.sqrt(2 / mpmath.pi)
_NORMAL_TAIL = lambda L: mpmath.erfc(L / mpmath.sqrt(2))


@pytest.mark.parametrize("dist, lo, pdf, sf, t, L", [
    (gaussian(R1, 1.0), 0, lambda x: _SQRT_2_PI * mpmath.exp(-x * x / 2), _NORMAL_TAIL,
     1000.0, 0.715),
    (gaussian(R3, 1.0), 0, lambda x: _SQRT_2_PI * x * x * mpmath.exp(-x * x / 2),
     lambda L: _NORMAL_TAIL(L) + _SQRT_2_PI * L * mpmath.exp(-L * L / 2), 500.0, 1.43),
    (symmetric_pareto(R1, 4.5), 1, lambda x: 4.5 * x ** -5.5, lambda L: L ** -4.5,
     10.0, 73.3)])
def test_exp_moment_near_the_float_range_is_finite(dist, lo, pdf, sf, t, L):
    # exp(t x + log pdf(x)) overflows on [lo, L], the moment itself does not
    want = _exp_moment_mpmath(lo, pdf, sf, t, L)
    assert 1e305 < want < 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncated_norm_exp_moment(dist, t, L) == pytest.approx(want, rel=1e-9)
    # a little further out the moment overflows
    assert truncated_norm_exp_moment(dist, t, L * 1.01) == math.inf


def test_pinelis_pair_with_infinite_product_bound():
    dist, t = gaussian(R1, 1.0), 40.0
    ens = [sample_increments(dist, 2, trial_seed(4, j)) for j in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pinelis_check(ens, t=t, D=1.0, dist=dist, trunc_L=math.inf)
        state = pinelis_supermartingale_profile(ens, t=t, D=1.0, dist=dist, trunc_L=math.inf)
    assert rep.e_term == math.inf and rep.product_bound == math.inf and rep.passed
    assert math.isfinite(rep.empirical_cosh)
    assert np.all(state.e_terms == math.inf) and state.passed



def _folded_t_reference(nu):
    """The law of |T|, T ~ Student-t(nu), from scipy.stats.t: density and
    survival function doubled, upper quantiles at half the level."""
    t = stats.t(nu)
    return SimpleNamespace(logpdf=lambda x: math.log(2.0) + t.logpdf(x),
                           logsf=lambda x: math.log(2.0) + t.logsf(x),
                           isf=lambda q: t.isf(q / 2.0), pdf=lambda x: 2.0 * t.pdf(x))


# Each row of the norm-law table, the scipy.stats law it stands for, and an x
# grid over the support: both ends, the body and the far tail, up to where
# the reference survival function underflows (its logsf is then -inf, as the
# row's is) or, for the Pareto density, to 1e50 (scipy's logpdf takes the log
# of the density and reads -inf from 1e55 on). No point sits just above 1
# for the Pareto laws or at 1e-8 for t(3): there scipy's logsf is the log of
# a survival function near 1 and is off by 3e-9 relative.
_NORM_LAWS = [
    (symmetric_pareto(R3, 4.5), stats.pareto(b=4.5), (1.0, 1.5, 3.0, 1e3, 1e50)),
    (symmetric_pareto(R1, 2.5), stats.pareto(b=2.5), (1.0, 2.0, 73.3, 1e10, 1e50)),
    (student_t(R1, 3.0), _folded_t_reference(3.0), (0.0, 0.5, 2.0, 10.0, 1e3, 1e60, 1e120)),
    (student_t(R3, 5.0), _folded_t_reference(5.0), (0.0, 1.0, 7.0, 1e5, 1e50, 1e70)),
    (student_t(R1, 30.0), _folded_t_reference(30.0), (0.0, 0.3, 3.0, 50.0, 1e9, 1e20)),
    (gaussian(R1, 0.5), stats.halfnorm(scale=0.5), (0.0, 1e-9, 0.2, 1.0, 4.0, 15.0, 18.5)),
    (gaussian(R3, 1.0), stats.chi(df=3), (0.0, 1e-9, 0.5, 1.6, 5.0, 20.0, 37.0, 40.0)),
    (gaussian(make_lp(16, 2.0), 1.5), stats.chi(df=16, scale=1.5),
     (0.0, 0.01, 3.0, 5.8, 12.0, 40.0, 60.0, 70.0)),
    (uniform_cube(R1, 1.5), stats.uniform(loc=0.0, scale=1.5), (0.0, 0.3, 0.75, 1.2, 1.5)),
]
_NORM_LAW_IDS = ["pareto4.5", "pareto2.5", "t3", "t5", "t30", "halfnormal", "chi3", "chi16",
                 "uniform"]


def _close(got, want, rel):
    return got == want or abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("dist, ref, xs", _NORM_LAWS, ids=_NORM_LAW_IDS)
def test_norm_law_rows_match_scipy_stats(dist, ref, xs):
    law = stochastic._scalar_norm_law(dist)
    assert law.support[0] == xs[0]
    with np.errstate(all="ignore"):  # scipy's log of an underflowed survival function
        for x in xs:
            for name in ("logpdf", "logsf"):
                got, want = getattr(law, name)(x), float(getattr(ref, name)(x))
                assert type(got) is float and _close(got, want, 1e-13), (name, x, got, want)
        for q in (1e-200, 1e-16, 1e-3, 0.25, 0.5, 0.9, 1.0):
            got, want = law.isf(q), float(ref.isf(q))
            assert type(got) is float and _close(got, want, 1e-13), ("isf", q, got, want)
    assert law.logsf(math.inf) == -math.inf


@pytest.mark.parametrize("dist, ref, xs", _NORM_LAWS, ids=_NORM_LAW_IDS)
def test_norm_law_truncated_means_match_quadrature(dist, ref, xs):
    law = stochastic._scalar_norm_law(dist)
    lo, hi = law.support
    for L in (0.5, 1.0, 1.7, 4.0, 25.0, math.inf):
        top = min(hi, L)
        want = integrate.quad(lambda x: x * ref.pdf(x), lo, top, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0] if lo < top else 0.0
        assert type(law.mean_below(L)) is float
        assert law.mean_below(L) == pytest.approx(want, rel=1e-12, abs=0.0), L
        assert truncated_norm_mean(dist, L) == law.mean_below(L)


@pytest.mark.parametrize("dist, L", [(student_t(R1, 5.0), 1e70), (gaussian(R3, 1.0), 40.0),
                                     (symmetric_pareto(R3, 4.5), 1e300)],
                         ids=["t5", "gaussian", "pareto"])
def test_far_tail_truncation_levels_give_finite_values_without_warnings(dist, L):
    # the survival function underflows at L (not for the Pareto law, whose
    # logsf is -4.5 log L); the truncated mean is the full one
    law = stochastic._scalar_norm_law(dist)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = law.logsf(L)
        assert tail == -4.5 * math.log(L) if dist.kind == "symmetric_pareto" else tail == -math.inf
        assert law.logsf(math.inf) == -math.inf
        assert truncated_norm_mean(dist, L) == truncated_norm_mean(dist, math.inf)
        assert 0.0 < truncated_norm_mean(dist, L) < math.inf
        # at t = 0 the moment is P[R <= L] + P[R > L] = 1; for t > 0 the
        # polynomial tails overflow at L, the Gaussian one is its mgf
        assert truncated_norm_exp_moment(dist, 0.0, L) == pytest.approx(1.0, rel=1e-13)
        if dist.kind == "gaussian":
            assert truncated_norm_exp_moment(dist, 0.7, L) == pytest.approx(_chi_mgf(3, 1.0, 0.7),
                                                                            rel=1e-9)
        else:
            assert truncated_norm_exp_moment(dist, 0.7, L) == math.inf


_T5_PDF = lambda x: 2 * mpmath.gamma(3) / (mpmath.sqrt(5 * mpmath.pi) * mpmath.gamma(2.5)) \
    * (1 + x * x / 5) ** -3
_T5_SF = lambda L: mpmath.betainc(2.5, 0.5, 0, 5 / (5 + L * L), regularized=True)


@pytest.mark.parametrize("dist, lo, pdf, sf, t, L", [
    pytest.param(student_t(R1, 5.0), 0, _T5_PDF, _T5_SF, t, L, id=f"t5-{t:g}-{L:g}")
    for t, L in ((0.0, 1e6), (1e-5, 1e6), (1e-4, 1e6), (0.0, 1e10), (3e-9, 1e10))] + [
    pytest.param(symmetric_pareto(R3, 4.5), 1, lambda x: 4.5 * x ** -5.5, lambda L: L ** -4.5,
                 t, L, id=f"pareto-{t:g}-{L:g}")
    for t, L in ((0.0, 3e4), (1e-3, 3e4), (0.0, 1e20), (2e-18, 1e20))])
def test_exp_moment_at_far_truncation_levels(dist, lo, pdf, sf, t, L):
    # L from 8 to 1e6 times the 1e-16 upper quantile: one quadrature over
    # [lo, L] misses the body of the law, and for t > 0 the peak at L
    with mpmath.workdps(30):
        L_ = mpmath.mpf(L)
        points = [lo] + [10 ** k for k in range(21) if lo < 10 ** k < L] + [L_]
        if t > 0:  # the peak at L, of width 1/t
            points[-1:] = [L_ - 1 / mpmath.mpf(t), L_]
        want = float(mpmath.quad(lambda x: pdf(x) * mpmath.exp(t * x), points) + sf(L_))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncated_norm_exp_moment(dist, t, L) == pytest.approx(want, rel=1e-9)


def _folded_t_mpmath(nu):
    """Density and survival function of |T|, T ~ Student-t(nu), in mpmath."""
    c = 2 * mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
    return (lambda x: c * (1 + x * x / nu) ** (-(nu + 1) / 2),
            lambda L: mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + L * L), regularized=True))


def _chi_mpmath(d, a):
    """Density and survival function of a R, R ~ chi(d), in mpmath."""
    norm = 2 ** (1 - mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2) / a
    return (lambda x: norm * (x / a) ** (d - 1) * mpmath.exp(-(x / a) ** 2 / 2),
            lambda L: mpmath.gammainc(mpmath.mpf(d) / 2, (L / a) ** 2 / 2, regularized=True))


# every row of the norm-law table: (distribution, lower end, density, survival function)
_MOMENT_LAWS = {
    "pareto4.5": (symmetric_pareto(R3, 4.5), 1, lambda x: 4.5 * x ** -5.5, lambda L: L ** -4.5),
    "pareto2.5": (symmetric_pareto(R1, 2.5), 1, lambda x: 2.5 * x ** -3.5, lambda L: L ** -2.5),
    "t3": (student_t(R1, 3.0), 0, *_folded_t_mpmath(3)),
    "t5": (student_t(R3, 5.0), 0, _T5_PDF, _T5_SF),
    "t30": (student_t(R1, 30.0), 0, *_folded_t_mpmath(30)),
    "halfnormal": (gaussian(R1, 0.5), 0, *_chi_mpmath(1, mpmath.mpf(0.5))),
    "chi3": (gaussian(R3, 2.0), 0, *_chi_mpmath(3, 2)),
    "chi16": (gaussian(make_lp(16, 2.0), 1.5), 0, *_chi_mpmath(16, mpmath.mpf(1.5))),
    "uniform": (uniform_cube(R1, 1.5), 0, lambda x: 1 / mpmath.mpf(1.5), lambda L: 1 - L / 1.5),
}


@pytest.mark.parametrize("law, t, L", [
    ("pareto4.5", -1.0, math.inf), ("pareto4.5", 0.0, 7.0), ("pareto4.5", 0.8, 4.0),
    ("pareto2.5", -0.2, math.inf), ("pareto2.5", 1.5, 20.0),
    ("t3", -1.0, math.inf), ("t3", 0.0, math.inf), ("t3", 2.0, 6.0),
    ("t5", 0.5, 2.0), ("t5", -3.0, 50.0),
    ("t30", 2.0, 8.0), ("t30", -0.5, math.inf),
    ("halfnormal", -4.0, math.inf), ("halfnormal", 3.0, 1.0), ("halfnormal", 0.0, 0.7),
    ("chi3", 0.7, math.inf), ("chi3", -0.7, 5.0), ("chi3", 0.0, math.inf),
    ("chi16", 1.0, math.inf), ("chi16", -2.0, math.inf), ("chi16", 0.3, 5.0),
    ("uniform", 2.5, 1.0), ("uniform", -4.0, 1.5), ("uniform", 0.0, 0.3)])
def test_exp_moment_of_every_law_matches_mpmath(law, t, L):
    dist, lo, pdf, sf = _MOMENT_LAWS[law]
    want = _exp_moment_mpmath(lo, pdf, sf, t, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncated_norm_exp_moment(dist, t, L) == pytest.approx(want, rel=1e-12)
    if law == "uniform":  # past the support end truncation changes nothing
        assert truncated_norm_exp_moment(dist, t, math.inf) == truncated_norm_exp_moment(
            dist, t, max(L, 1.5))


@pytest.mark.parametrize("law, dist, t, L", [
    ("pareto4.5", symmetric_pareto(make_euclidean(5), 4.5), -0.5, math.inf),
    ("halfnormal", gaussian(R1, 0.5), 5.0, 100.0)], ids=["pareto-R5", "halfnormal"])
def test_exp_moment_to_full_relative_accuracy(law, dist, t, L):
    # scipy's quad, one interval each, was 8.9e-12 and 1.0e-11 off
    _, lo, pdf, sf = _MOMENT_LAWS[law]
    want = _exp_moment_mpmath(lo, pdf, sf, t, L)
    assert want == pytest.approx(0.5334253486462053 if t < 0 else 45.237127524292305, rel=1e-15)
    assert truncated_norm_exp_moment(dist, t, L) == pytest.approx(want, rel=1e-13)


def test_exp_moment_far_from_the_law_body():
    # the mass at 0 for t << 0, or a peak beyond 10 q, far inside one long
    # interval: scipy's quad read 1.9e-19, 1e-18 and 0 for the first three; a
    # single shift by the largest log integrand lost the last one's peak
    dist, lo, pdf, sf = _MOMENT_LAWS["t5"]
    want = _exp_moment_mpmath(lo, pdf, sf, -50.0, 1e4)
    assert want == pytest.approx(0.0151769930826733, rel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncated_norm_exp_moment(dist, -50.0, 1e4) == pytest.approx(want, rel=1e-12)
        assert truncated_norm_exp_moment(symmetric_pareto(R3, 4.5), 100.0, 1e4) == math.inf
        assert truncated_norm_exp_moment(gaussian(R3, 100.0), 2.0, math.inf) == math.inf
        assert truncated_norm_exp_moment(gaussian(make_lp(16, 2.0), 1.5), 100.0,
                                         math.inf) == math.inf


@pytest.mark.parametrize("dist, t, L", [
    (gaussian(R3, 100.0), 2.0, math.inf), (gaussian(R3, 100.0), 2.0, 1e10),
    (gaussian(make_lp(16, 2.0), 1.5), 100.0, math.inf),
    (student_t(R1, 2.004), 4.2e-5, 5.5e296)])
def test_moment_that_must_overflow_is_not_integrated(monkeypatch, dist, t, L):
    # f(x) e^(tx) (1 - e^(-t(x - q))) / t, a lower bound at every x in (q, L],
    # passes the float range at a break below L or at L itself
    def integral(*args):
        raise AssertionError("a moment that overflows was integrated")

    monkeypatch.setattr(stochastic, "_log_moment_integral", integral)
    assert truncated_norm_exp_moment(dist, t, L) == math.inf


@pytest.mark.parametrize("x", [1e150, 1e160, 1e300])
def test_folded_t_log_density_where_the_square_overflows(x):
    nu = 2.004
    with mpmath.workdps(40):
        nu_mp = mpmath.mpf(nu)
        log_two_c = mpmath.log(2 * mpmath.gamma((nu_mp + 1) / 2)
                               / (mpmath.sqrt(nu_mp * mpmath.pi) * mpmath.gamma(nu_mp / 2)))
        want = float(log_two_c - (nu_mp + 1) / 2 * mpmath.log1p(mpmath.mpf(x) ** 2 / nu_mp))
    law = stochastic._scalar_norm_law(student_t(R1, nu))
    assert law.logpdf(x) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------- invalid moments

_bad_values = st.one_of(st.floats(max_value=-5e-324), st.sampled_from([math.nan, math.inf]))


@settings(max_examples=60, deadline=None)
@given(_bad_values)
def test_invalid_moment_inputs_rejected(bad):
    for fields in ({"sigma_sq": bad, "cq_to_q": 1.0}, {"sigma_sq": 1.0, "cq_to_q": bad}):
        with pytest.raises(ValueError):
            MomentProfile(q=4.0, **fields)
    for sub, extra in (("bound", ["--u", "0.1"]), ("mcdiarmid", ["--u", "0.1"])):
        for flag in ("sigma", "cq"):
            other = "cq" if flag == "sigma" else "sigma"
            argv = [sub, "--q", "4.5", "--D", "1", f"--{flag}={bad!r}",
                    f"--{other}", "1"] + extra
            assert cli.run(argv) == 2, argv


def test_negative_cq_message(capsys):
    assert cli.run(["bound", "--q", "4.5", "--D", "1", "--sigma", "1",
                    "--cq=-1", "--u", "0.1"]) == 2
    assert "--cq must be finite and >= 0" in capsys.readouterr().err


def test_small_q_rejected_by_profile(capsys):
    with pytest.raises(InvalidQError):
        MomentProfile(sigma_sq=1.0, cq_to_q=1.0, q=2.0)
    assert cli.run(["mcdiarmid", "--q=-1", "--D", "1", "--sigma", "1", "--cq", "0",
                    "--u", "0.1"]) == 2
    assert "q must exceed 2" in capsys.readouterr().err


def test_bound_has_no_seed_flag():
    assert cli.run(["bound", "--q", "4", "--D", "1", "--sigma", "1", "--cq", "1",
                    "--u", "0.1", "--seed", "3"]) == 2


# ---------------------------------------------------------------- law parameters

_KINDS = {"symmetric_pareto": (symmetric_pareto, "tail index", 2.0),
          "student_t": (student_t, "degrees of freedom", 2.0),
          "rademacher_scale": (rademacher, "scale", 0.0),
          "uniform_cube": (uniform_cube, "half width", 0.0),
          "gaussian": (gaussian, "scale", 0.0)}


@pytest.mark.parametrize("kind", _KINDS)
def test_law_parameters_checked_however_the_law_is_built(kind):
    make, name, bound = _KINDS[kind]
    bad = [math.nan, math.inf, -math.inf, -1.0] + ([] if kind == "gaussian" else [bound])
    for param in bad:
        for build in (lambda: IncrementDistribution(kind, R3, param), lambda: make(R3, param)):
            with pytest.raises(ValueError, match=f"^{name} must be finite and"):
                build()
    assert IncrementDistribution(kind, R3, bound + 0.5) == make(R3, bound + 0.5)
    if kind == "gaussian":  # the zero martingale, its scale given as an int
        zero = IncrementDistribution(kind, R3, 0)
        assert norm_moment(zero, 2.5) == 0.0 and truncated_norm_mean(zero, 1.0) == 0.0


def test_unknown_law_kind_rejected():
    with pytest.raises(ValueError, match="unknown increment kind 'foo'"):
        IncrementDistribution("foo", make_euclidean(2), 1.0)


@pytest.mark.parametrize("dist,name", [("pareto", "tail index"), ("student_t", "degrees of freedom"),
                                       ("rademacher", "scale"), ("gaussian", "scale"),
                                       ("uniform_cube", "half width")])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
def test_verify_rejects_invalid_law_parameter(dist, name, alpha, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["verify", "--dist", dist, f"--alpha={alpha}", "--n", "5",
                        "--trials", "100", "--q", "4", "--u", "0.1"]) == 2
    assert f"error: {name} must be finite and" in capsys.readouterr().err


def test_verify_default_law_names_its_parameter(capsys):
    assert cli.run(["verify", "--alpha", "nan", "--n", "5", "--trials", "100", "--q", "4",
                    "--u", "0.1"]) == 2
    assert "error: scale must be finite and > 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("dist", [gaussian(R3, 1.0), symmetric_pareto(R1, 4.5), student_t(R1, 5.0),
                                  rademacher(R1, 1.0), uniform_cube(R1, 1.0)])
def test_invalid_truncation_levels_rejected(dist, L):
    message = f"^{re.escape(f'trunc_L must lie in (0, inf], got {L}')}$"
    with pytest.raises(ValueError, match=message):
        truncated_norm_mean(dist, L)
    with pytest.raises(ValueError, match=message):
        truncated_norm_exp_moment(dist, 0.5, L)
    ens = truncated_ensemble(dist, 3, 20, seed=1, trunc_L=2.0)
    for check in (pinelis_check, pinelis_supermartingale_profile):
        with pytest.raises(ValueError, match=message):
            check(ens, t=0.5, D=1.0, dist=dist, trunc_L=L)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -4.0, -1e-300])
@pytest.mark.parametrize("dist", [symmetric_pareto(R3, 4.5), student_t(R3, 5.0), rademacher(R1, 1.0),
                                  gaussian(R3, 1.0), gaussian(R3, 0.0), uniform_cube(R3, 1.0),
                                  gaussian(make_lp(3, 3.0), 1.0)])
def test_norm_moment_rejects_invalid_orders(dist, p):
    with pytest.raises(ValueError, match="^moment order p must be finite and >= 0, got "):
        norm_moment(dist, p)


def _count_calls(bad):
    """name: (a call that takes the count ``bad``, the parameter, the error)."""
    dist, f = gaussian(R3, 1.0), SeparableFunction(terms=(CoordinateTerm(g=lambda z: z, mean=0.5),) * 3)
    config = dict(dist=dist, n=5, trials=100, q=4.0, D=1.0, u_grid=(0.1,), seed=1)
    return {
        "SmoothSpace": (lambda: SmoothSpace(bad, 3.0), "dimension", InvalidDimensionError),
        "make_lp": (lambda: make_lp(bad, 3), "dimension", InvalidDimensionError),
        "make_euclidean": (lambda: make_euclidean(bad), "dimension", InvalidDimensionError),
        "sample_increments n": (lambda: sample_increments(dist, bad, 0), "n", ValueError),
        "running_max_ensemble n": (lambda: stochastic.running_max_ensemble(dist, bad, 10, 1),
                                   "n", ValueError),
        "running_max_ensemble trials": (lambda: stochastic.running_max_ensemble(dist, 5, bad, 1),
                                        "trials", ValueError),
        "truncated_ensemble n": (lambda: truncated_ensemble(dist, bad, 10, 1, 2.0), "n", ValueError),
        "truncated_ensemble trials": (lambda: truncated_ensemble(dist, 5, bad, 1, 2.0),
                                      "trials", ValueError),
        "doob_running_max_ensemble trials": (
            lambda: stochastic.doob_running_max_ensemble(f, lambda rng, n: rng.random(n), bad, 1),
            "trials", ValueError),
        "CampaignConfig n": (lambda: CampaignConfig(**{**config, "n": bad}), "n", ValueError),
        "CampaignConfig trials": (lambda: CampaignConfig(**{**config, "trials": bad}),
                                  "trials", ValueError),
        "independent_sum_bound n": (lambda: independent_sum_bound(MomentProfile(1.0, 1.0, 4.0),
                                                                  bad, 1.0, 0.1), "n", ValueError),
        "smoothness_certificate num_pairs": (lambda: smoothness_certificate(R3, bad, 1),
                                             "num_pairs", ValueError)}


@pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(2.0), 0, -3, "3", None, True])
@pytest.mark.parametrize("case", list(_count_calls(0)))
def test_counts_are_integers_at_least_one(case, bad):
    call, name, error = _count_calls(bad)[case]
    with pytest.raises(error, match=f"^{name} must be an integer >= 1, got "):
        call()


@pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0), "3", None, -1])
def test_campaign_seed_is_an_integer_at_least_zero(bad):
    config = dict(dist=gaussian(R3, 1.0), n=5, trials=100, q=4.0, D=1.0, u_grid=(0.1,), seed=bad)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
        CampaignConfig(**config)


@pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0), "3", None, -1, 0, 1])
def test_tightness_n_boot_is_an_integer_at_least_two(bad):
    config = CampaignConfig(dist=gaussian(R3, 1.0), n=5, trials=100, q=4.0, D=1.0,
                            u_grid=(0.1,), seed=0)
    with pytest.raises(ValueError, match="^n_boot must be an integer >= 2, got "):
        tightness(config, n_boot=bad)


def test_count_checks_take_numpy_integers_and_keep_their_other_rules():
    # a numpy count becomes a Python int, whose arithmetic cannot wrap
    space = make_lp(np.uint8(16), 3.0)
    assert space == SmoothSpace(16, 3.0) and type(space.dimension) is int
    dist = gaussian(space, 1.0)
    assert sample_increments(dist, np.int32(4), 0).shape == (4, 16)
    maxima = stochastic.running_max_ensemble(dist, np.uint16(5000), np.uint8(7), 1)
    assert np.array_equal(maxima, stochastic.running_max_ensemble(dist, 5000, 7, 1))
    config = dict(dist=dist, n=5, trials=100, q=4.0, D=1.0, u_grid=(0.1,), seed=1)
    for trials in (100.5, 1e5):
        with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {trials}"):
            CampaignConfig(**{**config, "trials": trials})
    with pytest.raises(ValueError, match="^trials must be >= 100, got 99"):
        CampaignConfig(**{**config, "trials": 99})
    empty = SeparableFunction(terms=())
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0"):
        stochastic.doob_running_max_ensemble(empty, lambda rng, n: rng.random(n), 5, 1)


def _q_calls(q):
    """name: a call that takes the moment order ``q``."""
    config = dict(dist=gaussian(R3, 1.0), n=5, trials=100, D=1.0, u_grid=(0.1,), seed=1)
    spec = HolderSpec(holder_L=1.0, alpha=1.0, coordinate_moments=((1.0, 1.0),))
    laws = [stochastic.DiscreteNormLaw(values=(0.0, 0.5), probs=(0.5, 0.5))]
    return {
        "MomentProfile": lambda: MomentProfile(1.0, 1.0, q),
        "moment_profile": lambda: moment_profile(gaussian(R3, 1.0), q, 5),
        "CampaignConfig": lambda: CampaignConfig(**config, q=q),
        "constant_c": lambda: constant_c(q, 1.0),
        "holder_constants": lambda: holder_constants(spec, q),
        "rio_moment_check": lambda: stochastic.rio_moment_check(laws, q, 3.0, 1.0, 1.0),
        "cgf_pieces": lambda: cgf_pieces(q, 1.0, 1.0),
        "truncation_error_bound": lambda: truncation_error_bound(q, 0.1),
        "rio36_check": lambda: rio36_check(q, 1.0),
        "proof_chain": lambda: proof_chain(q, 1.0, 1.0, 0.1)}


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 2.0])
@pytest.mark.parametrize("site", list(_q_calls(4.0)))
def test_every_q_entry_takes_one_check(site, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidQError, match="^q must exceed 2 and be finite, got "):
            _q_calls(q)[site]()
    _q_calls(4.0)[site]()  # a valid q passes the same call


_RIO_LAWS = [stochastic.DiscreteNormLaw(values=(0.0, 0.5), probs=(0.5, 0.5))]


@pytest.mark.parametrize("args, match", [
    (dict(k=math.inf), "^k must be finite and >= 2"), (dict(k=math.nan), "^k must be finite"),
    (dict(k=1.5), "^k must be finite and >= 2"),
    (dict(sigma=math.nan), "^sigma must be finite"), (dict(sigma=math.inf), "^sigma must be finite"),
    (dict(sigma=-1.0), "^sigma must be finite and >= 0"),
    (dict(trunc_L=math.nan), "^trunc_L must be finite"), (dict(trunc_L=math.inf), "^trunc_L must"),
    (dict(trunc_L=0.0), "^trunc_L must be finite and > 0"),
    (dict(norm_laws=[]), "^norm_laws must hold at least one law")])
def test_rio_moment_check_rejects_invalid_input(args, match):
    call = dict(norm_laws=_RIO_LAWS, q=4.0, k=3.0, sigma=1.0, trunc_L=1.0) | args
    with pytest.raises(ValueError, match=match):
        stochastic.rio_moment_check(**call)


@pytest.mark.parametrize("values, probs", [
    ((0.5,), (-1.0,)), ((0.5,), (1.5,)), ((0.5,), (math.nan,)), ((-1.0,), (1.0,)),
    ((math.nan,), (1.0,)), ((math.inf,), (1.0,)), ((), ()), ((0.5, 1.0), (1.0,))])
def test_discrete_norm_laws_reject_invalid_values_and_probabilities(values, probs):
    with pytest.raises(ValueError, match="^a norm law needs values finite and >= 0"):
        stochastic.DiscreteNormLaw(values=values, probs=probs)


@pytest.mark.parametrize("holder_L, moments, match", [
    (math.nan, ((1.0, 1.0),), "^holder_L must be finite"), (math.inf, ((1.0, 1.0),), "^holder_L"),
    (1.0, ((-1.0, 1.0),), "^coordinate moments must"), (1.0, ((1.0, math.nan),), "^coordinate"),
    (1.0, ((math.inf, 1.0),), "^coordinate moments must be finite and >= 0")])
def test_holder_spec_rejects_invalid_constants(holder_L, moments, match):
    with pytest.raises(ValueError, match=match):
        HolderSpec(holder_L=holder_L, alpha=1.0, coordinate_moments=moments)


@pytest.mark.parametrize("k, trials, match", [
    (1.5, 10, "^k must be an integer"), (1, 10.5, "^trials must be an integer >= 1"),
    (np.float64(1.0), 10, "^k must be an integer"), (0, 0, "^trials must be an integer >= 1"),
    ("1", 10, "^k must be an integer"), (True, 10, "^k must be an integer"),
    (11, 10, "^need 0 <= k <= trials")])
def test_clopper_pearson_counts_are_integers(k, trials, match):
    with pytest.raises(InvalidCountError, match=match):
        clopper_pearson_upper(k, trials, 0.9)
    assert clopper_pearson_upper(np.int64(1), np.int64(10), 0.9) == clopper_pearson_upper(1, 10, 0.9)


def test_pinelis_checks_on_one_trial_give_zero_errors_without_warnings():
    dist = rademacher(R1, 1.0)
    ens = truncated_ensemble(dist, 4, 1, seed=3, trunc_L=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = pinelis_supermartingale_profile(ens, t=0.5, D=1.0, dist=dist)
        report = pinelis_check(ens, t=0.5, D=1.0, dist=dist)
    assert np.array_equal(state.g_standard_errors, np.zeros(5))
    assert report.standard_error == 0.0 and report.trials == 1


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dist", [gaussian(R1, 1.0), rademacher(R1, 1.0), uniform_cube(R1, 1.0)])
def test_truncated_exp_moment_rejects_a_t_that_is_not_finite(dist, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t must be finite, got "):
            truncated_norm_exp_moment(dist, t, 2.0)


@pytest.mark.parametrize("t, D", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                  (0.5, 0.5), (0.5, math.nan), (0.5, math.inf), (0.5, -1.0)])
def test_pinelis_checks_reject_invalid_t_and_D(t, D):
    dist = rademacher(R1, 1.0)
    ens = truncated_ensemble(dist, 3, 200, seed=2, trunc_L=1.0)
    for check in (pinelis_check, pinelis_supermartingale_profile):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^t must be finite and > 0|^D must be finite"):
                check(ens, t=t, D=D, dist=dist)


def test_pinelis_D_at_least_the_smoothness_constant():
    dist = rademacher(make_lp(3, 4.0), 1.0)
    ens = truncated_ensemble(dist, 3, 200, seed=2, trunc_L=1.0)
    with pytest.raises(ValueError, match="smoothness constant 1.73205 of the space"):
        pinelis_check(ens, t=0.5, D=1.0, dist=dist)
    assert pinelis_check(ens, t=0.5, D=math.sqrt(3.0), dist=dist).passed


# ---------------------------------------------------------------- smoothness constant

def test_campaign_rejects_D_below_smoothness_constant(capsys):
    dist = rademacher(make_lp(3, 4.0), 1.0)
    base = dict(dist=dist, n=5, trials=100, q=4.0, u_grid=(0.1,), seed=0)
    with pytest.raises(ValueError, match="smoothness constant"):
        CampaignConfig(D=1.0, **base)
    with pytest.raises(ValueError):
        CampaignConfig(D=math.nan, **base)
    CampaignConfig(D=math.sqrt(3.0), **base)
    # a space built directly carries the same constant: it has no D of its own
    direct = dict(base, dist=rademacher(SmoothSpace(3, 4.0), 1.0))
    with pytest.raises(ValueError, match="smoothness constant"):
        CampaignConfig(D=1.0, **direct)
    assert cli.run(["verify", "--dist", "rademacher", "--alpha", "1", "--dim", "3",
                    "--p", "4", "--n", "5", "--trials", "100", "--q", "4",
                    "--D", "1", "--u", "0.1"]) == 2
    assert "smoothness constant" in capsys.readouterr().err


def test_verify_D_defaults_to_smoothness_constant(tmp_path, capsys):
    base = ["verify", "--dist", "rademacher", "--alpha", "1", "--dim", "3", "--p", "4",
            "--n", "5", "--trials", "100", "--q", "4", "--u", "0.1", "--seed", "2"]
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert cli.run(base + ["--out", str(default)]) == 0
    assert cli.run(base + ["--out", str(explicit), "--D", repr(math.sqrt(3.0))]) == 0
    assert json.loads(default.read_text())["config"]["D"] == math.sqrt(3.0)
    assert default.read_bytes() == explicit.read_bytes()
    capsys.readouterr()
    assert cli.run(["verify", "--help"]) == 0
    assert "by default the space's" in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------- tail overflow

def test_tail_bound_overflow_clamps_to_one(capsys):
    prof = MomentProfile(sigma_sq=1.0, cq_to_q=1.0, q=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf is reached by OverflowError, not a numpy warning
        assert cli.run(["bound", "--q", "10", "--D", "1", "--sigma", "1", "--cq", "1",
                        "--t", "1e-300"]) == 0
        assert "tail probability at t = 1e-300: 1\n" in capsys.readouterr().out
        assert tail_bound(prof, 1.0, 1e-300).value == 1.0
        assert crossover_scan(prof, 1.0, (1e-300, 1e-290)) is None


# ---------------------------------------------------------------- out-of-range inputs

def _value(lo, hi, tiny=True):
    odd = [math.nan, math.inf, -math.inf] + ([1e-320, 5e-324] if tiny else [])
    return st.one_of(st.floats(min_value=lo, max_value=hi), st.sampled_from(odd))


@settings(max_examples=60, deadline=None)
@given(q=_value(2.5, 10.0), D=_value(1.0, 3.0), sigma=_value(0.1, 5.0, tiny=False),
       cq=_value(0.1, 5.0), level=_value(0.01, 0.9))
def test_out_of_range_inputs_exit_2_or_print_finite(q, D, sigma, cq, level):
    moments = [f"--q={q!r}", f"--D={D!r}", f"--sigma={sigma!r}"]
    for argv in (["bound", *moments, f"--cq={cq!r}", f"--u={level!r}"],
                 ["bound", *moments, f"--cq={cq!r}", f"--t={level!r}"],
                 ["mcdiarmid", *moments, f"--cq={cq!r}", f"--u={level!r}"],
                 ["proofcheck", *moments, f"--u={level!r}"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        printed = out.getvalue().lower()
        assert code == 2 or ("nan" not in printed and "inf" not in printed), (argv, printed)


def test_listed_out_of_range_inputs_exit_2(capsys):
    base = ["--q", "4", "--D", "1", "--sigma", "1", "--cq", "1"]
    # B(u) = 3.3e312 at q = 2.01, C_q = 1e153, u = 1e-320: past the float range
    overflowing = [[cmd, "--q", "2.01", "--D", "1", "--sigma", "1", "--cq", "1e153", "--u",
                    "1e-320"] for cmd in ("bound", "mcdiarmid")]
    for argv in (["bound", "--q", "4", "--D=nan", "--sigma", "1", "--cq", "1", "--u", "0.1"],
                 ["bound", "--q", "4", "--D=inf", "--sigma", "1", "--cq", "1", "--u", "0.1"],
                 ["bound", "--q=inf", "--D", "1", "--sigma", "1", "--cq", "1", "--u", "0.1"],
                 ["bound", *base, "--t=nan"], *overflowing):
        assert cli.run(argv) == 2, argv
    assert "overflows" in capsys.readouterr().err
    assert cli.run(["proofcheck", "--q", "4", "--D", "1", "--sigma=nan", "--u", "0.1"]) == 2
    assert "sigma must be finite and > 0, got nan" in capsys.readouterr().err


def test_proofcheck_rejects_overflowing_D_and_sigma(capsys):
    for flags, message in (
            (["--q", "4", "--D", "1", "--sigma", "1e-320"],
             "sigma^(-2/(q-2)) overflows at sigma = 1e-320"),
            (["--q", "4", "--D", "1e200", "--sigma", "1"],
             "D^2 or sigma^2 overflows at D = 1e+200, sigma = 1.0"),
            (["--q", "4", "--D", "1", "--sigma", "1e200"],
             "D^2 or sigma^2 overflows at D = 1.0, sigma = 1e+200"),
            (["--q", "10", "--D", "1e154", "--sigma", "1"], "the proof chain overflows")):
        assert cli.run(["proofcheck", *flags, "--u", "0.1"]) == 2, flags
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------- exit codes

def test_internal_inconsistency_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.txt"
    path.write_text("1\n2\n3\n", encoding="utf-8")

    def broken(sample, u):
        raise InternalInconsistencyError("CVaR forms disagree")

    monkeypatch.setattr(quantile, "cvar_q1", broken)
    assert cli.run(["quantile", str(path), "--u", "0.5"]) == 3
    assert "internal error: CVaR forms disagree" in capsys.readouterr().err


# ---------------------------------------------------------------- import cost

_LAZY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.integrate")

# Run in a fresh interpreter: other test modules import scipy.stats themselves.
_IMPORT_PROBE = """
import sys
sample_file, out_dir, lazy = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
from fuknagaev import cli
from fuknagaev.spaces import make_euclidean
from fuknagaev.stochastic import (MomentProfile, gaussian, pinelis_check, rademacher,
                                  student_t, symmetric_pareto, truncated_ensemble,
                                  uniform_cube)
from fuknagaev.verify import CampaignConfig, crossover_scan, tightness

runs = (["verify", "--dist", "pareto", "--alpha", "4.5", "--dim", "5", "--n", "50",
         "--trials", "300", "--q", "4", "--D", "1", "--u", "0.5,0.1", "--seed", "5",
         "--out", out_dir + "/pareto.json"],
        ["verify", "--dist", "gaussian", "--p", "3", "--dim", "16", "--n", "20",
         "--trials", "300", "--q", "4", "--u", "0.5,0.1", "--seed", "5",
         "--out", out_dir + "/gaussian.csv", "--format", "csv"],
        ["proofcheck", "--q", "4", "--D", "1", "--sigma", "1", "--u", "0.1"],
        ["bound", "--q", "4", "--D", "1", "--sigma", "1", "--cq", "1", "--u", "0.1"],
        ["quantile", sample_file, "--u", "0.1,0.5", "--out", out_dir + "/quantile.json"])
for argv in runs:
    assert cli.run(argv) == 0, argv
config = CampaignConfig(dist=rademacher(make_euclidean(1), 1.0), n=20, trials=300, q=4.0,
                        D=1.0, u_grid=(0.5, 0.1), seed=3)
assert tightness(config, n_boot=20).passed
signs = truncated_ensemble(config.dist, 5, 500, seed=4, trunc_L=1.0)  # a point-mass norm
assert pinelis_check(signs, t=0.5, D=1.0, dist=config.dist, trunc_L=1.0).passed
# the continuous laws integrate their truncated moments with numpy alone
for dist in (symmetric_pareto(make_euclidean(3), 4.5), student_t(make_euclidean(3), 5.0),
             gaussian(make_euclidean(3), 1.0), uniform_cube(make_euclidean(1), 1.0)):
    ens = truncated_ensemble(dist, 5, 500, seed=21, trunc_L=2.0)
    assert pinelis_check(ens, t=0.5, D=1.0, dist=dist, trunc_L=2.0).passed, dist
t = crossover_scan(MomentProfile(sigma_sq=150.0, cq_to_q=1.0, q=4.0), 1.0, (1.0, 1e4))
assert t is not None and 1.0 <= t <= 1e4
loaded = [name for name in lazy if name in sys.modules]
assert not loaded, f"loaded without a caller that needs them: {loaded}"
# scipy's subpackages are the public names below it; scipy.version holds its version strings
others = sorted({name.split(".")[1] for name in sys.modules if name.startswith("scipy.")}
                - {"special", "version"})
assert all(name.startswith("_") for name in others), f"scipy subpackages loaded: {others}"
print("ok")
"""


def test_import_loads_no_scipy_stats_optimize_or_integrate(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text("\n".join(map(repr, np.random.default_rng(4).standard_t(3.0, 500).tolist())),
                      encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(sample), str(tmp_path),
                           ",".join(_LAZY_SCIPY)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
