"""pesim.rng against numpy: the same default_rng(seed).uniform stream, bit for bit."""

import numpy as np
import pytest

from pesim import rng as pesim_rng
from pesim.experiments import InitialCondition
from pesim.grid import Grid1D
from pesim.rng import DefaultRng

# from 2^128 on, the seed has words past the fourth, mixed into the pool one by one
MULTI_WORD_SEEDS = [2**32 - 1, 2**32, 2**64 + 5, 10**30,
                    2**128, 2**128 + 5, 2**160 + 7, 3**200, 2**1000 + 1]
CHECKER_SEEDS = [20240, 20241, 20242, 20243, 20244]  # inequalities' report seeds


def _draws(rng):
    """Scalar and sized draws interleaved as pesim's callers make them: a
    random_trig_field (two scalars, the second's range set by the first,
    then 4 coefficients), an initial condition's 1 and 7 coefficients, and
    elementary_report's 4000 samples."""
    base = rng.uniform(1.0, 2.0)
    amp = rng.uniform(0.2, min(base - 0.5, 1.0))
    return [base, amp, rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 1),
            rng.uniform(-1.0, 1.0, 7), rng.uniform(0.0, 14.0, 4000), rng.uniform(-1.0, 1.0)]


@pytest.mark.parametrize("seeds", [range(256), MULTI_WORD_SEEDS, CHECKER_SEEDS],
                         ids=["seeds-0-255", "multi-word", "checker"])
def test_uniform_stream_matches_numpy(seeds):
    for seed in seeds:
        ours, numpys = _draws(DefaultRng(seed)), _draws(np.random.default_rng(seed))
        for a, b in zip(ours, numpys):
            assert type(a) is type(b), seed
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), seed
            else:
                assert a == b, seed


def test_random_trig_ic_matches_numpy_generator(monkeypatch):
    grid = Grid1D(0.0, 1.0, 64)
    ics = [InitialCondition("random-trig", mode=4, seed=seed) for seed in range(16)]
    ours = [ic.build(grid).w for ic in ics]
    monkeypatch.setattr(pesim_rng, "DefaultRng", np.random.default_rng)
    for seed, ic, w in zip(range(16), ics, ours):
        assert np.array_equal(w, ic.build(grid).w), seed
