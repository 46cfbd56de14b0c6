"""`spawn_streams` and `spawn_normals` against `spawn_rng`, draw for draw."""

import numpy as np
import pytest

from netmoment.rng import spawn_normals, spawn_rng, spawn_streams

IDS = [f"net-{k:06d}" for k in range(10**5 - 5)] + ["", "é", "网络-7", "Ωmega ✓", "\U0001F600"]


def first_normals(seed, key, ids):
    return [spawn_rng(seed, key, i).standard_normal().hex() for i in ids]


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 - 1, -1])
def test_spawn_normals_matches_spawn_rng(seed):
    """numpy's SeedSequence (the hashmix/mix pool and generate_state) and
    PCG64's srandom step, replayed as array arithmetic, must give the draws
    of numpy's own seeding path. A numpy that changes either fails here."""
    got = spawn_normals(seed, "query-delta", IDS)
    assert got.dtype == np.float64 and got.shape == (len(IDS),)
    assert [x.hex() for x in got.tolist()] == first_normals(seed, "query-delta", IDS)


@pytest.mark.parametrize("key", [3, 2**40 + 1, "cli-test"])
def test_spawn_normals_takes_any_stream_key(key):
    # an int key adds one or two entropy words, a string key four
    ids = IDS[:500] + IDS[-5:]
    assert [x.hex() for x in spawn_normals(11, key, ids).tolist()] == first_normals(11, key, ids)


def test_spawn_normals_of_no_ids():
    assert spawn_normals(0, "query-delta", []).shape == (0,)


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 - 1])
def test_spawn_streams_match_spawn_rng(seed):
    """A replicate's stream, keyed (tag, m, n, rep) as the CDF and coverage
    runners key it: the reused generator holds the state of `spawn_rng`'s
    own and gives its first draws."""
    reps = range(10**4)
    for rep, gen in zip(reps, spawn_streams(seed, ("cdf", 40, 40), reps), strict=True):
        want = spawn_rng(seed, "cdf", 40, 40, rep)
        assert gen.bit_generator.state == want.bit_generator.state, rep
        if rep % 97 == 0:
            assert gen.random(3).tobytes() == want.random(3).tobytes()
            assert gen.standard_normal() == want.standard_normal()
