import hashlib
import struct

import numpy as np
from scipy import stats

from lipgraph.rng import RandomStream


def test_draws_are_pure_functions_of_key():
    s = RandomStream(42)
    a = s.random("w", 3)
    b = s.random("w", 4)
    assert a != b
    # draw order irrelevant
    assert s.random("w", 3) == a
    assert RandomStream(42).random("w", 3) == a


def test_seeds_differ():
    assert RandomStream(1).random("x") != RandomStream(2).random("x")


def test_sub_stream_prefixes_keys():
    s = RandomStream(7)
    child = s.sub("trial", 0)
    assert child.random("w", 1) == s.random("trial", 0, "w", 1)
    assert child.random("w", 1) != s.random("w", 1)


def test_uniform_range():
    s = RandomStream(3)
    values = [s.uniform(2.0, 5.0, "u", i) for i in range(1000)]
    assert all(2.0 <= v < 5.0 for v in values)
    assert abs(np.mean(values) - 3.5) < 0.1


def test_randint_bounds_and_coverage():
    s = RandomStream(9)
    draws = [s.randint(5, "i", k) for k in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    counts = np.bincount(draws)
    assert counts.min() > 300


def test_permutation_is_a_permutation_and_roughly_uniform():
    s = RandomStream(5)
    seen = set()
    first_pos = np.zeros(4)
    for k in range(3000):
        p = s.permutation(4, "p", k)
        assert sorted(p) == [0, 1, 2, 3]
        seen.add(tuple(p))
        first_pos[p[0]] += 1
    assert len(seen) == 24
    assert np.all(np.abs(first_pos / 3000 - 0.25) < 0.05)


def test_generator_is_deterministic():
    a = RandomStream(11).generator("batch").random(5)
    b = RandomStream(11).generator("batch").random(5)
    assert np.array_equal(a, b)


# --- guards for the keyed-draw bytes ------------------------------------------
#
# Every draw is blake2b (8-byte digest) of repr((seed, *prefix, *key)).  The
# streams below cover a bare seed, string and int prefixes, a float prefix as
# the harness builds with sub(epsilon), and the empty key.

STREAMS = [
    RandomStream(1),
    RandomStream(0),
    RandomStream(7).sub("coupled", 3),
    RandomStream(-5).sub(0.01),
    RandomStream(2**70).sub("ind", "q", 12, "attempt"),
]
KEYS = [(), ("w",), ("w", 3), ("lipsp", "x", 0), ("bmatch", "B", "accept"), (-1, 2**65, "a'b")]
SCALAR_DIGEST = "0385d69ca547e6967213f2a8363613acbc312078e9a9ac75a888cc8b187a7e66"
VECTOR_DIGEST = "6fc1e958be55f0cd4c6f7f4941e3b33258ff6aa809056d9fb53291540c64f3e4"
PERMUTATION_DIGEST = "5b074e9ffc0fa87248a899d363ec727355e91276a9a080682bf0823f62bb0e07"


def _fisher_yates(stream, n, *key):
    """The per-swap Fisher-Yates that ``permutation`` has always run."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randint(i + 1, *key, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _digest(values, fmt):
    return hashlib.sha256(struct.pack("<%d%s" % (len(values), fmt), *values)).hexdigest()


def _vector(stream, n, *key):
    return [stream.random(*key, i) for i in range(n)]


def test_draws_of_an_empty_key_and_of_a_prefix_are_the_flat_key():
    for s in STREAMS:
        assert s.random() == RandomStream(s.seed).random(*s._prefix)
        for key in KEYS:
            assert s.random(*key) == RandomStream(s.seed).random(*s._prefix, *key)


def test_randoms_is_the_per_index_random():
    for s in STREAMS:
        for key in KEYS:
            for n in (0, 1, 2, 24):
                v = s.randoms(n, *key)
                assert v.dtype == np.float64 and v.shape == (n,)
                assert v.tolist() == _vector(s, n, *key)


def test_permutation_is_the_per_swap_fisher_yates():
    for s in STREAMS:
        for n in (0, 1, 2, 3, 10, 37):
            for key in KEYS:
                assert s.permutation(n, *key) == _fisher_yates(s, n, *key)


def test_pinned_draw_bytes():
    """Any change to the bytes a draw hashes, or to how digests become
    draws, changes these digests; such a change is declared."""
    scalars = [s.random(*key) for s in STREAMS for key in KEYS]
    vectors = [u for s in STREAMS for key in KEYS for u in _vector(s, 24, *key)]
    blocks = [u for s in STREAMS for key in KEYS for u in s.randoms(24, *key).tolist()]
    perms = [p for s in STREAMS for key in KEYS for p in s.permutation(10, *key)]
    assert _digest(scalars, "d") == SCALAR_DIGEST
    assert _digest(vectors, "d") == VECTOR_DIGEST
    assert _digest(blocks, "d") == VECTOR_DIGEST
    assert _digest(perms, "q") == PERMUTATION_DIGEST


# --- statistical checks on the vector path ------------------------------------


def test_randoms_are_uniform():
    u = RandomStream(2024).randoms(20000, "uniformity")
    assert np.all((0.0 <= u) & (u < 1.0))
    assert stats.kstest(u, "uniform").pvalue > 1e-3
    assert stats.chisquare(np.bincount((u * 50).astype(int), minlength=50)).pvalue > 1e-3


def test_randoms_adjacent_indices_are_independent():
    # pairs (u_i, u_i+1) from many short vectors, the length a sampler draws:
    # uniform on the unit square and uncorrelated
    s = RandomStream(2025).sub("adjacent")
    v = np.array([s.randoms(20, "vec", k) for k in range(1000)])
    a, b = v[:, 0::2].ravel(), v[:, 1::2].ravel()
    cells = (a * 10).astype(int) * 10 + (b * 10).astype(int)
    assert stats.chisquare(np.bincount(cells, minlength=100)).pvalue > 1e-3
    lag1 = v[:, :-1].ravel(), v[:, 1:].ravel()
    assert abs(np.corrcoef(*lag1)[0, 1]) < 4.0 / np.sqrt(lag1[0].size)
