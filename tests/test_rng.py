import numpy as np
import pytest
from scipy.special import ndtri

from dpfed.errors import InvalidValue
from dpfed.rng import RandomSource


def test_same_seed_same_stream():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert a.uniforms(100).tolist() == b.uniforms(100).tolist()
    assert a.normals(50).tolist() == b.normals(50).tolist()
    assert a.permutation(17).tolist() == b.permutation(17).tolist()


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert a.uniforms(10).tolist() != b.uniforms(10).tolist()


def test_uniform_range():
    rng = RandomSource(7)
    u = rng.uniforms(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    v = rng.open_uniforms(10000)
    assert v.min() > 0.0 and v.max() < 1.0


def test_derive_is_independent_of_parent_consumption():
    # child streams depend only on the key path, not on how much the
    # parent has already drawn
    a = RandomSource(99)
    child_before = a.derive("worker", 3).uniforms(5)
    a.uniforms(1000)
    child_after = a.derive("worker", 3).uniforms(5)
    assert child_before.tolist() == child_after.tolist()


def test_derive_distinct_keys_distinct_streams():
    root = RandomSource(5)
    u1 = root.derive("init").uniforms(8)
    u2 = root.derive("warm").uniforms(8)
    u3 = root.derive("init", 1).uniforms(8)
    assert u1.tolist() != u2.tolist()
    assert u1.tolist() != u3.tolist()


def test_normals_moments():
    z = RandomSource(11).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normals_shape():
    z = RandomSource(3).normals((4, 5))
    assert z.shape == (4, 5)


def test_permutation_is_a_permutation():
    p = RandomSource(42).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_seed_validation():
    with pytest.raises(InvalidValue):
        RandomSource(-1)
    with pytest.raises(InvalidValue):
        RandomSource(2**64)
    with pytest.raises(InvalidValue):
        RandomSource(1.5)  # type: ignore[arg-type]


def test_derive_needs_keys():
    with pytest.raises(InvalidValue):
        RandomSource(0).derive()
    with pytest.raises(InvalidValue):
        RandomSource(0).derive(-3)


def test_algorithm_recorded():
    assert RandomSource(0).algorithm == "PCG64"


class OneCallPerDraw:
    """Reference stream: one plain ``Generator.random()`` call per scalar draw."""

    def __init__(self, seed):
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))

    def uniform(self):
        return float(self.gen.random())

    def open_uniform(self):
        u = self.gen.random()
        while u == 0.0:
            u = self.gen.random()
        return float(u)

    def uniforms(self, n):
        return self.gen.random(n)

    def open_uniforms(self, n):
        u = self.gen.random(n)
        while (u == 0.0).any():
            u[u == 0.0] = self.gen.random(int((u == 0.0).sum()))
        return u

    def normals(self, n):
        return ndtri(self.open_uniforms(n))

    def permutation(self, n):
        return self.gen.permutation(n)


SCALAR_DRAWS = ("uniform", "open_uniform")
ARRAY_DRAWS = ("uniforms", "open_uniforms", "normals", "permutation")


def _draw(source, method, n):
    if method in SCALAR_DRAWS:
        return [getattr(source, method)() for _ in range(n)]
    return getattr(source, method)(n).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stream_equals_one_call_per_scalar_draw(seed):
    # any interleaving of block-served scalar draws with the array draws
    # must give the bytes of one generator call per scalar draw; bursts
    # around the block size end a block exactly, just before or just after
    plan = np.random.default_rng(seed)
    rng, ref = RandomSource(seed), OneCallPerDraw(seed)
    bursts = (1023, 1024, 1025, 3000)
    for step in range(300):
        if step % 10 == 0:
            method, n = SCALAR_DRAWS[step // 10 % 2], bursts[step // 20 % 4]
        elif plan.random() < 0.5:
            method, n = SCALAR_DRAWS[plan.integers(2)], int(plan.integers(0, 40))
        else:
            method, n = ARRAY_DRAWS[plan.integers(4)], int(plan.integers(0, 20))
        assert _draw(rng, method, n) == _draw(ref, method, n), (step, method, n)
