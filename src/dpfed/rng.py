"""Deterministic random source used by every sampling operation.

All randomness flows through :class:`RandomSource`, a thin wrapper around
numpy's PCG64 bit generator. Non-uniform draws are produced from uniforms
by inverse-CDF transforms, so the full sample stream for a given seed is
reproducible bit for bit on any platform. Nothing in the package touches
the global numpy random state.

The scalar draw ``open_uniform`` is served from a block of ``_BLOCK``
doubles drawn ahead in one call, because numpy's scalar
``Generator.random()`` costs about a microsecond each. The stream stays
bit-identical to one generator call per scalar draw whatever the
interleaving: before a block is drawn the bit generator's state is saved,
and every other draw first rewinds to that state and redraws the doubles
already handed out. The rewind redraws rather than calling
``PCG64.advance``, which would drop the buffered 32-bit half that
``permutation`` consumes.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

from .errors import InvalidValue

_MAX_SEED = 2**64

_BLOCK = 1024  # doubles drawn ahead for scalar draws


def _key_to_int(key: int | str) -> int:
    """Map a stream label to a stable non-negative integer."""
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    if isinstance(key, int) and key >= 0:
        return key
    raise InvalidValue(f"stream key must be a string or non-negative int, got {key!r}")


class RandomSource:
    """Seeded stream of uniforms plus the derived draws built on them.

    ``derive`` spawns an independent child stream identified by a key
    path, so per-worker and per-purpose streams never overlap and never
    depend on call order elsewhere in the program.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not isinstance(seed, int) or not (0 <= seed < _MAX_SEED):
            raise InvalidValue(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self.seed = seed
        self.spawn_key = _spawn_key
        ss = np.random.SeedSequence(entropy=seed, spawn_key=_spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        # scalar draws come from _block[_pos:]; _saved is the state it was drawn from
        self._block: list[float] = []
        self._pos = _BLOCK
        self._saved: dict | None = None

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"

    def derive(self, *keys: int | str) -> "RandomSource":
        """Child source for the given key path, independent of this stream."""
        if not keys:
            raise InvalidValue("derive needs at least one key")
        mapped = tuple(_key_to_int(k) for k in keys)
        return RandomSource(self.seed, self.spawn_key + mapped)

    def _refill(self) -> None:
        """Draw the next block of scalar draws, keeping the state it came from."""
        self._saved = self._gen.bit_generator.state
        self._block = self._gen.random(_BLOCK).tolist()
        self._pos = 0

    def _rewind(self) -> None:
        """Leave the generator where one call per scalar draw would have left it."""
        if self._pos < _BLOCK:
            self._gen.bit_generator.state = self._saved
            self._gen.random(self._pos)
            self._pos = _BLOCK

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        if n < 0:
            raise InvalidValue("sample count must be non-negative")
        self._rewind()
        return self._gen.random(n)

    def open_uniform(self) -> float:
        """One double in the open interval (0, 1); exact zeros are redrawn."""
        u = 0.0
        while u == 0.0:
            if self._pos == _BLOCK:
                self._refill()
            u = self._block[self._pos]
            self._pos += 1
        return u

    def open_uniforms(self, n: int) -> np.ndarray:
        """n doubles in (0, 1) for inverse-CDF transforms."""
        u = self.uniforms(n)
        bad = u == 0.0
        while bad.any():
            u[bad] = self._gen.random(int(bad.sum()))
            bad = u == 0.0
        return u

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal draws via the inverse normal CDF of uniforms."""
        if isinstance(shape, int):
            shape = (shape,)
        n = 1
        for s in shape:
            if s < 0:
                raise InvalidValue("sample count must be non-negative")
            n *= s
        return ndtri(self.open_uniforms(n)).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n)."""
        if n < 0:
            raise InvalidValue("permutation length must be non-negative")
        self._rewind()
        return self._gen.permutation(n)

    def derive_seed(self, *keys: int | str) -> int:
        """A u64 seed drawn from the child stream at the given key path.

        For handing deterministic integer seeds to components that build
        their own RandomSource.
        """
        child = self.derive(*keys)
        return int(child._gen.integers(0, _MAX_SEED, dtype=np.uint64))
