"""The unit-norm rule, the deterministic random generator and its seed range,
the lower-bound check of the config fields, the text-file opener that every
reader of a package file goes through, the float parse of the window file and
checkpoint readers, and the row writer that every CSV and the window file go
through.

All randomness in the package flows through :class:`Rng`, a counter-based
splitmix64 generator that is fully specified below so that runs are
reproducible bit-for-bit and ports to other languages can match the stream.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

# Norms below this are treated as degenerate rather than silently producing
# zeros or NaNs that would propagate into the loss.
NORM_EPS = 1e-12


class DegenerateVectorError(ValueError):
    """Raised when a vector with (near-)zero norm reaches a normalization."""


def unit_rows(m: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows of m (along its last axis) scaled to unit norm, and their norms,
    shaped (..., 1).  A norm below NORM_EPS or not finite (a non-finite entry
    makes it so) raises DegenerateVectorError naming ``what``."""
    # what np.linalg.norm(m, axis=-1, keepdims=True) computes for real input
    norms = np.sqrt(np.add.reduce(m * m, axis=-1, keepdims=True))
    # a NaN norm fails both comparisons
    if not (norms.min() >= NORM_EPS and norms.max() < np.inf):
        raise DegenerateVectorError(f"{what} norm is degenerate or non-finite")
    return m / norms, norms


# splitmix64 constants (Steele, Lea & Flood 2014).  The generator is used in
# counter mode: output i of a stream seeded with s is mix(s + (i+1)*GAMMA)
# with all arithmetic modulo 2**64, which makes block generation trivially
# vectorizable while keeping a strict, documented draw sequence.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SPAWN_SALT = np.uint64(0xD1B54A32D192ED03)

_U64_MASK = (1 << 64) - 1


def check_seed(name: str, seed: int) -> None:
    """Raise ValueError("<name>: ...") unless seed is a valid Rng seed."""
    if not 0 <= int(seed) <= _U64_MASK:
        raise ValueError(f"{name}: must fit in an unsigned 64-bit integer, got {seed!r}")


def check_lower_bound(name: str, value: float, low: float, strict: bool = False) -> None:
    """Raise ValueError("<name>: ...") unless value is finite and >= low, or > low if strict."""
    if not (value > low if strict else value >= low):
        raise ValueError(f"{name}: must be {'>' if strict else '>='} {low}, got {value!r}")
    if value == np.inf:
        raise ValueError(f"{name}: must be finite, got inf")


def finite_floats(tokens: list[str]) -> np.ndarray:
    """tokens as a float64 array; a non-finite one raises ValueError("non-finite value")."""
    values = np.array([float(t) for t in tokens])
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


# Uniform requests of up to _BLOCK_MAX_REQUEST draws are served from a cached
# block of _BLOCK uniforms (8 KB) of the generator's own stream, so a small
# draw costs one slice instead of a dozen numpy calls.
_BLOCK = 1024
_BLOCK_MAX_REQUEST = 64


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on an uint64 array (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _to_unit(u: np.ndarray) -> np.ndarray:
    """Map 64-bit outputs to [0, 1) through their top 53 bits."""
    return (u >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


class Rng:
    """Deterministic splitmix64 stream.

    Draw sequence, given seed ``s`` and a draw counter ``c`` starting at 0:

    * ``next_u64(n)`` returns ``mix64(s + (c+1..c+n) * GAMMA)`` and advances
      ``c`` by ``n``.
    * ``uniform`` maps each 64-bit output to ``[0, 1)`` via the top 53 bits:
      ``(u >> 11) * 2**-53``.
    * ``gaussian_array`` consumes exactly two uniforms per value using the
      Box-Muller cosine branch: ``sqrt(-2*log(1 - u1)) * cos(2*pi*u2)``.
      Batched and one-at-a-time draws therefore produce identical streams.

    Identical seeds produce identical sequences on every platform; the state
    is a single owner's to advance and must not be shared across concurrent
    tasks.

    Small ``uniform`` requests are sliced from a cached block of the same
    stream, computed ahead of the counter.  Every output is a pure function
    of the seed and its position, so caching changes no draw.
    """

    def __init__(self, seed: int):
        check_seed("seed", seed)
        self.seed = int(seed)
        self._counter = 0
        # uniforms at counter positions _block_start+1 .. _block_start+len(_block)
        self._block = np.empty(0)
        self._block_start = 0

    def _u64_at(self, start: int, n: int) -> np.ndarray:
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        return _mix64(np.uint64(self.seed) + idx * _GAMMA)

    def next_u64(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        out = self._u64_at(self._counter, n)
        self._counter += n
        return out

    def uniform(self, n: int | None = None):
        """Uniform draws in [0, 1); scalar when n is None.

        Arrays of at most _BLOCK_MAX_REQUEST draws are views of the cached
        block; the positions they cover are never served again.
        """
        m = 1 if n is None else n
        if 0 < m <= _BLOCK_MAX_REQUEST:
            c = self._counter
            off = c - self._block_start
            if not 0 <= off <= len(self._block) - m:
                self._block = _to_unit(self._u64_at(c, _BLOCK))
                self._block_start, off = c, 0
            self._counter = c + m
            u = self._block[off:off + m]
        else:
            u = _to_unit(self.next_u64(m))
        return float(u[0]) if n is None else u

    def gaussian_array(self, shape: tuple[int, ...], mean: float = 0.0,
                       std: float = 1.0) -> np.ndarray:
        """Normal draws via Box-Muller, filling an array of the given shape in C order.

        Two uniforms are consumed per value even when std == 0, so the stream
        position does not depend on parameter values.
        """
        if std < 0:
            raise ValueError("std must be non-negative")
        u = self.uniform(2 * int(np.prod(shape)))
        z = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        return (mean + std * z).reshape(shape)

    def below(self, bound: int) -> int:
        """Integer in [0, bound) via floor(uniform * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return min(int(self.uniform() * bound), bound - 1)

    def choice_without_replacement(self, pool_size: int, k: int) -> np.ndarray:
        """k distinct indices from range(pool_size), partial Fisher-Yates order.

        Swap i uses uniform draw i: j = i + floor(u_i * (pool_size - i)),
        clamped to pool_size - 1.  Only the swapped slots are stored, so the
        cost is O(k), not O(pool_size).
        """
        if k > pool_size:
            raise ValueError(f"cannot draw {k} from pool of {pool_size}")
        swapped: dict[int, int] = {}
        get = swapped.get
        last = pool_size - 1
        out = []
        for i, u in enumerate(self.uniform(k).tolist()):
            j = i + int(u * (pool_size - i))
            if j > last:
                j = last
            out.append(get(j, j))
            swapped[j] = get(i, i)
        return np.array(out, dtype=np.intp)

    def shuffled(self, n: int) -> np.ndarray:
        """A full Fisher-Yates permutation of range(n)."""
        return self.choice_without_replacement(n, n)

    def spawn(self, stream: int) -> "Rng":
        """Child generator with a seed derived from (seed, stream).

        Child seeds are mix64(seed + SPAWN_SALT + (stream+1)*GAMMA), giving
        independent streams for e.g. per-modality generation without sharing
        the parent's counter.
        """
        base = (self.seed + int(_SPAWN_SALT) + (int(stream) + 1) * int(_GAMMA)) & _U64_MASK
        child_seed = int(_mix64(np.asarray([base], dtype=np.uint64))[0])
        return Rng(child_seed)


@contextmanager
def open_text(path: str):
    """open(path) to read text; a byte that its encoding cannot decode raises
    ValueError("path:line: ..."), at the first line that does not decode."""
    try:
        with open(path) as f:
            yield f
    except UnicodeDecodeError as exc:
        with open(path, "rb") as f:
            for ln_no, raw in enumerate(f, start=1):
                try:
                    raw.decode(exc.encoding)
                except UnicodeDecodeError as line_exc:
                    raise ValueError(f"{path}:{ln_no}: {line_exc}") from None
        raise ValueError(f"{path}: {exc}") from None


def write_rows(path: str, head, body) -> None:
    """Write head's rows, then body's as body yields them, one comma-joined line
    per row: a str cell as it is, any other cell as its repr, which round-trips
    a float64 exactly.  A generator body is never held whole."""
    with open(path, "w") as f:
        for rows in (head, body):
            f.writelines(",".join([c if isinstance(c, str) else repr(c) for c in row]) + "\n"
                         for row in rows)
