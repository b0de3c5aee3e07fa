"""Costas array predicates, difference tables, and exhaustive enumeration.

A permutation f of {1..n} (column x holds a dot in row f(x)) is a Costas
array when all n(n-1)/2 difference vectors (j - i, f(j) - f(i)) for i < j
are pairwise distinct. Equivalently, within each row k = j - i of the
difference table the entries are distinct; that is the form checked here.
"""

from __future__ import annotations

import itertools
import math
import mmap
import numbers
import os
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ff import LimitTooLarge


class NotAPermutation(ValueError):
    """Input is not a permutation of 1..n."""


class SizeTooLarge(ValueError):
    """Requested size exceeds the exhaustive-search cap."""


class BlockNotClosed(ValueError):
    """The leading corner block does not map onto the lowest rows."""


_ENUM_CAP = 8

# Largest n that is_costas and first_collision accept; the check is Theta(n^2).
COSTAS_CAP = 100_000

# Largest n that difference_table accepts. Its n(n-1)/2 Python ints take
# about 36 bytes each: about 72 MiB at n = 2048.
_TABLE_CAP = 2048

# A row of m cells has distinct entries iff scattering them into a zeroed
# byte table marks m bins. The kernel keys blocks of
# max(_BLOCK_BINS // (2n), 16) rows into one table while a block spans at
# most _BLOCK_CELLS rows x n (up to n = 2048); beyond that it scatters and
# counts one row at a time into 2n bytes. On Welch arrays 16-row blocks
# beat single rows up to about n = 1900 and are within 5 % of them to 2150.
_BLOCK_BINS = 1 << 15
_MIN_BLOCK_ROWS = 16
_BLOCK_CELLS = 1 << 15

# Above the block switch, the check runs rows 1.._PARENT_ROWS in the calling
# process (a swapped or random permutation collides there, so nothing
# forks), then cuts the rest of the half triangle into chunks of about
# _CHUNK_CELLS cells, in row order, for up to `workers` processes to share.
_PARENT_ROWS = 64
_CHUNK_CELLS = 1 << 20


def _permutation(
    perm: Sequence[int], cap: Optional[int] = None, what: str = "Costas check"
) -> np.ndarray:
    """perm as an int64 array. Raises LimitTooLarge above cap (checked first), then
    NotAPermutation unless perm is a permutation of 1..n of integers, not bools.
    A 1-D integer ndarray is copied to int64 whole; past int64 a uint64 entry
    wraps to a negative one, which is no entry of a permutation either."""
    whole = isinstance(perm, np.ndarray) and perm.ndim == 1 and perm.dtype.kind in "iu"
    seq = perm if whole else list(perm)
    n = len(seq)
    if cap is not None and n > cap:
        raise LimitTooLarge(f"{what} capped at n = {cap}, got n = {n}")
    if whole:
        return _checked_permutation(perm.astype(np.int64))
    if not set(map(type, seq)) <= {int}:
        # Integral entries, numpy's among them, are integers, except bool.
        for v in seq:
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise NotAPermutation(f"non-integer entry {v!r}")
    try:
        a = np.array(seq, dtype=np.int64)
    except OverflowError:  # an entry beyond int64 is beyond n too, as is 0
        a = np.zeros(n, dtype=np.int64)
    return _checked_permutation(a)


def _checked_permutation(a: np.ndarray) -> np.ndarray:
    """a itself if the int64 array a is a permutation of 1..n, in O(n); else
    NotAPermutation. The one permutation test, for lists and arrays."""
    n = len(a)
    # n entries are a permutation of 1..n iff each of 1..n occurs.
    seen = np.zeros(n + 2, dtype=bool)
    seen[np.clip(a, 0, n + 1)] = True
    if not seen[1 : n + 1].all():
        raise NotAPermutation(f"expected a permutation of 1..{n}")
    return a


def _drop_corner(a: np.ndarray, t: int) -> np.ndarray:
    """x -> f(x + t) - t for a permutation array a, in O(t): the t x t corner
    of a permutation is closed iff its first t columns lie in rows 1..t."""
    bad = np.flatnonzero(a[:t] > t)
    if bad.size:
        raise BlockNotClosed(f"column {bad[0] + 1} breaks the {t} x {t} corner block")
    return a[t:] - t


def _first_colliding_row(a: np.ndarray, workers: int = 1) -> int:
    """Smallest k whose difference row f(x+k) - f(x) repeats an entry, or 0 if none.

    a is an int64 array already known to be a permutation of 1..n. Above the
    block switch, workers > 1 lets up to that many processes share the rows.
    """
    # Only rows k <= (n-1)//2 need checking. If row k collides at columns
    # x < y, then f(y) - f(x) = f(y+k) - f(x+k), so row y - x collides at
    # columns x and x + k. As x >= 1 and y + k <= n, k + (y - x) <= n - 1,
    # so min(k, y - x) <= (n-1)/2: the smallest colliding row lies in the half.
    n = len(a)
    if n < 3:
        return 0
    half = (n - 1) // 2
    width = 2 * n  # hi[x+k] - a[x] = d + n lies in 1..2n-1
    hi = a + n
    step = max(_BLOCK_BINS // width, _MIN_BLOCK_ROWS)
    if step * n > _BLOCK_CELLS:
        return _first_row_forked(hi, a, half, workers)
    # Rows k0..k0+rows-1 share one table, row r keyed into bins
    # [r * width, (r+1) * width). The rectangle (rows, n - k0) overhangs the
    # shorter rows; the pad value sends those cells past rows * width, each
    # to a bin of its own (below 2 * step * width), as a[x] differs for the
    # cells of one row.
    step = min(step, half)
    hi = np.concatenate((hi, np.full(step, (step - 1) * width + n, dtype=np.int64)))
    offsets = np.arange(0, step * width, width, dtype=np.int64)[:, None]
    seen = np.zeros(2 * step * width, dtype=np.uint8)
    s = hi.strides[0]
    k0 = 1
    while k0 <= half:
        rows = min(step, half + 1 - k0)
        m = n - k0
        keys = as_strided(hi[k0:], (rows, m), (s, s), writeable=False) - a[:m]
        keys += offsets[:rows]
        seen[keys.ravel()] = 1
        if np.count_nonzero(seen) < keys.size:
            return _first_row_scatter(hi, a, k0, k0 + rows - 1)
        seen.fill(0)
        k0 += rows
    return 0


def _first_row_scatter(hi: np.ndarray, a: np.ndarray, k_lo: int, k_hi: int) -> int:
    """First k in k_lo..k_hi whose keys hi[x+k] - a[x], x < n - k, repeat, or 0.

    hi is a + n (possibly padded past n); each row is scattered into a
    reused table of 2n bytes and its marked bins counted.
    """
    n = len(a)
    seen = np.zeros(2 * n, dtype=np.uint8)
    buf = np.empty(n, dtype=np.int64)
    for k in range(k_lo, k_hi + 1):
        m = n - k
        np.subtract(hi[k : k + m], a[:m], out=buf[:m])
        seen[buf[:m]] = 1
        if np.count_nonzero(seen) < m:
            return k
        seen.fill(0)
    return 0


def _fork_map(task: Callable[[int], Sequence[int]], count: int, width: int,
              workers: int) -> Iterator[np.ndarray]:
    """Yield task(0), ..., task(count - 1) in order, as int64 rows of `width` entries.

    Up to min(workers, CPUs, count) processes share the tasks; with one,
    nothing forks. Every index goes into one pipe before any fork, and the
    calling process and its children take indices until the pipe is empty,
    each writing task i's row into a shared anonymous mmap with its first
    entry last. The rows are read once every child is reaped. A row whose
    first entry is still -1 (its process died or raised, its index did not
    fit the pipe, or the task returned -1) is computed by the caller only
    when it is reached, so a task's exception reaches the caller as itself.
    With no tasks it yields nothing, and maps, pipes and forks nothing.
    """
    if not count:
        return
    processes = min(workers, os.cpu_count() or 1, count)
    out = np.frombuffer(mmap.mmap(-1, 8 * count * width), dtype=np.int64).reshape(count, width)
    out[:, 0] = -1
    r, w = os.pipe()

    def drain() -> None:
        while token := os.read(r, 4):
            i = int.from_bytes(token, "little")
            row = np.asarray(task(i), dtype=np.int64)
            out[i, 1:] = row[1:]
            out[i, 0] = row[0]

    children = []
    try:
        try:
            os.set_blocking(w, False)
            os.write(w, np.arange(count, dtype="<u4").tobytes())
        except BlockingIOError:
            pass
        finally:
            os.close(w)
        for _ in range(processes - 1):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    drain()
                finally:
                    os._exit(0)
            children.append(pid)
        drain()
    finally:
        # On an error here, empty the queue so the children stop soon.
        while os.read(r, 1 << 16):
            pass
        os.close(r)
        for pid in children:
            os.waitpid(pid, 0)
    for i in range(count):
        yield out[i] if out[i, 0] != -1 else np.asarray(task(i), dtype=np.int64)


def _first_row_forked(hi: np.ndarray, a: np.ndarray, half: int, workers: int) -> int:
    """_first_row_scatter(hi, a, 1, half), shared among up to `workers` processes.

    The caller's process checks rows 1.._PARENT_ROWS alone; `_fork_map`
    shares the chunks after them. A chunk that starts above the least
    colliding row found so far returns -1 unchecked. It lies after the first
    colliding row's chunk, where the reading stops, so it is never redone.
    """
    n = len(a)
    k = _first_row_scatter(hi, a, 1, min(_PARENT_ROWS, half))
    if k or half <= _PARENT_ROWS:
        return k
    rows = np.arange(_PARENT_ROWS + 1, half + 1)
    before = np.cumsum(n - rows) - (n - rows)  # cells in the rows ahead of each row
    starts = rows[np.flatnonzero(np.diff(before // _CHUNK_CELLS, prepend=-1))].tolist() + [half + 1]
    least = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    least[0] = half + 1

    def chunk(c: int) -> tuple[int]:
        if starts[c] > least[0]:
            return (-1,)
        k = _first_row_scatter(hi, a, starts[c], starts[c + 1] - 1)
        if k and k < least[0]:
            least[0] = k
        return (k,)

    return next((int(k) for (k,) in _fork_map(chunk, len(starts) - 1, 1, workers) if k), 0)


def is_costas(perm: Sequence[int]) -> bool:
    """True iff perm is a Costas permutation. Permutations of size <= 2 always are.

    Raises LimitTooLarge above n = COSTAS_CAP and NotAPermutation for anything
    that is not a permutation of 1..n.
    """
    return _first_colliding_row(_permutation(perm, COSTAS_CAP)) == 0


def difference_table(perm: Sequence[int]) -> list[list[int]]:
    """Row k (at index k-1) lists f(x+k) - f(x) for x = 1..n-k.

    Raises LimitTooLarge above n = _TABLE_CAP and NotAPermutation for anything
    that is not a permutation of 1..n.
    """
    a = _permutation(perm, _TABLE_CAP, "difference table")
    return [(a[k:] - a[:-k]).tolist() for k in range(1, len(a))]


def first_collision(
    perm: Sequence[int], workers: int = 1
) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (k, x, y) with f(x+k) - f(x) = f(y+k) - f(y), or None.

    x and y are 1-based column indices with x < y. Same limits as is_costas.
    With workers > 1, a check above n = 2048 may fork up to workers - 1
    processes (no more than the CPUs allow); the answer does not depend on it.
    """
    a = _permutation(perm, COSTAS_CAP)
    k = _first_colliding_row(a, workers)
    if k == 0:
        return None
    # In a stable sort, equal entries keep column order, so each adjacent
    # equal pair is an occurrence and the next one. The smallest x with a
    # later repeat is the first of such a pair, and y is its partner.
    d = a[k:] - a[:-k]
    order = np.argsort(d, kind="stable")
    d = d[order]
    pairs = np.flatnonzero(d[1:] == d[:-1])
    i = pairs[np.argmin(order[pairs])]
    return (k, int(order[i]) + 1, int(order[i + 1]) + 1)


def enumerate_costas(n: int) -> list[list[int]]:
    """All Costas permutations of size n in lexicographic order. Capped at n = 8.

    Filters all n! permutations, n! * n * 8 bytes (2.6 MB at the cap): a
    permutation is kept when each difference row k <= (n-1)/2 has distinct
    entries, the half-triangle argument of `_first_colliding_row`.
    """
    if not 1 <= n <= _ENUM_CAP:
        raise SizeTooLarge(f"exhaustive enumeration supports 1..{_ENUM_CAP}, got {n}")
    count = math.factorial(n)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(1, n + 1))),
        dtype=np.int64, count=n * count,
    ).reshape(count, n)
    for k in range(1, (n - 1) // 2 + 1):
        d = np.sort(perms[:, k:] - perms[:, :-k], axis=1)
        perms = perms[(d[:, 1:] != d[:, :-1]).all(axis=1)]
    return perms.tolist()


def remove_leading(perm: Sequence[int], t: int) -> list[int]:
    """Drop the first t columns and renumber, assuming the t x t corner is closed.

    Requires f to map {1..t} onto {1..t}; the result is the permutation
    x -> f(x + t) - t of size n - t. Raises BlockNotClosed otherwise.
    """
    a = _permutation(perm)
    if not 0 <= t <= len(a):
        raise ValueError(f"block size {t} outside 0..{len(a)}")
    return _drop_corner(a, t).tolist()
