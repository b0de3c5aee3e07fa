"""Costas array predicates, difference tables, and exhaustive enumeration.

A permutation f of {1..n} (column x holds a dot in row f(x)) is a Costas
array when all n(n-1)/2 difference vectors (j - i, f(j) - f(i)) for i < j
are pairwise distinct. Equivalently, within each row k = j - i of the
difference table the entries are distinct; that is the form checked here.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
# byte table marks m bins. Up to n = 1024 the kernel keys blocks of
# _BLOCK_BINS // (2n) >= 16 rows into one table of at most 2 * _BLOCK_BINS
# bytes; beyond that it scatters and counts one row at a time into 2n bytes.
_BLOCK_BINS = 1 << 15
_MIN_BLOCK_ROWS = 16


def _permutation(
    perm: Sequence[int], cap: Optional[int] = None, what: str = "Costas check"
) -> np.ndarray:
    """perm as an int64 array. Raises LimitTooLarge above cap (checked first), then
    NotAPermutation unless perm is a permutation of 1..n made of ints, not bools."""
    seq = list(perm)
    n = len(seq)
    if cap is not None and n > cap:
        raise LimitTooLarge(f"{what} capped at n = {cap}, got n = {n}")
    if not set(map(type, seq)) <= {int}:
        # Only to name the bad entry; int subclasses except bool are integers.
        for v in seq:
            if not isinstance(v, int) or isinstance(v, bool):
                raise NotAPermutation(f"non-integer entry {v!r}")
    try:
        a = np.array(seq, dtype=np.int64)
        # n entries are a permutation of 1..n iff each of 1..n occurs.
        seen = np.zeros(n + 2, dtype=bool)
        seen[np.clip(a, 0, n + 1)] = True
        if seen[1 : n + 1].all():
            return a
    except OverflowError:  # an entry beyond int64 is beyond n too
        pass
    raise NotAPermutation(f"expected a permutation of 1..{n}")


def _drop_corner(a: np.ndarray, t: int) -> np.ndarray:
    """x -> f(x + t) - t for a permutation array a, in O(t): the t x t corner
    of a permutation is closed iff its first t columns lie in rows 1..t."""
    bad = np.flatnonzero(a[:t] > t)
    if bad.size:
        raise BlockNotClosed(f"column {bad[0] + 1} breaks the {t} x {t} corner block")
    return a[t:] - t


def _first_colliding_row(a: np.ndarray) -> int:
    """Smallest k whose difference row f(x+k) - f(x) repeats an entry, or 0 if none.

    a is an int64 array already known to be a permutation of 1..n.
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
    if _BLOCK_BINS // width < _MIN_BLOCK_ROWS:
        return _first_row_scatter(hi, a, 1, half)
    # Rows k0..k0+rows-1 share one table, row r keyed into bins
    # [r * width, (r+1) * width). The rectangle (rows, n - k0) overhangs the
    # shorter rows; the pad value sends those cells past rows * width, each
    # to a bin of its own (below 2 * step * width), as a[x] differs for the
    # cells of one row.
    step = min(_BLOCK_BINS // width, half)
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


def first_collision(perm: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (k, x, y) with f(x+k) - f(x) = f(y+k) - f(y), or None.

    x and y are 1-based column indices with x < y. Same limits as is_costas.
    """
    a = _permutation(perm, COSTAS_CAP)
    k = _first_colliding_row(a)
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
    """All Costas permutations of size n in lexicographic order. Capped at n = 8."""
    if not 1 <= n <= _ENUM_CAP:
        raise SizeTooLarge(f"exhaustive enumeration supports 1..{_ENUM_CAP}, got {n}")
    out: list[list[int]] = []
    perm: list[int] = []
    used = [False] * (n + 1)
    seen = [bytearray(2 * n + 1) for _ in range(n)]

    def extend() -> None:
        x = len(perm)
        if x == n:
            out.append(perm.copy())
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            marks = []
            ok = True
            for k in range(1, x + 1):
                d = v - perm[x - k] + n
                row = seen[k]
                if row[d]:
                    ok = False
                    break
                marks.append((row, d))
            if not ok:
                continue
            for row, d in marks:
                row[d] = 1
            used[v] = True
            perm.append(v)
            extend()
            perm.pop()
            used[v] = False
            for row, d in marks:
                row[d] = 0

    extend()
    return out


def remove_leading(perm: Sequence[int], t: int) -> list[int]:
    """Drop the first t columns and renumber, assuming the t x t corner is closed.

    Requires f to map {1..t} onto {1..t}; the result is the permutation
    x -> f(x + t) - t of size n - t. Raises BlockNotClosed otherwise.
    """
    a = _permutation(perm)
    if not 0 <= t <= len(a):
        raise ValueError(f"block size {t} outside 0..{len(a)}")
    return _drop_corner(a, t).tolist()
