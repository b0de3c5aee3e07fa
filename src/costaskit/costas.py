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

# Up to n = 1024 the kernel checks rows in blocks of _BLOCK_BINS // (2n) >= 16
# rows per np.bincount; beyond that one bincount per row is faster. A block's
# bincount spans at most about 2 * _BLOCK_BINS bins, which bounds its memory.
_BLOCK_BINS = 1 << 15
_MIN_BLOCK_ROWS = 16


def _validated(perm: Sequence[int]) -> list[int]:
    seq = list(perm)
    for v in seq:
        if not isinstance(v, int) or isinstance(v, bool):
            raise NotAPermutation(f"non-integer entry {v!r}")
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise NotAPermutation(f"expected a permutation of 1..{len(seq)}")
    return seq


def _checked_array(perm: Sequence[int]) -> np.ndarray:
    seq = list(perm)
    if len(seq) > COSTAS_CAP:
        raise LimitTooLarge(f"Costas check capped at n = {COSTAS_CAP}, got n = {len(seq)}")
    return np.asarray(_validated(seq), dtype=np.int64)


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
        for k in range(1, half + 1):
            if np.bincount(hi[k:] - a[:-k]).max() > 1:
                return k
        return 0
    # Rows k0..k0+rows-1 share one bincount, row r keyed into bins
    # [r * width, (r+1) * width). The rectangle (rows, n - k0) overhangs the
    # shorter rows; the pad value sends those cells past rows * width, each
    # to a bin of its own, as a[x] differs for the cells of one row.
    step = min(_BLOCK_BINS // width, half)
    hi = np.concatenate((hi, np.full(step, (step - 1) * width + n, dtype=np.int64)))
    offsets = np.arange(0, step * width, width, dtype=np.int64)[:, None]
    s = hi.strides[0]
    k0 = 1
    while k0 <= half:
        rows = min(step, half + 1 - k0)
        m = n - k0
        keys = as_strided(hi[k0:], (rows, m), (s, s), writeable=False) - a[:m]
        keys += offsets[:rows]
        counts = np.bincount(keys.ravel())
        if counts.max() > 1:
            return k0 + int(np.argmax(counts > 1)) // width
        k0 += rows
    return 0


def is_costas(perm: Sequence[int]) -> bool:
    """True iff perm is a Costas permutation. Permutations of size <= 2 always are.

    Raises LimitTooLarge above n = COSTAS_CAP and NotAPermutation for anything
    that is not a permutation of 1..n.
    """
    return _first_colliding_row(_checked_array(perm)) == 0


def difference_table(perm: Sequence[int]) -> list[list[int]]:
    """Row k (at index k-1) lists f(x+k) - f(x) for x = 1..n-k."""
    seq = _validated(perm)
    n = len(seq)
    return [[seq[x + k] - seq[x] for x in range(n - k)] for k in range(1, n)]


def first_collision(perm: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (k, x, y) with f(x+k) - f(x) = f(y+k) - f(y), or None.

    x and y are 1-based column indices with x < y. Same limits as is_costas.
    """
    a = _checked_array(perm)
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
    seq = _validated(perm)
    n = len(seq)
    if not 0 <= t <= n:
        raise ValueError(f"block size {t} outside 0..{n}")
    for x in range(1, n + 1):
        if (x <= t) != (seq[x - 1] <= t):
            raise BlockNotClosed(f"column {x} breaks the {t} x {t} corner block")
    return [v - t for v in seq[t:]]
