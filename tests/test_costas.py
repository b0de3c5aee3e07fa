"""Costas predicate, difference tables, enumeration, block removal."""

from __future__ import annotations

import json
import mmap
import numbers
import os
import time
from contextlib import contextmanager
from enum import IntEnum
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from costaskit import costas
from costaskit.cli import main
from costaskit.constructions import lempel_l2, welch_w1, welch_w2
from costaskit.costas import (
    COSTAS_CAP,
    BlockNotClosed,
    NotAPermutation,
    SizeTooLarge,
    difference_table,
    enumerate_costas,
    first_collision,
    is_costas,
    remove_leading,
)
from costaskit.ff import LimitTooLarge, least_primitive, make_field, prime_power

KNOWN_COSTAS = [
    [],
    [1],
    [1, 2],
    [2, 1, 3],
    [5, 3, 2, 7, 1, 8, 4, 6, 9],
    [2, 1, 5, 8, 3, 9, 7, 4, 6],
    [3, 2, 6, 4, 5, 1],
]

KNOWN_NOT_COSTAS = [
    [1, 2, 3],
    [3, 4, 1, 2],
    [1, 3, 2, 4],
]


@pytest.mark.parametrize("perm", KNOWN_COSTAS)
def test_known_costas(perm):
    assert is_costas(perm)
    assert first_collision(perm) is None


@pytest.mark.parametrize("perm", KNOWN_NOT_COSTAS)
def test_known_not_costas(perm):
    assert not is_costas(perm)
    assert first_collision(perm) is not None


def test_not_a_permutation():
    for bad in ([1, 1], [0, 1], [1, 3], [2], ["a", "b"], [True, 2]):
        with pytest.raises(NotAPermutation):
            is_costas(bad)
        with pytest.raises(NotAPermutation):
            first_collision(bad)


_API = (is_costas, first_collision, difference_table)


@pytest.mark.parametrize("perm", [
    [2, 1, 3], [1, 2, 3, 4], [2, 1, 5, 8, 3, 9, 7, 4, 6], KNOWN_NOT_COSTAS[0], [], [1, 1], [0, 1], [2, 3],
])
def test_numpy_integers_are_integers(perm):
    # numpy integer entries give the plain list's answers and exceptions,
    # as integer arrays of each width and sign or as a list of np.int32,
    # and the caller's array is left as it was
    arrays = [np.array(perm, dtype=d) for d in (np.int64, np.int32, np.uint64, np.uint8)]
    for same in (*arrays, [np.int32(v) for v in perm]):
        before = list(same)
        for fn in _API:
            assert _outcome(fn, same) == _outcome(fn, perm), (fn.__name__, same)
        for t in range(len(perm) + 1):
            assert _outcome(remove_leading, same, t) == _outcome(remove_leading, perm, t)
        assert list(same) == before
    # bool and float arrays are refused like their entries; an empty one has none
    refused = (np.array(perm, dtype=bool), np.array(perm, dtype=np.float64)) if perm else ()
    for other in refused:
        for fn in _API:
            with pytest.raises(NotAPermutation):
                fn(other)
    # an integer array above the cap is refused by size before its entries
    with pytest.raises(LimitTooLarge):
        is_costas(np.zeros(COSTAS_CAP + 1, dtype=np.int64))


permutations_st = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


@settings(max_examples=300)
@given(permutations_st)
def test_first_collision_consistent(perm):
    perm = list(perm)
    hit = first_collision(perm)
    if hit is None:
        assert is_costas(perm)
    else:
        k, x, y = hit
        assert 1 <= k < len(perm)
        assert 1 <= x < y <= len(perm) - k
        assert perm[x + k - 1] - perm[x - 1] == perm[y + k - 1] - perm[y - 1]
        assert not is_costas(perm)


class _Row(IntEnum):
    ONE = 1
    TWO = 2


_ODD_ENTRIES = st.sampled_from([
    True, False, 1.0, 2.5, "1", None, _Row.ONE, _Row.TWO, np.int64(1),
    np.int32(2), np.bool_(True), np.float64(1.0), np.uint64(2**64 - 1),
    2**63, 2**64 + 1, -(2**63) - 1, 0, -1, -7,
])


@st.composite
def _validator_inputs(draw):
    # A permutation with a few entries overwritten or appended: duplicates,
    # out-of-range and non-integer values, and int subclasses.
    perm = list(draw(st.integers(0, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))))
    entry = _ODD_ENTRIES | st.integers(-2, 11)
    for i, v in draw(st.lists(st.tuples(st.integers(0, 63), entry), max_size=3)):
        if perm and i % 2:
            perm[i % len(perm)] = v
        else:
            perm.append(v)
    return perm


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as e:  # NotAPermutation, LimitTooLarge, BlockNotClosed
        return type(e), str(e)


@settings(max_examples=500)
@given(st.one_of(_validator_inputs(), permutations_st), st.integers(-1, 10))
@example([], 0)
@example([_Row.TWO, _Row.ONE, 3], 2)
@example([2, 1, 2**63], 2)
@example([0] * (COSTAS_CAP + 1), 0)
@example(["a"] * (COSTAS_CAP + 1), 1)
def test_validator_matches_list_reference(perm, t):
    perm = list(perm)
    pairs = [
        (is_costas, oracles.reference_is_costas),
        (first_collision, oracles.reference_first_collision),
        (difference_table, oracles.reference_difference_table),
    ]
    for fn, ref in pairs:
        assert _outcome(fn, perm) == _outcome(ref, perm), fn.__name__
    assert _outcome(remove_leading, perm, t) == _outcome(oracles.reference_remove_leading, perm, t)
    # the same integers as an int64 or a uint64 array, where they fit, take
    # the array path and give the list's answers and exceptions
    if all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in perm):
        values = [int(v) for v in perm]
        for dtype, lo, hi in ((np.int64, -(2**63), 2**63), (np.uint64, 0, 2**64)):
            if all(lo <= v < hi for v in values):
                array = np.array(values, dtype=dtype)
                for fn, _ in pairs:
                    assert _outcome(fn, array) == _outcome(fn, perm), (fn.__name__, dtype)
                assert _outcome(remove_leading, array, t) == _outcome(remove_leading, perm, t), dtype


@lru_cache(maxsize=None)
def _small_costas(n):
    return enumerate_costas(n)


@lru_cache(maxsize=None)
def _welch(method, p):
    build = welch_w1 if method == "w1" else welch_w2
    return build(p, least_primitive(make_field(p)))


def _with_swaps(perm, swaps):
    perm = list(perm)
    for i, j in swaps:
        if perm:
            i, j = i % len(perm), j % len(perm)
            perm[i], perm[j] = perm[j], perm[i]
    return perm


_WELCH = [(m, p) for m in ("w1", "w2") for p in (5, 7, 11, 13, 23, 31, 37, 47, 53, 61)]

costas_st = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.sampled_from(_small_costas(n))),
    st.sampled_from(_WELCH).map(lambda mp: _welch(*mp)),
)
near_costas_st = st.builds(
    _with_swaps, costas_st, st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=2)
)
up_to_64_st = st.integers(0, 64).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


@settings(max_examples=400)
@given(st.one_of(permutations_st, up_to_64_st, near_costas_st))
def test_matches_naive_oracle(perm):
    perm = list(perm)
    assert is_costas(perm) == oracles.naive_is_costas(perm)
    assert first_collision(perm) == oracles.naive_first_collision(perm)


# (bins, min rows): blocks of 2 rows for n <= 8 with partial last blocks;
# blocks for n <= 32 and one scatter per row above; one scatter per row.
# A block cap of bins // 2 cells keeps blocks of at least min rows.
_TINY_BLOCKS = [(32, 2), (256, 4), (1, 1)]


@pytest.mark.parametrize("bins,min_rows", _TINY_BLOCKS)
def test_kernel_exhaustive_with_tiny_blocks(bins, min_rows, monkeypatch):
    monkeypatch.setattr(costas, "_BLOCK_BINS", bins)
    monkeypatch.setattr(costas, "_MIN_BLOCK_ROWS", min_rows)
    monkeypatch.setattr(costas, "_BLOCK_CELLS", bins // 2)
    for n in range(8):
        for perm in permutations(range(1, n + 1)):
            assert first_collision(perm) == oracles.naive_first_collision(list(perm))


@pytest.mark.parametrize("bins,min_rows", _TINY_BLOCKS)
@settings(max_examples=150)
@given(perm=st.one_of(up_to_64_st, costas_st, near_costas_st))
def test_kernel_with_tiny_blocks_matches_naive(bins, min_rows, perm):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(costas, "_BLOCK_BINS", bins)
        mp.setattr(costas, "_MIN_BLOCK_ROWS", min_rows)
        mp.setattr(costas, "_BLOCK_CELLS", bins // 2)
        assert first_collision(perm) == oracles.naive_first_collision(perm)


def test_kernel_across_the_block_switch():
    # n <= 2048 runs row blocks of 16 or more rows, and the last block is
    # partial (n = 2038: 1018 rows, 2048: 1023); n > 2048 runs one scatter
    # per row.
    assert costas._BLOCK_BINS // (2 * 1024) == costas._MIN_BLOCK_ROWS
    assert costas._MIN_BLOCK_ROWS * 2048 == costas._BLOCK_CELLS
    for method, p in (("w1", 2039), ("w1", 2053), ("w2", 2053)):
        perm = _welch(method, p)
        assert is_costas(perm) and first_collision(perm) is None
        for swaps in ([(0, 1)], [(5, 1400)], [(3, 1800), (17, 800)]):
            bad = _with_swaps(perm, swaps)
            assert first_collision(bad) == oracles.naive_first_collision(bad)
    for n in (2047, 2048, 2049, 2050):
        perm = list(range(n, 0, -1))
        assert first_collision(perm) == (1, 1, 2)
        perm = [*range(2, n + 1, 2), *range(1, n + 1, 2)]
        assert first_collision(perm) == oracles.naive_first_collision(perm)


@pytest.mark.parametrize("p,swap,hit", [
    (1019, (49, 418), (2, 242, 417)),  # n = 1018, blocks of 16 rows or more
    (1031, (440, 550), (2, 441, 539)),  # n = 1030, blocks of 16 rows
    (2053, (240, 611), (2, 239, 248)),  # n = 2052, one row at a time
])
def test_collision_past_row_one_with_default_blocks(p, swap, hit):
    # Row 1 of these swapped Welch arrays is clean, so a kernel that kept
    # row 1's marks while checking row 2 would miss the collision.
    bad = _with_swaps(_welch("w1", p), [swap])
    assert first_collision(bad) == oracles.naive_first_collision(bad) == hit
    assert not is_costas(bad)


@contextmanager
def _forked_rows(parent_rows=2, chunk_cells=256):
    """Send every n >= 3 down the per-row path, with the given parent prefix
    and chunk size, on up to 3 processes however many CPUs there are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(costas, "_BLOCK_CELLS", 0)
        mp.setattr(costas, "_PARENT_ROWS", parent_rows)
        mp.setattr(costas, "_CHUNK_CELLS", chunk_cells)
        mp.setattr(os, "cpu_count", lambda: 3)
        yield mp


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@lru_cache(maxsize=None)
def _lempel(q):
    field = make_field(*prime_power(q))
    return lempel_l2(field, least_primitive(field))


# n = 51..305: with 2 parent rows and chunks of 256 cells, 4 to 133 chunks.
_CHUNKED_ST = st.one_of(
    st.sampled_from([("w2", 53), ("w1", 101), ("w1", 211), ("w2", 307)]).map(
        lambda mp: _welch(*mp)),
    st.sampled_from([64, 81, 125, 169, 243, 289]).map(_lempel),
)


@settings(max_examples=60)
@given(perm=_CHUNKED_ST, swap=st.none() | st.tuples(st.integers(0, 400), st.integers(0, 400)))
@example(perm=_welch("w2", 53), swap=(0, 21))  # first collision in row 2, the parent's last
def test_forked_check_matches_naive(perm, swap):
    perm = _with_swaps(perm, [swap] if swap else [])
    want = oracles.naive_first_collision(perm)
    with _forked_rows():
        for workers in (1, 2, 3):
            assert first_collision(perm, workers) == want
            _assert_no_child_left()


# Rows 1..5 are clean and row 6 = (n-1)/2 collides.
_LAST_ROW_ONLY = [1, 2, 7, 9, 4, 13, 3, 11, 8, 12, 10, 6, 5]


@pytest.mark.parametrize("perm_of, chunk", [
    (lambda: _with_swaps(_welch("w1", 53), [(2, 27)]), 1),  # row 3
    (lambda: _LAST_ROW_ONLY, -1),  # row 6
])
def test_forked_check_pinned_chunks(perm_of, chunk):
    # With one parent row and chunks of one cell, each chunk is one row from
    # 2. Every process records in shared memory the bounds it checks for
    # each chunk index it takes from the queue.
    perm = perm_of()
    want = oracles.naive_first_collision(perm)
    given = np.frombuffer(mmap.mmap(-1, 16 * len(perm)), dtype=np.int64).reshape(-1, 2)
    counts = []
    taking = {}
    fork_map, scatter = costas._fork_map, costas._first_row_scatter

    def record_map(task, count, width, workers):
        counts.append(count)

        def traced(c):
            taking["c"] = c
            return task(c)
        return fork_map(traced, count, width, workers)

    def record_scatter(hi, a, lo, top):
        if taking:
            given[taking["c"]] = lo, top
        return scatter(hi, a, lo, top)

    with _forked_rows(parent_rows=1, chunk_cells=1) as mp:
        mp.setattr(costas, "_fork_map", record_map)
        mp.setattr(costas, "_first_row_scatter", record_scatter)
        for workers in (2, 3):
            given.fill(0)
            taking.clear()
            assert first_collision(perm, workers) == want
            _assert_no_child_left()
            assert tuple(given[chunk % counts[-1]]) == (want[0], want[0])
            taken = np.flatnonzero(given[:, 0])
            assert (given[taken] == (taken + 2)[:, None]).all()
    assert counts == [(len(perm) - 1) // 2 - 1] * 2


def test_forked_check_smaller_row_wins():
    # Rows 3 and 4 both collide, in chunks 1 and 2. Row 3 is held back, so
    # another process answers row 4 first and lowers the shared hint to 4.
    perm = _with_swaps(_welch("w1", 61), [(0, 30)])
    want = oracles.naive_first_collision(perm)
    d = np.subtract(perm[4:], perm[:-4])
    assert want[0] == 3 and len(set(d.tolist())) < len(d)
    scatter = costas._first_row_scatter

    def hold_row_3(hi, a, lo, top):
        if lo == 3:
            time.sleep(0.05)
        return scatter(hi, a, lo, top)

    with _forked_rows(parent_rows=1, chunk_cells=1) as mp:
        mp.setattr(costas, "_first_row_scatter", hold_row_3)
        for workers in (2, 3):
            assert first_collision(perm, workers) == want
            _assert_no_child_left()


def test_forked_check_survives_dead_children():
    # Each child takes one chunk, marks its first row in shared memory and
    # exits 7 without answering it. The parent holds its first chunk until
    # every child has marked one, so each child takes a token. The parent
    # must then check those chunks itself.
    parent = os.getpid()
    scatter = costas._first_row_scatter
    taken = np.frombuffer(mmap.mmap(-1, 64), dtype=np.uint8)
    children = []
    statuses = []
    waitpid = os.waitpid

    def die_in_child(hi, a, lo, top):
        if os.getpid() != parent:
            taken[lo] = 1
            os._exit(7)
        if lo > 1 and children:
            want = children.pop()
            deadline = time.monotonic() + 30
            while np.count_nonzero(taken) < want:
                assert time.monotonic() < deadline, "a child never took a chunk"
                time.sleep(0.001)
        return scatter(hi, a, lo, top)

    def record_status(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    cases = [_welch("w1", 53), _with_swaps(_welch("w1", 61), [(0, 30)]), _LAST_ROW_ONLY]
    with _forked_rows(parent_rows=1, chunk_cells=1) as mp:
        mp.setattr(costas, "_first_row_scatter", die_in_child)
        mp.setattr(os, "waitpid", record_status)
        for perm in cases:
            for workers in (2, 3):
                taken.fill(0)
                children[:] = [workers - 1]
                assert first_collision(perm, workers) == oracles.naive_first_collision(perm)
    _assert_no_child_left()
    assert len(statuses) == 3 * (1 + 2)
    assert {os.waitstatus_to_exitcode(s) for s in statuses} == {7}


def test_forked_check_when_fork_fails(capsys, tmp_path):
    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    clean = _welch("w1", 61)
    bad = _with_swaps(clean, [(0, 30)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with _forked_rows(parent_rows=1, chunk_cells=1) as mp:
        mp.setattr(os, "fork", no_fork)
        assert first_collision(clean, 3) is None
        assert first_collision(bad, 3) == oracles.naive_first_collision(bad)
        mp.setenv("COSTAS_THREADS", "3")
        assert main(["verify", str(path)]) == 3
    k, x, y = oracles.naive_first_collision(bad)
    assert capsys.readouterr() == (f"not-costas k={k} x={x} y={y}\n", "")


def test_fork_map_of_no_tasks_starts_nothing(monkeypatch):
    # A zero-length mmap is EINVAL; with no tasks nothing is mapped, piped,
    # forked or run, whatever the worker count.
    def refused(*args):
        raise AssertionError("called with no tasks")

    for name in ("fork", "pipe"):
        monkeypatch.setattr(os, name, refused)
    monkeypatch.setattr(mmap, "mmap", refused)
    for workers in (1, 2, 64):
        assert list(costas._fork_map(refused, 0, 3, workers)) == []


def _half_triangle_lemma_holds(perm):
    hit = oracles.naive_first_collision(perm)
    if hit is None:
        return True
    k, x, y = hit
    # the partner collision: row y - x at columns x and x + k
    f = [0, *perm]
    assert f[y] - f[x] == f[y + k] - f[x + k]
    return k <= (len(perm) - 1) // 2


def test_half_triangle_lemma_exhaustive():
    for n in range(8):
        for perm in permutations(range(1, n + 1)):
            assert _half_triangle_lemma_holds(list(perm))


@settings(max_examples=200)
@given(st.one_of(up_to_64_st, near_costas_st))
def test_half_triangle_lemma_random(perm):
    assert _half_triangle_lemma_holds(perm)


def test_costas_check_cap():
    # The size check comes before validation: this list is not a permutation.
    too_long = [0] * (COSTAS_CAP + 1)
    with pytest.raises(LimitTooLarge):
        is_costas(too_long)
    with pytest.raises(LimitTooLarge):
        first_collision(too_long)


def test_difference_table_cap():
    cap = costas._TABLE_CAP
    with pytest.raises(LimitTooLarge, match=f"difference table capped at n = {cap}"):
        difference_table(range(1, cap + 2))
    table = difference_table(range(cap, 0, -1))
    assert len(table) == cap - 1 and table[-1] == [1 - cap]


def test_difference_table_shape_and_values():
    assert difference_table([2, 1, 3]) == [[-1, 2], [1]]
    perm = [5, 3, 2, 7, 1, 8, 4, 6, 9]
    table = difference_table(perm)
    assert len(table) == 8
    for k, row in enumerate(table, start=1):
        assert len(row) == len(perm) - k
        assert len(set(row)) == len(row)


def test_first_collision_lexicographic():
    # Row 1 has d = 1 at columns 1 and 3; lexicographically first pair wins.
    assert first_collision([3, 4, 1, 2]) == (1, 1, 3)
    assert first_collision([1, 2, 3]) == (1, 1, 2)


def test_enumeration_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 12, 5: 40, 6: 116, 7: 200, 8: 444}
    for n, count in expected.items():
        arrays = enumerate_costas(n)
        assert len(arrays) == count
        assert arrays == sorted(arrays)
        assert all(is_costas(a) for a in arrays)
    for n in (1, 2, 3, 4, 5, 6, 7):
        assert len(enumerate_costas(n)) == oracles.naive_costas_count(n)
    assert all(oracles.naive_is_costas(a) for a in enumerate_costas(8))


def test_enumeration_cap():
    with pytest.raises(SizeTooLarge):
        enumerate_costas(0)
    with pytest.raises(SizeTooLarge):
        enumerate_costas(9)


def _transpose(perm):
    out = [0] * len(perm)
    for x, v in enumerate(perm, start=1):
        out[v - 1] = x
    return out


def _hflip(perm):
    return list(reversed(perm))


def _vflip(perm):
    n = len(perm)
    return [n + 1 - v for v in perm]


def _dihedral_images(perm):
    images = []
    cur = perm
    for _ in range(4):
        images.append(cur)
        images.append(_transpose(cur))
        cur = _vflip(_transpose(cur))
    return images


def test_costas_invariant_under_dihedral_symmetries():
    for n in range(1, 7):
        arrays = enumerate_costas(n)
        pool = {tuple(a) for a in arrays}
        for a in arrays:
            images = _dihedral_images(a)
            assert len({tuple(i) for i in images}) <= 8
            for image in images:
                assert is_costas(image)
                assert tuple(image) in pool


@settings(max_examples=200)
@given(permutations_st)
def test_dihedral_invariance_random(perm):
    perm = list(perm)
    verdict = is_costas(perm)
    assert is_costas(_transpose(perm)) == verdict
    assert is_costas(_hflip(perm)) == verdict
    assert is_costas(_vflip(perm)) == verdict


def test_remove_leading():
    assert remove_leading([1, 4, 6, 2, 9, 3, 8, 7, 5], 1) == [3, 5, 1, 8, 2, 7, 6, 4]
    assert remove_leading([2, 1, 5, 8, 3, 9, 7, 4, 6], 2) == [3, 6, 1, 7, 5, 2, 4]
    assert remove_leading([2, 1, 3], 0) == [2, 1, 3]
    assert remove_leading([1, 2], 2) == []
    with pytest.raises(BlockNotClosed):
        remove_leading([2, 1, 3], 1)
    with pytest.raises(ValueError):
        remove_leading([1, 2], 3)
    with pytest.raises(ValueError):
        remove_leading([1, 2], -1)
    with pytest.raises(NotAPermutation):
        remove_leading([1, 1], 1)


@settings(max_examples=200)
@given(permutations_st, st.integers(min_value=0, max_value=7))
def test_remove_leading_preserves_costas(perm, t):
    perm = list(perm)
    if t > len(perm):
        return
    try:
        trimmed = remove_leading(perm, t)
    except BlockNotClosed:
        return
    assert sorted(trimmed) == list(range(1, len(perm) - t + 1))
    if is_costas(perm):
        assert is_costas(trimmed)
