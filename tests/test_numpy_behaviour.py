"""The numpy behaviours the library's bits rest on, each stated once.

The scan, the order-statistic Pfa product and FirstPassRule.integrate_rows
keep the bits of their scalar definitions only because numpy reduces,
selects and reads in certain ways. Each test below states one of them on
the smallest input whose bits differ when numpy behaves otherwise, so a
numpy that does not shows here, by name, before it shows as a pinned value
moving elsewhere. A new reliance on numpy's behaviour gets its test here.
"""

import functools
import math
import operator
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def hexed(values):
    return [v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


def test_axis_zero_multiply_reduce_into_a_slice_runs_row_after_row():
    # predictive._os_product reduces each chunk of (k, cells) factors over
    # axis 0 into a slice of its product: (a b) c, never a (b c) nor any
    # other order, whatever the cell count, one cell included
    rows = [5 / 19, 3 / 13, 3 / 17]
    sequential = functools.reduce(operator.mul, rows)
    others = [rows[0] * (rows[1] * rows[2]), (rows[0] * rows[2]) * rows[1],
              (rows[2] * rows[1]) * rows[0]]
    # the data tell the orders apart
    assert all(sequential != other for other in others)
    for cells in (1, 2):
        factors = np.repeat(np.array(rows)[:, None], cells, axis=1)
        out = np.full(cells + 2, 7.0)
        np.multiply.reduce(factors, axis=0, out=out[1:cells + 1])
        assert hexed(out) == hexed([7.0] + [sequential] * cells + [7.0])


def test_middle_axis_add_reduce_adds_one_pair_after_another():
    # numerics' qk21 sums reduce axis -2 of (pair, interval) and (row, pair,
    # interval) arrays, two intervals at least. Eight terms are the fewest
    # numpy's pairwise summation of a contiguous axis would regroup:
    # 1 + 2**-53 + ... rounds to 1 term by term, and to 1 + 3 * 2**-52 in
    # pairs
    terms = [1.0] + [2.0**-53] * 7
    sequential = functools.reduce(operator.add, terms)
    assert sequential == 1.0
    assert ((terms[0] + terms[1]) + (terms[2] + terms[3])) + (
        (terms[4] + terms[5]) + (terms[6] + terms[7])) != sequential
    pairs = np.repeat(np.array(terms)[:, None], 2, axis=1)
    for shape in ((8, 2), (1, 8, 2), (3, 8, 2)):
        values = np.ascontiguousarray(np.broadcast_to(pairs, shape))
        got = np.add.reduce(values, axis=-2)
        assert hexed(got) == hexed(np.full(got.shape, sequential)), shape


def test_fmax_returns_the_operand_that_is_not_nan():
    # a bayes_os scan's Pfa argument is np.fmax(z0 / g, 0.0, out=...): at
    # z0 = g = 0 the quotient is NaN and must read as 0
    x = np.array([math.nan, 2.0])
    np.fmax(x, 0.0, out=x)
    assert hexed(x) == hexed([0.0, 2.0])


def test_minimum_and_min_carry_a_nan():
    # the k-th smallest's joins are np.minimum, and the scan's profile check
    # is values.min() >= 0.0, which a NaN must fail, in either position
    for pair in ([math.nan, 0.0], [0.0, math.nan]):
        assert math.isnan(np.minimum(*pair))
        assert math.isnan(np.array(pair).min())


def test_partition_along_rows_works_in_place():
    # the long-window k-th smallest partitions each chunk of windows in
    # place and reads column k - 1
    windows = np.array([[3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
    assert windows.partition(1, axis=1) is None
    assert hexed(windows[:, 1]) == hexed([2.0, 2.0])


def test_frombuffer_of_packed_doubles_reads_them_read_only():
    # detectors._profile_values packs a list profile by struct.pack and
    # reads it back without a copy: the same bits, and not writable
    packed = struct.pack("3d", 5e-324, -0.0, 1e308)
    values = np.frombuffer(packed, float)
    assert values.dtype == np.float64
    assert hexed(values) == hexed([5e-324, -0.0, 1e308])
    assert not values.flags.writeable


def test_delete_on_a_sliding_window_chunk_gives_a_new_matrix():
    # the long-window k-th smallest builds each chunk of windows by deleting
    # the cell under test's column from a read-only sliding_window_view: the
    # values np.concatenate gave, in an array it may partition in place
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    block = sliding_window_view(samples, 3)
    windows = np.delete(block[0:2], 1, axis=1)
    assert hexed(windows) == hexed(np.concatenate((block[0:2, :1], block[0:2, 2:]), axis=1))
    assert windows.flags.writeable and not np.shares_memory(windows, samples)
    windows.partition(0, axis=1)
    assert hexed(samples) == hexed([1.0, 2.0, 3.0, 4.0])
