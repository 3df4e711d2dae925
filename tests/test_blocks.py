"""The blocked bulk passes against whole-array numpy references.

``hyptest.canonicalize`` (through ``_to_lattice_ints``) and
``covest._paired_estimates`` work through their input in blocks of
``pmv._BLOCK`` values with fixed scratch buffers.  These tests pin that
the blocks change nothing: outputs equal plain numpy references bit for
bit at sizes around the block boundary, an error keeps its class and
offender wherever the bad value sits, and memory stays at the outputs
plus a few blocks.
"""

import tracemalloc

import numpy as np
import pytest

from convstat import covest, hyptest, pmv
from convstat.cli import main
from convstat.errors import (
    ConvStatError,
    DomainError,
    LatticeViolation,
    NotPaired,
    SupportViolation,
)
from convstat.hyptest import SampleSet, canonicalize, subind_test
from convstat.pmv import (
    _BLOCK, MAX_SUPPORT, PMV, _products, empirical_pmv, multinomial_cov,
)

B = _BLOCK
SIZES = [1, B - 1, B, B + 1, 3 * B + 7]


def reference_canonicalize(raw):
    """Whole-array canonicalization: ``a_i * rint(value / zeta)`` shifted
    to minimum 0, for values known to lie on the lattice."""
    total = int(np.rint(raw.offset / raw.zeta))
    variables, lens = [], []
    for values, a in zip(raw.variables, raw.coeffs):
        scaled = values / raw.zeta
        rounded = np.rint(scaled)
        assert np.all(np.abs(scaled - rounded) <= 1e-9)
        mapped = a * rounded.astype(np.int64)
        tau = int(mapped.min())
        variables.append(mapped - tau)
        lens.append(int(mapped.max()) - tau)
        total += tau
    return variables, total, tuple(lens)


def reference_counts(table, lens=None):
    """Per-column counts and row-sum counts of an integral table."""
    columns = [np.asarray(c).astype(np.int64) for c in np.asarray(table).T]
    if lens is None:
        lens = [int(c.max()) for c in columns]
    counts = [np.bincount(c, minlength=r + 1) for c, r in zip(columns, lens)]
    sums = np.bincount(sum(columns), minlength=sum(lens) + 1)
    return counts, sums


def reference_error(table, lens=None):
    """The error ``empirical_pmv`` raises on the first bad column."""
    table = np.asarray(table)
    if lens is None:
        lens = [None] * table.shape[1]
    with pytest.raises(ConvStatError) as info:
        for column, r in zip(table.T, lens):
            column = np.ascontiguousarray(column)
            empirical_pmv(column, int(column.max()) if r is None else r)
    return type(info.value), str(info.value)


def raised(fn, *args):
    with pytest.raises(ConvStatError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def lattice_sample(n, seed):
    rng = np.random.default_rng(seed)
    variables = tuple(
        0.1 * (lo + rng.integers(0, r + 1, n))
        for lo, r in ((-3, 2), (7, 1), (0, 4))
    )
    return SampleSet(variables=variables, coeffs=(3, -2, 1), offset=0.3,
                     zeta=0.1)


class TestCanonicalizeBlocks:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_whole_array_reference(self, n):
        raw = lattice_sample(n, n)
        got = canonicalize(raw)
        variables, total, lens = reference_canonicalize(raw)
        assert got.total_offset == total
        assert got.support_lens == lens
        for a, b in zip(got.variables, variables):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)

    def test_offender_in_a_later_block(self):
        values = np.zeros(3 * B + 7)
        values[2 * B + 3] = 0.25
        with pytest.raises(LatticeViolation, match=(
                r"value 0\.25 is not a multiple of zeta=0\.5")):
            canonicalize(SampleSet(variables=(values,), zeta=0.5))

    @pytest.mark.parametrize("first", [0.25, 2.0**60])
    def test_nan_after_an_earlier_failure_is_a_domain_error(self, first):
        # an off-lattice or too large value in block 0, NaN in block 2:
        # the whole array decides, and a non-finite value comes first
        values = np.zeros(3 * B + 7)
        values[5] = first
        values[2 * B + 1] = np.nan
        with pytest.raises(DomainError, match="non-finite value nan"):
            canonicalize(SampleSet(variables=(values,), zeta=0.5))


class TestLatticeOverflow:
    @pytest.mark.parametrize("values, coeffs", [
        ([2.0**61, 0.0], (8,)),   # wrapped to [0, 0] with support (0,)
        ([1e19, 0.0], (1,)),      # wrapped the total offset to -2**63
        ([-2.0**54, 0.0], (1,)),
    ])
    def test_beyond_2_53_lattice_units_is_refused(self, values, coeffs):
        with pytest.raises(LatticeViolation, match="2\\*\\*53 lattice units"):
            canonicalize(SampleSet((values,), coeffs=coeffs))

    @pytest.mark.parametrize("values, coeffs", [
        ([2.0**50, 0.0], (2**14,)),           # a_i * x is 2**64
        ([-2.0**52, 2.0**52], (2**10,)),      # each fits, the range does not
        ([0.0, 1.0], (2**70,)),               # the coefficient itself
    ])
    def test_products_beyond_int64_are_refused(self, values, coeffs):
        with pytest.raises(LatticeViolation, match="int64"):
            canonicalize(SampleSet((values,), coeffs=coeffs))

    def test_largest_accepted_values_are_exact(self):
        out = canonicalize(SampleSet(([2.0**53, -2.0**53],), coeffs=(-511,)))
        assert out.variables[0].tolist() == [0, 1022 * 2**53]
        assert out.total_offset == -511 * 2**53
        assert out.support_lens == (1022 * 2**53,)

    def test_offset_beyond_2_53_is_refused(self):
        with pytest.raises(LatticeViolation, match="offset a_0"):
            canonicalize(SampleSet(([0.0, 1.0],), offset=1e19))

    def test_cli_exits_2(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("variable_id,value\nA1,0\nA1,1e19\nA2,1\nA2,0\n")
        assert main(["gof", str(data), "--z", "0.25,0.5,0.25"]) == 2
        assert "lattice units" in capsys.readouterr().err
        paired = tmp_path / "paired.csv"
        paired.write_text("X1,X2\n0,1\n1e19,0\n1,1\n")
        assert main(["subind", str(paired)]) == 2
        err = capsys.readouterr().err
        assert "paired observations must be integers" in err


def table_of(m, seed, dtype=np.int64, order="C"):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, [3, 2, 5], size=(m, 3)).astype(dtype)
    return np.asarray(table, order=order)


class TestPairedBlocks:
    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("dtype, order", [
        (np.int64, "C"), (np.int64, "F"), (np.uint8, "C"), (np.float64, "C"),
    ])
    @pytest.mark.parametrize("lens", [None, [2, 4, 6]])
    def test_matches_whole_array_reference(self, m, dtype, order, lens):
        table = table_of(m, m, dtype, order)
        epmvs, z_hat, ups, conv = covest._paired_estimates(table, lens)
        counts, sums = reference_counts(table, lens)
        for e, c in zip(epmvs, counts):
            assert e.n == m
            assert np.array_equal(e.pmv.probs, PMV(c / m).probs)
        assert z_hat.n == m
        z = PMV(sums / m)
        assert np.array_equal(z_hat.pmv.probs, z.probs)
        probs = [PMV(c / m).probs for c in counts]
        want = multinomial_cov(z) - covest._weighted_cov(probs)
        assert np.array_equal(ups, want)
        assert np.array_equal(conv, _products(probs)[1])

    def test_negative_entry_in_a_later_block(self):
        table = table_of(3 * B + 7, 1)
        table[2 * B + 5, 1] = -1
        assert raised(covest._paired_estimates, table) == (
            reference_error(table))
        assert raised(subind_test, table)[0] is SupportViolation

    def test_entry_above_support_lens_quotes_the_global_range(self):
        table = table_of(3 * B + 7, 2)
        table[2 * B + 5, 2] = 9
        lens = [2, 1, 4]
        got = raised(covest._paired_estimates, table, lens)
        assert got == reference_error(table, lens)
        assert got[0] is SupportViolation and "got range [0, 9]" in got[1]

    def test_first_bad_column_wins_over_an_earlier_block(self):
        # column 2 fails in block 0, column 0 only in block 2
        table = table_of(3 * B + 7, 3)
        table[0, 2] = 9
        table[2 * B + 5, 0] = -4
        lens = [2, 1, 4]
        got = raised(covest._paired_estimates, table, lens)
        assert got == reference_error(table, lens)
        assert "got range [-4, 2]" in got[1]

    def test_float_table_with_a_fraction(self):
        table = table_of(3 * B + 7, 4, np.float64)
        table[B + 3, 1] = 0.5
        got = raised(covest._paired_estimates, table)
        assert got == reference_error(table)
        assert got == (SupportViolation, "observations must be integers")

    def test_bad_support_degree_after_a_bad_column(self):
        table = table_of(2 * B, 5)
        table[B + 1, 0] = -1
        lens = [2, 2.5, 4]
        assert raised(covest._paired_estimates, table, lens) == (
            reference_error(table, lens))

    @pytest.mark.parametrize("lens, total", [(None, 9), ([6, 4], 10)])
    def test_row_sums_beyond_the_support_cap(self, monkeypatch, lens, total):
        # a cap of 8 stands in for 2**24, whose counts would take 128 MB
        monkeypatch.setattr(pmv, "MAX_SUPPORT", 8)
        monkeypatch.setattr(covest, "MAX_SUPPORT", 8)
        table = np.array([[5, 0], [0, 4], [1, 1]])
        with pytest.raises(SupportViolation, match=rf"0\.\.8, got {total}$"):
            covest._paired_estimates(table, lens)

    @pytest.mark.parametrize("dtype", [complex, str])
    def test_non_real_table_is_refused(self, dtype):
        with pytest.raises(NotPaired, match="must be real numbers"):
            subind_test(table_of(10, 8).astype(dtype))


class TestPearsonSupportCap:
    def peak(self, fn, *args):
        tracemalloc.start()
        try:
            with pytest.raises(SupportViolation,
                               match="support degree r must lie in"):
                fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pearson_ed_refuses_before_allocating(self):
        assert self.peak(hyptest.pearson_ed, [0, MAX_SUPPORT + 1],
                         [0, 1]) < 2**16

    def test_pearson_gof_refuses_before_allocating(self):
        assert self.peak(hyptest.pearson_gof, [0, MAX_SUPPORT + 1],
                         PMV([0.5, 0.5])) < 2**16


class TestMemoryGuard:
    """The gain of the blocked passes rests on their memory: outputs plus
    a few blocks of scratch, whatever the input size."""

    SCRATCH = 4 * 8 * B

    def traced_peak(self, fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_canonicalize(self):
        values = np.random.default_rng(6).integers(-3, 4, 10**6) * 0.5
        raw = SampleSet(variables=(values,), coeffs=(3,), offset=1.5,
                        zeta=0.5)
        out, peak = self.traced_peak(canonicalize, raw)
        assert peak <= out.variables[0].nbytes + self.SCRATCH

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_subind_test(self, dtype):
        table = table_of(10**6, 7, dtype)
        sum_counts = 8 * (int(table.max(axis=0).sum()) + 1)
        _, peak = self.traced_peak(subind_test, table)
        assert peak <= self.SCRATCH + sum_counts + 2**16
