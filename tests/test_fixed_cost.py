"""The fixed per-call work removed from every test call changes no result.

``symlin._spectrum`` is ``eigh`` without the sign rule, in the same order
bit for bit; ``pmv._products`` forms no product with the identity and
still equals the plain prefix/suffix fold; ``empirical_pmv`` makes one
range scan and keeps its errors; float samples are cast in blocks; and
the CLI builds its parser once per process.
"""

import json
import tracemalloc

import numpy as np
import pytest

from convstat import cli, gof_test, symlin
from convstat.errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    SupportViolation,
)
from convstat.pmv import _BLOCK, PMV, _convolve, _products, empirical_pmv


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sorted_reference(a):
    """LAPACK's pairs in the stable descending order, without sign rule."""
    values, vectors = np.linalg.eigh(symlin.ensure_symmetric(a))
    order = np.argsort(-values, axis=-1, kind="stable")
    return (np.take_along_axis(values, order, axis=-1),
            np.take_along_axis(vectors, order[..., None, :], axis=-1))


def psd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T


RNG = np.random.default_rng(22)
SINGULAR = np.cov(RNG.normal(size=(5, 3)))  # rank 2: roundoff eigenvalues
MATRICES = {
    "eye2": np.eye(2),
    "zero": np.zeros((3, 3)),
    "random": psd(RNG, 4),
    "singular": SINGULAR,
    "one_by_one": np.array([[2.5]]),
}


class TestSpectrum:
    @pytest.mark.parametrize("name", MATRICES)
    def test_order_matches_the_stable_sort_bit_for_bit(self, name):
        dec = symlin._spectrum(MATRICES[name])
        values, vectors = sorted_reference(MATRICES[name])
        assert np.array_equal(dec.values, values)
        assert np.array_equal(dec.vectors, vectors)

    @pytest.mark.parametrize("name", MATRICES)
    def test_equals_eigh_up_to_column_signs(self, name):
        dec = symlin._spectrum(MATRICES[name])
        fixed = symlin.eigh(MATRICES[name])
        assert np.array_equal(dec.values, fixed.values)
        same = np.all(dec.vectors == fixed.vectors, axis=-2)
        flipped = np.all(dec.vectors == -fixed.vectors, axis=-2)
        assert np.all(same | flipped)

    def test_ties_keep_lapack_order(self):
        for a in (np.eye(2), np.zeros((3, 3))):
            dec = symlin._spectrum(a)
            assert np.array_equal(np.abs(dec.vectors), np.eye(a.shape[0]))

    def test_stack_mixing_tied_and_untied_rows(self):
        stack = np.stack([psd(RNG, 3), np.eye(3), np.zeros((3, 3)),
                          psd(RNG, 3)])
        dec = symlin._spectrum(stack)
        values, vectors = sorted_reference(stack)
        assert np.array_equal(dec.values, values)
        assert np.array_equal(dec.vectors, vectors)
        untied = symlin._spectrum(stack[[0, 3]])
        assert np.array_equal(untied.values, values[[0, 3]])
        assert np.array_equal(untied.vectors, vectors[[0, 3]])

    @pytest.mark.parametrize("a", [psd(RNG, 5), np.eye(3),
                                   np.stack([psd(RNG, 3), np.eye(3)])])
    def test_arrays_are_c_contiguous(self, a):
        # a reversed view would make a later ``@`` sum in another order
        dec = symlin._spectrum(a)
        assert dec.values.flags.c_contiguous
        assert dec.vectors.flags.c_contiguous

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            symlin._spectrum(np.eye(2))


def folded(probs):
    """The plain prefix/suffix fold, every product with the identity kept."""
    one = np.ones(1)
    prefix = [one]
    for p in probs[:-1]:
        prefix.append(_convolve(prefix[-1], p))
    suffix = [one]
    for p in reversed(probs[1:]):
        suffix.append(_convolve(p, suffix[-1]))
    suffix.reverse()
    loo = [_convolve(a, b) for a, b in zip(prefix, suffix)]
    return loo, _convolve(prefix[-1], probs[-1])


def random_probs(rng, k, stack):
    sizes = rng.integers(1, 5, size=k)
    sizes[rng.integers(k)] = 1  # a one-cell array in every family
    shape = (3,) if stack else ()
    probs = [rng.uniform(0.1, 1.0, size=shape + (int(n),)) for n in sizes]
    return [p / p.sum(axis=-1, keepdims=True) for p in probs]


class TestProducts:
    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_equals_the_plain_fold_bit_for_bit(self, k, stack):
        rng = np.random.default_rng(k + 10 * stack)
        for _ in range(5):
            probs = random_probs(rng, k, stack)
            loo, conv = _products(probs)
            ref_loo, ref_conv = folded(probs)
            assert len(loo) == k
            for got, want in zip(loo + [conv], ref_loo + [ref_conv]):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_single_array_has_the_identity_as_leave_one_out(self):
        p = np.array([0.25, 0.75])
        loo, conv = _products([p])
        assert len(loo) == 1 and np.array_equal(loo[0], np.ones(1))
        assert np.array_equal(conv, p)

    def test_no_product_with_the_identity(self, monkeypatch):
        sizes = []

        def counted(a, b):
            sizes.append(min(np.shape(a)[-1], np.shape(b)[-1]))
            return _convolve(a, b)

        monkeypatch.setattr("convstat.pmv._convolve", counted)
        for k in range(2, 7):
            sizes.clear()
            _products([np.full(2, 0.5)] * k)
            assert len(sizes) == 3 * k - 5
            assert min(sizes) == 2


class TestEmpiricalRange:
    @pytest.mark.parametrize("values, r, message", [
        ([2, -1, 5], 3, "observations must lie in {0, ..., 3}; got range [-1, 5]"),
        ([-1, 0], 2, "observations must lie in {0, ..., 2}; got range [-1, 0]"),
        ([0, 4], 2, "observations must lie in {0, ..., 2}; got range [0, 4]"),
        ([0.0, -2.0], 1, "observations must lie in {0, ..., 1}; got range [-2, 0]"),
    ])
    def test_out_of_range_message(self, values, r, message):
        with pytest.raises(SupportViolation) as info:
            empirical_pmv(np.array(values), r)
        assert str(info.value) == message

    def test_fraction(self):
        with pytest.raises(SupportViolation, match="observations must be integers"):
            empirical_pmv(np.array([0.0, 1.5]), 2)

    def test_huge_value_is_refused_before_counting(self):
        # bincount would allocate 8 * 2**40 bytes for these counts
        tracemalloc.start()
        try:
            with pytest.raises(SupportViolation,
                               match=r"got range \[0, 1099511627776\]"):
                empirical_pmv(np.array([0, 2**40]), 1)
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()


class TestFloatSamples:
    SIZE = 3 * _BLOCK + 17

    def test_blocks_give_the_integer_result(self):
        x = np.random.default_rng(3).integers(0, 4, self.SIZE)
        want = empirical_pmv(x, 3)
        for dtype in (np.float64, np.float32):
            got = empirical_pmv(x.astype(dtype), 3)
            assert got.n == want.n
            assert np.array_equal(got.pmv.probs, want.pmv.probs)
        assert empirical_pmv(x > 1, 1).pmv == empirical_pmv((x > 1) * 1, 1).pmv

    def test_fraction_in_a_later_block(self):
        x = np.zeros(self.SIZE)
        x[2 * _BLOCK + 5] = 0.5
        with pytest.raises(SupportViolation, match="observations must be integers"):
            empirical_pmv(x, 1)

    def test_non_finite_and_shape_errors_are_unchanged(self):
        x = np.zeros(self.SIZE)
        x[_BLOCK + 1] = np.nan
        with pytest.raises(DomainError, match="non-finite value nan"):
            empirical_pmv(x, 1)
        with pytest.raises(DimensionMismatch, match="1-D"):
            empirical_pmv(np.zeros((2, 3)), 1)

    def test_peak_is_one_int64_copy_and_a_block(self):
        rng = np.random.default_rng(4)
        xs = [rng.integers(0, 3, 10**6).astype(np.float64) for _ in range(2)]
        z = PMV(np.convolve(*[np.bincount(x.astype(int)) / x.size for x in xs]))
        _, peak = traced_peak(gof_test, xs, z)
        assert peak <= 8 * 10**6 + 8 * _BLOCK + 2**17


class TestParserReuse:
    def test_two_calls_share_no_state(self, capsys):
        argv = ["rank", "--pmv", "0.7,0.3", "--pmv", "0.2,0.8", "--json"]
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        parser = cli._parser
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert cli._parser is parser
        # the --pmv values of earlier calls do not stay behind as defaults
        assert cli.main(["rank"]) == 2
        assert cli.main(["rank", "--pmv", "0.5,0.5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 1
