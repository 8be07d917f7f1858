import sys

import numpy as np
import pytest

from conftest import charpoly_eigenvalues, rand_complex, rand_hermitian
from qmeter import matkernel as mk
from qmeter.errors import NoConvergence, NotHermitian, OutcomeOutOfRange, OutOfDomain, QmeterError, ShapeMismatch
from qmeter.measurement import Measurement, as_state


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


class TestHermitianEig:
    def test_already_diagonal(self):
        es = mk.hermitian_eig(np.diag([0.3, 0.7]))
        assert np.allclose(es.eigenvalues, [0.7, 0.3])
        assert np.allclose(es.eigenvectors[:, 0], [0, 1])
        assert np.allclose(es.eigenvectors[:, 1], [1, 0])

    def test_rank_one_projector(self):
        es = mk.hermitian_eig([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(es.eigenvalues, [1.0, 0.0], atol=1e-14)
        assert np.allclose(es.eigenvectors[:, 0], np.array([1, 1]) / np.sqrt(2))

    def test_against_charpoly_scan(self):
        rng = np.random.default_rng(21)
        h = rand_hermitian(rng, 4)
        roots = charpoly_eigenvalues(h)
        assert roots.shape == (4,)
        es = mk.hermitian_eig(h)
        assert np.max(np.abs(es.eigenvalues - roots)) < 1e-8

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            mk.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            mk.hermitian_eig(np.zeros((2, 3)))

    def test_reconstruction_sweep(self):
        # 1000 random Hermitian matrices across d = 2..8.
        rng = np.random.default_rng(22)
        for i in range(1000):
            d = 2 + i % 7
            h = rand_hermitian(rng, d)
            es = mk.hermitian_eig(h)
            rec = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
            assert np.linalg.norm(h - rec) <= 1e-10 * max(1.0, np.linalg.norm(h))
            assert np.all(np.diff(es.eigenvalues) <= mk.EIG_GAP_TOL)

    def test_eigenvector_unitarity(self):
        rng = np.random.default_rng(23)
        for d in range(2, 9):
            es = mk.hermitian_eig(rand_hermitian(rng, d))
            defect = np.linalg.norm(es.eigenvectors.conj().T @ es.eigenvectors - np.eye(d))
            assert defect <= 1e-10

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(24)
        for d in (2, 3, 5):
            a = rand_complex(rng, d, d)
            psd = a.conj().T @ a
            psd /= np.trace(psd).real
            es = mk.hermitian_eig(psd)
            assert es.eigenvalues[-1] >= -1e-12

    def test_degenerate_tiebreak_deterministic(self):
        es1 = mk.hermitian_eig(np.eye(3))
        es2 = mk.hermitian_eig(np.eye(3))
        assert np.array_equal(es1.eigenvectors, es2.eigenvectors)
        # equal values keep LAPACK's basis, which for a diagonal matrix is the natural one
        assert np.allclose(es1.eigenvectors, np.eye(3))

    def test_top_eigenvector_depends_only_on_the_eigenspace(self):
        # One rank-2 projector (eigenvalue 0.9, d = 4) rebuilt from 50 bases of the same span.
        rng = np.random.default_rng(25)
        span = np.linalg.qr(rand_complex(rng, 4, 2))[0]
        tops = []
        for _ in range(50):
            b = span @ np.linalg.qr(rand_complex(rng, 2, 2))[0]
            es = mk.hermitian_eig(0.9 * (b @ b.conj().T))
            top, degenerate = mk._top_eigenvector(es.eigenvalues[None], es.eigenvectors[None])
            assert degenerate.tolist() == [True]
            tops.append(top[0])
        assert max(1.0 - abs(np.vdot(tops[0], top)) ** 2 for top in tops) <= 1e-12

    def test_gapped_top_eigenvector_is_the_first_column(self):
        es = mk.hermitian_eig(rand_hermitian(np.random.default_rng(26), 4))
        top, degenerate = mk._top_eigenvector(es.eigenvalues[None], es.eigenvectors[None])
        assert np.array_equal(top, es.eigenvectors[None, :, 0]) and degenerate.tolist() == [False]

    @pytest.mark.parametrize("gap", [0.0, mk.EIG_GAP_TOL / 2, mk.EIG_GAP_TOL, 2 * mk.EIG_GAP_TOL])
    def test_degenerate_flag_is_the_top_gap_test(self, gap):
        vectors = np.linalg.qr(rand_complex(np.random.default_rng(28), 3, 3))[0]
        for base in (0.5, 0.0):
            values = np.array([base + gap, base, base - 0.25])
            (degenerate,) = mk._top_eigenvector(values[None], vectors[None])[1].tolist()
            assert degenerate == bool(values[0] - values[1] < mk.EIG_GAP_TOL)
        assert degenerate == (gap < mk.EIG_GAP_TOL)  # at base 0.0 the gap is exact

    def test_dimension_one_is_never_degenerate(self):
        top, degenerate = mk._top_eigenvector(np.array([[0.7]]), np.eye(1, dtype=complex)[None])
        assert top.tolist() == [[1.0]] and degenerate.tolist() == [False]

    def test_stack_rows_match_one_row_calls(self):
        # Groups of every width next to gapped rows: a row's result must not depend on its neighbours.
        rng = np.random.default_rng(29)
        u = [np.linalg.qr(rand_complex(rng, 5, 5))[0] for _ in range(6)]
        spectra = [[0.9, 0.5, 0.3, 0.2, 0.1], [0.7, 0.7, 0.2, 0.1, 0.0], [0.4, 0.4, 0.4, 0.1, 0.1]]
        spectra += [[0.6] * 5, [0.8, 0.8, 0.8, 0.8, 0.3], [0.5, 0.2, 0.2, 0.2, 0.0]]
        es = mk.hermitian_eig(np.array([(q * w) @ q.conj().T for q, w in zip(u, spectra)]))
        top, degenerate = mk._top_eigenvector(es.eigenvalues, es.eigenvectors)
        assert degenerate.tolist() == [False, True, True, True, True, False]
        for i in range(len(spectra)):
            one, flag = mk._top_eigenvector(es.eigenvalues[i : i + 1], es.eigenvectors[i : i + 1])
            assert one.tobytes() == top[i : i + 1].tobytes() and flag.tolist() == [degenerate[i]]

    def test_near_degenerate_group_keeps_each_value_with_its_vector(self):
        # Values 9e-11 apart form one group, yet column i must still be an eigenvector of value i.
        u = np.linalg.qr(rand_complex(np.random.default_rng(27), 3, 3))[0]
        h = (u * [0.5, 9e-11, 0.0]) @ u.conj().T
        es = mk.hermitian_eig(h)
        assert np.linalg.norm(h @ es.eigenvectors - es.eigenvectors * es.eigenvalues) <= 1e-15

    def test_degenerate_group_stays_descending(self):
        assert mk.hermitian_eig(np.diag([0.0, 5e-11])).eigenvalues.tolist() == [5e-11, 0.0]

    def test_dimension_one(self):
        es = mk.hermitian_eig([[2.5]])
        assert es.eigenvalues[0] == 2.5

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(mk.np.linalg, "eigh", _raise_linalg_error)
        with pytest.raises(NoConvergence):
            mk.hermitian_eig(rand_hermitian(np.random.default_rng(0), 3))

    def test_non_finite_rejected(self):
        with pytest.raises(OutOfDomain):
            mk.hermitian_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_squares_beyond_float64_rejected_without_warning(self):
        with pytest.raises(OutOfDomain, match="overflow"):
            mk.hermitian_eig([[1e200, 0.0], [0.0, 1.0]])

    def test_tiny_skew_matrix_rejected(self):
        # Both Frobenius norms underflow to 0 here; the check runs at a largest modulus of 1.
        with pytest.raises(NotHermitian, match="symmetry defect 1.414e-200 "):
            mk.hermitian_eig([[0.0, 1e-200], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            mk.hermitian_eig(np.array([np.eye(2), [[1e-300, 1e-305], [0.0, 1e-300]]]))

    def test_tiny_multiple_of_identity_diagonalizes(self):
        es = mk.hermitian_eig(1e-200 * np.eye(2))
        assert es.eigenvalues.tolist() == [1e-200, 1e-200]
        assert mk.hermitian_eig(np.zeros((2, 2))).eigenvalues.tolist() == [0.0, 0.0]


class TestStackedEig:
    """A stack is diagonalized by one eigh call, each slice bit-identical to a single solve."""

    @staticmethod
    def stacks(d):
        rng = np.random.default_rng(40 + d)
        eye = np.eye(d, dtype=complex)
        kicks = [np.linalg.qr(rand_complex(rng, d, d))[0] for _ in range(3)]
        yield "random", np.array([rand_hermitian(rng, d) for _ in range(5)])
        yield "identity", np.array([eye, 2.0 * eye])
        yield "kicked identity", np.array([k.conj().T @ k for k in kicks])
        yield "projective", eye[:, :, None] * eye[:, None, :]
        v = rand_complex(rng, d, 1)[:, 0]
        v /= np.linalg.norm(v)
        yield "mixed", np.array([rand_hermitian(rng, d), eye, 0.0 * eye, np.outer(v, v.conj())])

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_slices_match_single_solves(self, d):
        for name, stack in self.stacks(d):
            es = mk.hermitian_eig(stack)
            assert es.eigenvalues.shape == stack.shape[:2] and es.eigenvectors.shape == stack.shape, name
            for i, matrix in enumerate(stack):
                single = mk.hermitian_eig(matrix)
                assert np.array_equal(es.eigenvalues[i], single.eigenvalues), (name, i)
                assert np.array_equal(es.eigenvectors[i], single.eigenvectors), (name, i)

    def test_stack_is_read_only(self):
        es = mk.hermitian_eig(np.array([np.eye(2), np.diag([0.3, 0.7])]))
        assert not es.eigenvalues.flags.writeable and not es.eigenvectors.flags.writeable

    def test_dimension_one_matches_the_entry(self):
        es = mk.hermitian_eig(np.array([[[2.5]], [[-1.0]], [[0.0]]]))
        assert es.eigenvalues.tolist() == [[2.5], [-1.0], [0.0]]
        assert es.eigenvectors.tolist() == [[[1.0]]] * 3

    # Non-finite input is rejected before any arithmetic, wherever a skew slice sits.
    SKEW = [[0.0, 1.0], [0.0, 0.0]]
    INF = [[np.inf, 0.0], [0.0, 1.0]]

    def test_one_non_hermitian_slice_rejected(self):
        with pytest.raises(NotHermitian):
            mk.hermitian_eig(np.array([np.eye(2), self.SKEW, np.eye(2)]))

    def test_non_finite_slice_rejected(self):
        stacks = ([np.eye(2), self.INF], [np.eye(2), self.INF, self.SKEW], [self.INF, self.SKEW], self.INF)
        for stack in (*stacks, [np.eye(2), self.SKEW, self.INF]):
            with pytest.raises(OutOfDomain, match="non-finite entry"):
                mk.hermitian_eig(np.array(stack))

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    def test_stacked_norms_match_per_slice(self, d):
        rng = np.random.default_rng(d)
        stack = np.array([rand_complex(rng, d, d) * 10.0**k for k in range(-6, 7, 3)])
        defects = mk._fro_norms(stack - stack.conj().swapaxes(1, 2))
        norms = mk._fro_norms(stack)
        for i, x in enumerate(stack):
            for value, y in ((defects[i], x - x.conj().T), (norms[i], x)):
                assert value == np.sqrt(np.sum(y.real**2 + y.imag**2))

    def test_defect_is_reported_for_the_first_failing_slice(self):
        rng = np.random.default_rng(7)
        h = rand_hermitian(rng, 3)
        skewed = [h + 1e-3 * rand_complex(rng, 3, 3) for _ in range(2)]
        defect = np.linalg.norm(skewed[0] - skewed[0].conj().T)
        with pytest.raises(NotHermitian, match=f"symmetry defect {defect:.3e} "):
            mk.hermitian_eig(np.array([h, *skewed]))

    def test_one_eigh_call_per_stack(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(mk.np.linalg, "eigh", counting)
        mk.hermitian_eig(np.array([np.eye(3)] * 4))
        assert calls == [(4, 3, 3)]

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3), (1, 2, 2, 2)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ShapeMismatch):
            mk.hermitian_eig(np.zeros(shape))


class TestPhaseCanonicalization:
    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            v = rand_complex(rng, 5, 1)[:, 0]
            once = mk.canonicalize_phase(v)
            twice = mk.canonicalize_phase(once)
            assert np.allclose(once, twice, atol=1e-15)
            assert once[np.argmax(np.abs(once) > 1e-12)].imag == pytest.approx(0.0, abs=1e-15)

    def test_leading_small_entries_skipped(self):
        v = np.array([1e-14, 1j])
        out = mk.canonicalize_phase(v)
        assert out[1] == pytest.approx(1.0)

    @staticmethod
    def loop_rule(v):
        """The one-vector rule as a loop over components: the reference the stack-wise rule must match."""
        v = np.asarray(v, dtype=np.complex128)
        for x in v:
            mod = abs(x)
            if mod > mk.PHASE_TOL:
                return v * (x.conjugate() / mod)
        return v.copy()

    def test_stacks_match_the_loop_rule_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            shape = tuple(int(n) for n in rng.integers(0, 6, size=rng.integers(1, 4)))
            v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            v *= 10.0 ** rng.integers(-14, 3, size=shape)  # many entries below PHASE_TOL, some leading
            v[rng.random(shape) < 0.2] = 0.0  # whole zero vectors among the short ones
            v.real[rng.random(shape) < 0.1] = -0.0
            v.imag[rng.random(shape) < 0.1] = -0.0
            want = np.empty(shape, dtype=np.complex128)
            for index in np.ndindex(shape[:-1]):
                want[index] = self.loop_rule(v[index])
            got = mk.canonicalize_phase(v)
            # Bits, not values: -0.0 == 0.0 would hide a sign flip.
            assert got.shape == shape and got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_rows_of_a_matrix_are_canonicalized_one_by_one(self):
        rows = np.array([[1j, 1.0], [0.0, -2.0], [1e-13, 0.0]])
        out = mk.canonicalize_phase(rows)
        for row, got in zip(rows, out):
            assert np.array_equal(got, mk.canonicalize_phase(row))
        assert np.array_equal(out, [[1.0, -1j], [0.0, 2.0], [1e-13, 0.0]])

    def test_empty_and_all_tiny_vectors_come_back_unchanged(self):
        for v in (np.zeros(0, complex), np.zeros((2, 0), complex), np.array([1e-13j, -0.0])):
            out = mk.canonicalize_phase(v)
            assert out.shape == v.shape and out.view(np.uint64).tobytes() == v.view(np.uint64).tobytes()
            assert out is not v

    @pytest.mark.parametrize("junk", [np.ones((2, 2, 2, 2)), 1.0, "ab", None, [[1, 2], [3]], ["x", "y"]])
    def test_bad_input_raises_a_typed_error(self, junk):
        with pytest.raises(QmeterError):
            mk.canonicalize_phase(junk)

    def test_non_finite_entry_is_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            mk.canonicalize_phase([1.0, np.nan])


class TestPolarDecompose:
    def test_positive_input(self):
        m = np.diag([0.2, 0.8])
        unitary, root = mk.polar_decompose(m)
        assert np.linalg.norm(unitary - np.eye(2)) < 1e-12
        assert np.linalg.norm(root - m) < 1e-12

    def test_unitary_input(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        unitary, root = mk.polar_decompose(x)
        assert np.linalg.norm(unitary - x) < 1e-12
        assert np.linalg.norm(root - np.eye(2)) < 1e-12

    def test_random_invertible_against_root_oracle(self):
        rng = np.random.default_rng(41)
        m = rand_complex(rng, 3, 3)
        unitary, root = mk.polar_decompose(m)
        assert np.linalg.norm(m - unitary @ root) <= 1e-10
        lam, vec = np.linalg.eigh(m.conj().T @ m)
        oracle = (vec * np.sqrt(np.clip(lam, 0, None))) @ vec.conj().T
        assert np.linalg.norm(root - oracle) < 1e-10

    def test_rank_deficient_inputs(self):
        rng = np.random.default_rng(42)
        cases = [np.zeros((3, 3))]
        v = rand_complex(rng, 4, 1)[:, 0]
        w = rand_complex(rng, 4, 1)[:, 0]
        cases.append(np.outer(w, v.conj()))
        m = rand_complex(rng, 5, 5)
        m[:, 2] = 0.0
        cases.append(m)
        for m in cases:
            d = m.shape[0]
            unitary, root = mk.polar_decompose(m)
            assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(d)) <= 1e-10
            assert np.linalg.norm(m - unitary @ root) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_random_sweep(self):
        rng = np.random.default_rng(43)
        for i in range(200):
            d = 2 + i % 5
            m = rand_complex(rng, d, d)
            if i % 3 == 0:
                m[:, rng.integers(d)] = 0.0
            unitary, root = mk.polar_decompose(m)
            assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(d)) <= 1e-10
            assert np.linalg.norm(m - unitary @ root) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            mk.polar_decompose(np.zeros((2, 3)))

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(mk.np.linalg, "svd", _raise_linalg_error)
        with pytest.raises(NoConvergence):
            mk.polar_decompose(rand_complex(np.random.default_rng(0), 3, 3))


class TestFrobeniusDistance:
    """``_fro_norms``, the one Frobenius norm, against plain sums."""

    def test_zero_on_equal(self):
        rng = np.random.default_rng(51)
        m = rand_complex(rng, 3, 3)
        assert mk._fro_norms((m - m)[None])[0] == 0.0

    def test_identity_vs_zero(self):
        assert mk._fro_norms(np.eye(2)[None])[0] == pytest.approx(np.sqrt(2))

    def test_against_elementwise_sum(self):
        rng = np.random.default_rng(52)
        a = rand_complex(rng, 4, 3)
        b = rand_complex(rng, 4, 3)
        total = 0.0
        for i in range(4):
            for j in range(3):
                total += abs(a[i, j] - b[i, j]) ** 2
        assert mk._fro_norms((a - b)[None])[0] == pytest.approx(np.sqrt(total), abs=1e-14)

    def test_squares_beyond_float64_give_inf(self):
        with np.errstate(over="ignore"):
            assert mk._fro_norms(np.array([[[1e200]], [[1.0]]])).tolist() == [np.inf, 1.0]


class TestFiniteScalar:
    """The one gate from outside numbers to scalars."""

    @pytest.mark.parametrize("item_bytes, power", [(8, 1), (16, 1), (24, 1), (16, 2), (16, 3)])
    def test_max_count_is_the_exact_integer_bound(self, item_bytes, power):
        n = mk._max_count(item_bytes, power)
        assert item_bytes * n**power <= sys.maxsize < item_bytes * (n + 1) ** power

    @pytest.mark.parametrize("x", [2, 64, np.int64(7), np.uint8(3)])
    def test_ints_pass_as_python_ints(self, x):
        value = mk.finite_scalar(x, int, "d", 2)
        assert type(value) is int and value == x

    @pytest.mark.parametrize("x", [0, 1, 0.5, np.float32(0.25), np.int64(1)])
    def test_reals_pass_as_python_floats(self, x):
        value = mk.finite_scalar(x, float, "strength", 0.0, 1.0)
        assert type(value) is float and value == float(x)

    @pytest.mark.parametrize(
        "x", [None, "3", "0.5", b"3", True, np.True_, [2], (2,), {}, np.array(2), 2.0, 2.5, np.float64(3.0), 1, -1]
    )
    def test_int_junk_raises_the_given_error(self, x):
        with pytest.raises(OutcomeOutOfRange, match=r"^outcome must be an integer in \[2, 4\], got "):
            mk.finite_scalar(x, int, "outcome", 2, 4, OutcomeOutOfRange)

    @pytest.mark.parametrize("x", [None, "1e-3", False, [0.5], np.nan, np.inf, -np.inf, -0.1])
    def test_real_junk_raises_out_of_domain(self, x):
        with pytest.raises(OutOfDomain, match="^tolerance must be a finite real number >= 0, got "):
            mk.finite_scalar(x, float, "tolerance", 0.0)

    def test_int_beyond_float64(self):
        assert mk.finite_scalar(10**400, int, "d", 2) == 10**400
        with pytest.raises(OutOfDomain):
            mk.finite_scalar(10**400, int, "d", 2, 4)
        with pytest.raises(OutOfDomain, match="^tolerance must be a finite real number >= 0, got 1000"):
            mk.finite_scalar(10**400, float, "tolerance", 0.0)

    def test_int_beyond_the_decimal_digit_limit_shows_its_bit_length(self):
        # repr() of an int with more than 4300 digits raises ValueError, so the message names its size instead.
        assert (10**5000).bit_length() == 16610
        for x in (10**5000, -(10**5000)):
            with pytest.raises(OutOfDomain, match=r"^d must be an integer in \[2, 4\], got an integer of 16610 bits$"):
                mk.finite_scalar(x, int, "d", 2, 4)
            with pytest.raises(OutOfDomain, match="^tolerance must be .* >= 0, got an integer of 16610 bits$"):
                mk.finite_scalar(x, float, "tolerance", 0.0)

    def test_bounds_are_inclusive(self):
        assert mk.finite_scalar(2, int, "d", 2, 4) == 2
        assert mk.finite_scalar(4, int, "d", 2, 4) == 4
        assert mk.finite_scalar(1.0, float, "g", 0.5, 1.0) == 1.0


class TestFiniteArrayStrings:
    """Numeric strings are text, not numbers, in arrays as in scalars."""

    @pytest.mark.parametrize(
        "x",
        [["1", "0"], np.array(["1", "0"]), [b"1", b"0"], np.array(["1", 0], dtype=object),
         np.array([b"1"], dtype=object)],
    )
    def test_strings_raise_the_given_error(self, x):
        with pytest.raises(ShapeMismatch, match="^vector: strings where numbers are expected"):
            mk.finite_array(x, np.complex128, ShapeMismatch, "vector", ndim=1)

    def test_entry_points_refuse_numeric_strings(self):
        calls = [
            lambda: as_state(["1", "0"]),
            lambda: Measurement(np.eye(2)[None].astype(str)),
            lambda: mk.hermitian_eig([["1", "0"], ["0", "1"]]),
            lambda: mk.polar_decompose(np.array([[b"1", b"0"], [b"0", b"1"]])),
        ]
        for call in calls:
            with pytest.raises(QmeterError):
                call()

