import math

import numpy as np
import pytest

from wtangles import fock
from wtangles.fock import validate_density
from wtangles.linalg import negative_eigenvalue_sum

from .lapack import ROUTES, recorded, shifted


def _trace_norm(m):
    """The sum of the absolute eigenvalues, straight from numpy."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def test_eigenvalues_known_pair():
    w = np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_eigenvalues_real_and_ascending():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = np.linalg.eigvalsh(g + g.conj().T)
    assert w.dtype == np.float64
    assert np.all(np.diff(w) >= 0.0)


NAN = np.array([[np.nan, 0.0], [0.0, 0.5]])


def _states(rng, *shape):
    """A stack of random exactly Hermitian, unit-trace, positive (d, d) states."""
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = g @ g.conj().swapaxes(-1, -2)
    m = m + m.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


# each input and the one-line message validate_density rejects it with
@pytest.mark.parametrize("bad", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), r"matrix deviates from Hermiticity by 1\.000e\+00"),
    (np.array([[0.0, 1.0j], [1.0j, 0.0]]), r"matrix deviates from Hermiticity by 2\.000e\+00"),
    (np.ones((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
    (NAN, "matrix deviates from Hermiticity by nan"),
    # one NaN matrix fails its stack
    (np.stack([np.eye(2) / 2.0, NAN, np.eye(2) / 2.0]), "matrix deviates from Hermiticity by nan"),
])
def test_non_hermitian_input_rejected(bad):
    m, message = bad
    with pytest.raises(ValueError, match=f"^density {message}$"):
        validate_density(m)


def _mixed(dim, entries, dtype=float):
    """The maximally mixed dim x dim state, with each {(i, j): value} entry then set."""
    m = np.eye(dim, dtype=dtype) / dim
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


@pytest.mark.parametrize("m, deviation", [
    # -0.0 equals +0.0, and an asymmetry within HERMITICITY_TOL passes
    (_mixed(2, {(0, 1): -0.0, (1, 0): 0.0}), None),
    (_mixed(2, {(0, 1): 1e-13}), None),
    (_mixed(2, {(0, 1): 2e-12}), "2.000e-12"),
    (_mixed(2, {(0, 1): math.inf, (1, 0): -math.inf}), "inf"),
    # an inf equal to its partner compares equal, but its difference is NaN; off
    # the diagonal of a 16x16 state the shifted Cholesky factorization can pass
    # it, as a NaN pivot is not a negative one
    (_mixed(2, {(0, 1): math.inf, (1, 0): math.inf}), "nan"),
    (_mixed(16, {(0, 9): math.inf, (9, 0): math.inf}), "nan"),
    (_mixed(16, {(3, 3): math.inf}), "nan"),
    (_mixed(4, {(1, 2): complex(0, math.inf), (2, 1): complex(0, -math.inf)}, complex), "nan"),
    # no entry equals its partner: each complex diagonal entry differs from its conjugate
    (np.array([[0.5 + 1e-3j, 0.1], [0.2, 0.5 - 1e-3j]]), "1.000e-01"),
])
def test_hermiticity_is_checked_by_exact_comparison(m, deviation):
    if deviation is None:
        validate_density(m)
        return
    with pytest.raises(ValueError) as info:
        validate_density(m)
    assert str(info.value) == f"density matrix deviates from Hermiticity by {deviation}"


def test_error_types_subclass_builtins():
    # numpy's LinAlgError reaches callers as it is, and they may catch plain
    # ValueError; a shape error is named as one, not as a failed convergence
    assert issubclass(np.linalg.LinAlgError, ValueError)
    for m in (np.ones((2, 3)), np.ones(4)):
        with pytest.raises(np.linalg.LinAlgError, match="must be square|at least two-dimensional"):
            negative_eigenvalue_sum(m)


def test_trace_norm_mixed_sign_spectrum():
    m = np.diag([0.75, 0.75, -0.5])
    assert _trace_norm(m) == pytest.approx(2.0, abs=1e-15)
    assert negative_eigenvalue_sum(m) == pytest.approx(1.0, abs=1e-15)


def test_negative_sum_of_psd_matrix_is_plus_zero():
    value = negative_eigenvalue_sum(np.diag([0.5, 0.5]))
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_trace_norm_minus_trace_identity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((10, 10))
    h = g + g.T
    lhs = _trace_norm(h) - float(np.trace(h))
    assert lhs == pytest.approx(negative_eigenvalue_sum(h), abs=1e-10)


def test_stacks_are_diagonalized_matrix_by_matrix():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    stack = g + g.conj().swapaxes(1, 2)
    spectra = np.linalg.eigvalsh(stack)
    negative = negative_eigenvalue_sum(stack)
    assert spectra.shape == (5, 6) and negative.shape == (5,)
    for k, m in enumerate(stack):
        assert np.array_equal(spectra[k], np.linalg.eigvalsh(m))
        assert negative[k] == negative_eigenvalue_sum(m)


def test_large_stacks_are_checked_block_by_block():
    # 40 16x16 complex matrices span three blocks of the Hermiticity check
    stack = _states(np.random.default_rng(9), 2, 20, 16, 16)
    validate_density(stack)
    bad = stack.copy()
    bad[0, 3, 0, 1] += 2e-6       # first block
    bad[1, 19, 0, 1] += 3e-6      # last block: the worst names the stack
    with pytest.raises(ValueError, match=r"by 3\.000e-06"):
        validate_density(bad)
    bad[1, 0, 2, 2] = np.nan      # a NaN in a middle block is worse than any number
    with pytest.raises(ValueError, match="by nan"):
        validate_density(bad)


def _seen(m):
    """The arrays validate_density hands to numpy's eigvalsh and cholesky for m, by route."""
    with recorded() as calls:
        validate_density(m)
    return {route: [call.array for call in calls if call.route == route] for route in ROUTES}


def _factored_slices(blocks, m):
    """How many states of m the blocks cover, asserting that they are m's slices, in order, shifted."""
    covered = 0
    for block in blocks:
        assert block.tobytes() == shifted(m[covered:covered + len(block)]).tobytes()
        covered += len(block)
    return covered


def test_stacks_within_tolerance_reach_eigvalsh_as_given():
    # 40 16x16 matrices, so the check spans several blocks
    exact = _states(np.random.default_rng(11), 40, 16, 16)
    assert np.abs(exact - exact.conj().swapaxes(-1, -2)).max() == 0.0
    # the factorization gets the stack in blocks of at most _BLOCK_BYTES: each
    # block its slice of the stack shifted on its diagonal, and nothing else,
    # and the blocks add up to the stack
    seen = _seen(exact)
    blocks = seen["cholesky"]
    assert len(blocks) > 1 and max(block.nbytes for block in blocks) <= fock._BLOCK_BYTES
    assert _factored_slices(blocks, exact) == len(exact)
    assert seen["eigvalsh"] == []
    # a stack with a block that the factorization rejects reaches eigvalsh
    # itself, whole
    edge = exact.copy()
    edge[7] = np.diag([-0.9995e-10] + [(1.0 + 0.9995e-10) / 15] * 15)
    assert _seen(edge)["eigvalsh"][0] is edge
    # roundoff-asymmetric stacks, complex and real, deviating by up to the tolerance
    inexact = edge.copy()
    inexact[0, 0, 1] += 9e-13
    inexact[39, 15, 2] -= 5e-13j
    real = edge.real.copy()
    real[3, 4, 5] += 9e-13
    for m in (inexact, real):
        deviation = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
        assert 0.0 < deviation <= fock.HERMITICITY_TOL
        before = m.copy()
        # checked, never symmetrized: the factorization gets m's blocks
        # shifted, up to the one that holds state 7 and is rejected, and
        # eigvalsh m itself, unchanged, or the complex128 cast of a real m
        seen = _seen(m)
        covered = _factored_slices(seen["cholesky"], m)
        assert covered - len(seen["cholesky"][-1]) <= 7 < covered
        [solved] = seen["eigvalsh"]
        if m.dtype == complex:
            assert solved is m
        else:
            assert solved.tobytes() == m.astype(complex).tobytes()
        assert m.tobytes() == before.tobytes()
        # both read the lower triangle alone, so the factorization decides on
        # the matrix whose spectrum the fallback reads (state 7 does not factor)
        garbled = np.where(np.triu(np.ones((16, 16), dtype=bool), 1), 7.0, m)
        assert np.array_equal(np.linalg.eigvalsh(garbled), np.linalg.eigvalsh(m))
        assert np.array_equal(np.linalg.cholesky(shifted(np.delete(garbled, 7, axis=0))),
                              np.linalg.cholesky(shifted(np.delete(m, 7, axis=0))))
    # NaN is never within the tolerance, and fails the check
    bad = exact.copy()
    bad[20, 3, 3] = np.nan
    with pytest.raises(ValueError, match="by nan"):
        validate_density(bad)
