import math

import numpy as np
import pytest

from wigner_witness import CutoffTooSmallError, FockDensityMatrix
from wigner_witness.oracle import (
    apply_amplifier_mode_a, apply_attenuator_mode_a, beam_splitter,
    beam_splitter_unitary, coherent_ket, create, destroy, displacement,
    displaced_parity_point, expectation, expm, fock_ket, min_eigenvalue, number,
    parity, partial_trace, partial_transpose, pseudospin_x, pseudospin_y,
    pseudospin_z, purity, tensor,
)


def _pure(psi: np.ndarray, cutoff: int) -> FockDensityMatrix:
    return FockDensityMatrix(np.outer(psi, psi.conj()), cutoff)


def test_commutator_below_cutoff():
    n = 12
    a = destroy(n)
    comm = a @ create(n) - create(n) @ a
    np.testing.assert_allclose(comm[: n - 1, : n - 1], np.eye(n - 1), atol=1e-12)


def test_number_counts_photons():
    n = 8
    ket = fock_ket(3, n)
    assert abs(ket @ number(n) @ ket - 3.0) < 1e-12


def test_parity_alternates():
    d = np.diag(parity(6))
    np.testing.assert_allclose(d, [1, -1, 1, -1, 1, -1])


def test_coherent_ket_mean_field():
    alpha = 0.6 + 0.3j
    n = 25
    ket = coherent_ket(alpha, n)
    mean = ket.conj() @ destroy(n) @ ket
    assert abs(mean - alpha) < 1e-10


def test_displacement_is_unitary_and_displaces_vacuum():
    alpha = 0.4 - 0.2j
    n = 24
    d = displacement(alpha, n)
    np.testing.assert_allclose(d @ d.conj().T, np.eye(n), atol=1e-8)
    np.testing.assert_allclose(d[:, 0], coherent_ket(alpha, n), atol=1e-8)


def test_displacement_guard_rejects_large_amplitude():
    with pytest.raises(CutoffTooSmallError):
        displacement(3.0, 8)


@pytest.mark.parametrize("cutoff", [2, 5, 12])
@pytest.mark.parametrize("phase", [0.0, 0.9, 2.5, -1.7])
def test_displacement_matches_scipy_expm_up_to_guard(cutoff, phase):
    import scipy.linalg
    a = destroy(cutoff)
    for size in (0.1, 0.5, 0.999):
        alpha = math.sqrt(size * cutoff / 4.0) * complex(math.cos(phase), math.sin(phase))
        d = displacement(alpha, cutoff)
        want = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
        assert np.max(np.abs(d - want)) <= 1e-12
        assert np.max(np.abs(d @ d.conj().T - np.eye(cutoff))) <= 1e-12


@pytest.mark.parametrize("cutoff", range(2, 13))
def test_beam_splitter_unitary_matches_scipy_expm(cutoff):
    import scipy.linalg
    a = destroy(cutoff)
    adag = a.conj().T
    gen = np.kron(a, adag) - np.kron(adag, a)
    for theta in (0.3, math.pi / 4, 1.2, -2.0):
        u = beam_splitter_unitary(theta, cutoff)
        assert np.max(np.abs(u - scipy.linalg.expm(theta * gen))) <= 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(cutoff * cutoff))) <= 1e-12


def test_expm_rejects_non_anti_hermitian_generator():
    a = destroy(6)
    with pytest.raises(ValueError):
        expm(a + a.conj().T)
    with pytest.raises(ValueError):
        expm(a)


def test_min_eigenvalue_matches_scipy_eigvalsh():
    import scipy.linalg
    rng = np.random.default_rng(11)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    herm = m + m.conj().T
    assert min_eigenvalue(herm) == pytest.approx(scipy.linalg.eigvalsh(herm)[0],
                                                 rel=1e-12, abs=1e-12)


def test_beam_splitter_half_swaps_single_photon():
    n = 4
    u = beam_splitter_unitary(math.pi / 4, n)
    one_zero = np.kron(fock_ket(1, n), fock_ket(0, n))
    zero_one = np.kron(fock_ket(0, n), fock_ket(1, n))
    out = u @ one_zero
    np.testing.assert_allclose(out, (one_zero + zero_one) / math.sqrt(2), atol=1e-12)


def test_beam_splitter_state_round_trip():
    n = 6
    psi = np.kron(coherent_ket(0.4, n), fock_ket(1, n))
    rho = _pure(psi, n)
    back = beam_splitter(beam_splitter(rho, 0.7), -0.7)
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)


def test_beam_splitter_conserves_photon_number():
    n = 5
    u = beam_splitter_unitary(0.9, n)
    ntot = tensor(number(n), np.eye(n)) + tensor(np.eye(n), number(n))
    np.testing.assert_allclose(u @ ntot @ u.conj().T, ntot, atol=1e-10)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(0)
    n = 3
    m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    m = m @ m.conj().T
    m /= np.trace(m).real
    rho = FockDensityMatrix(m, n)
    twice = partial_transpose(partial_transpose(rho))
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-14)


def test_partial_transpose_flags_bell_like_state():
    # (|00> + |11>)/sqrt(2) has PT eigenvalue -1/2
    n = 2
    psi = (np.kron(fock_ket(0, n), fock_ket(0, n))
           + np.kron(fock_ket(1, n), fock_ket(1, n))) / math.sqrt(2)
    rho = _pure(psi, n)
    assert abs(min_eigenvalue(partial_transpose(rho)) + 0.5) < 1e-12


def test_partial_trace_of_product_state():
    n = 5
    psi = np.kron(coherent_ket(0.3, n), fock_ket(2, n))
    rho = _pure(psi, n)
    rb = partial_trace(rho, keep="b")
    expect = np.zeros((n, n))
    expect[2, 2] = 1.0
    np.testing.assert_allclose(rb, expect, atol=1e-12)
    ra = partial_trace(rho, keep="a")
    ket = coherent_ket(0.3, n)
    np.testing.assert_allclose(ra, np.outer(ket, ket.conj()), atol=1e-12)


def test_purity_of_pure_and_mixed():
    n = 4
    ket = fock_ket(1, n)
    assert abs(purity(np.outer(ket, ket)) - 1.0) < 1e-12
    assert abs(purity(np.eye(n) / n) - 1.0 / n) < 1e-12


def test_pseudospin_algebra():
    n = 12
    sx, sy, sz = pseudospin_x(n), pseudospin_y(n), pseudospin_z(n)
    np.testing.assert_allclose(sx @ sx, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(sy @ sy, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(sz @ sz, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(sx @ sy, 1j * sz, atol=1e-12)


def test_cached_pseudospin_operators_are_read_only():
    for op in (pseudospin_x(8), pseudospin_y(8), pseudospin_z(8)):
        with pytest.raises(ValueError):
            op[0, 0] = 5.0
    np.testing.assert_array_equal(np.diag(pseudospin_z(8)), [1, -1] * 4)


def test_pseudospin_requires_even_cutoff():
    with pytest.raises(ValueError):
        pseudospin_x(7)


def test_displaced_parity_matches_vacuum_peak():
    n = 14
    psi = np.kron(fock_ket(0, n), fock_ket(0, n))
    rho = _pure(psi, n)
    val = displaced_parity_point(rho, (0.0, 0.0, 0.0, 0.0))
    assert abs(val - 1.0 / (2 * math.pi) ** 2) < 1e-12


def test_attenuator_preserves_trace_and_scales_energy():
    n = 20
    psi = np.kron(coherent_ket(1.0, n), fock_ket(0, n))
    rho = _pure(psi, n)
    out = apply_attenuator_mode_a(rho.as_modes(), 0.36).reshape(n * n, n * n)
    assert abs(np.trace(out).real - 1.0) < 1e-9
    n_op = tensor(number(n), np.eye(n))
    before = expectation(rho, n_op)
    after = expectation(out, n_op)
    assert abs(after - 0.36 * before) < 1e-9


def test_amplifier_adds_gain_noise():
    n = 24
    r = 0.4
    psi = np.kron(fock_ket(0, n), fock_ket(0, n))
    out = apply_amplifier_mode_a(_pure(psi, n).as_modes(), r).reshape(n * n, n * n)
    n_op = tensor(number(n), np.eye(n))
    # vacuum gains sinh^2 r photons
    assert abs(expectation(out, n_op) - math.sinh(r) ** 2) < 1e-8


def test_density_matrix_validation():
    n = 3
    bad = np.eye(n * n, dtype=complex)
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        FockDensityMatrix(bad, n)
    with pytest.raises(CutoffTooSmallError):
        FockDensityMatrix(np.eye(n * n) / (n * n) * 0.9, n)
