"""Truncated Fock-space machinery for independent cross-checks.

Everything here works on dense numpy matrices in a photon-number basis
truncated at `cutoff` levels per mode.  Two-mode operators use the kron
convention mode A (x) mode B, so the composite index is m * cutoff + k for
|m, k>.  These routines are deliberately direct (dense eigensolves) so they
can arbitrate disagreements between faster engines.  The unitaries are
exponentials of anti-Hermitian generators, computed exactly through the
eigendecomposition of the Hermitian matrix i * generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import eigvalsh

_TRACE_DEFICIT_LIMIT = 1e-6


class CutoffTooSmallError(ValueError):
    """A truncated construction lost more probability than allowed."""


@dataclass(frozen=True)
class FockDensityMatrix:
    """Two-mode density matrix truncated at `cutoff` levels per mode.

    The trace may fall below 1 by at most 1e-6 (truncation loss); anything
    worse raises CutoffTooSmallError at construction.
    """

    matrix: np.ndarray
    cutoff: int

    def __post_init__(self) -> None:
        n = self.cutoff
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (n * n, n * n):
            raise ValueError(f"matrix shape {mat.shape} does not match cutoff {n}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError("density matrix must be Hermitian")
        tr = float(np.real(np.trace(mat)))
        if tr > 1.0 + 1e-9 or tr < 1.0 - _TRACE_DEFICIT_LIMIT:
            raise CutoffTooSmallError(
                f"trace {tr!r} outside [1 - 1e-6, 1]; raise the cutoff")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def as_modes(self) -> np.ndarray:
        """View as a 4-index tensor rho[m, k, n, l] for |m,k><n,l|."""
        n = self.cutoff
        return self.matrix.reshape(n, n, n, n)


def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def create(cutoff: int) -> np.ndarray:
    return destroy(cutoff).conj().T


def number(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=complex))


def parity(cutoff: int) -> np.ndarray:
    return np.diag(((-1.0) ** np.arange(cutoff)).astype(complex))


def fock_ket(n: int, cutoff: int) -> np.ndarray:
    if not 0 <= n < cutoff:
        raise ValueError(f"level {n} outside cutoff {cutoff}")
    ket = np.zeros(cutoff, dtype=complex)
    ket[n] = 1.0
    return ket


def coherent_ket(alpha: complex, cutoff: int) -> np.ndarray:
    """Exact coherent-state coefficients; the truncated norm is below 1."""
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amp = np.exp(-0.5 * abs(alpha) ** 2) * np.power(complex(alpha), n) / np.exp(0.5 * log_fact)
    return amp.astype(complex)


def expm(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for an anti-Hermitian generator, via eigh of i * gen.

    Raises ValueError for any other input rather than return a wrong
    exponential.
    """
    gen = np.asarray(gen, dtype=complex)
    if np.linalg.norm(gen + gen.conj().T) > 1e-12 * np.linalg.norm(gen):
        raise ValueError("expm needs an anti-Hermitian generator")
    # gen = -i H with H = i gen Hermitian, so exp(gen) = V exp(-i w) V^dag.
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """D(alpha) by exponentiating the truncated generator.

    Truncation corrupts the top of the matrix, so the displacement must stay
    small against the cutoff: |alpha|^2 <= cutoff / 4 is enforced.
    """
    if abs(alpha) ** 2 > cutoff / 4.0:
        raise CutoffTooSmallError(
            f"|alpha|^2 = {abs(alpha) ** 2:.3f} too large for cutoff {cutoff}")
    a = destroy(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def beam_splitter_unitary(theta: float, cutoff: int) -> np.ndarray:
    """Two-mode mixer exp(theta * (a_A a_B^dag - a_A^dag a_B)).

    Number conserving, so exact within the truncated space; at theta = pi/4
    it sends |1,0> to (|1,0> + |0,1>) / sqrt(2).
    """
    a = destroy(cutoff)
    adag = a.conj().T
    gen = np.kron(a, adag) - np.kron(adag, a)
    return expm(theta * gen)


def beam_splitter(rho: FockDensityMatrix, theta: float) -> FockDensityMatrix:
    """State after mixing the modes at angle theta (pi/4: a_pm = (a_A pm a_B)/sqrt 2)."""
    u = beam_splitter_unitary(theta, rho.cutoff)
    out = u @ rho.matrix @ u.conj().T
    if abs(float(np.real(np.trace(out))) - rho.trace) > 1e-8:
        raise CutoffTooSmallError(
            "beam splitter drifted the trace; the mixer must conserve photon number")
    return FockDensityMatrix(matrix=out, cutoff=rho.cutoff)


def tensor(op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    return np.kron(op_a, op_b)


def expectation(rho: FockDensityMatrix | np.ndarray, op: np.ndarray) -> float:
    mat = rho.matrix if isinstance(rho, FockDensityMatrix) else rho
    return float(np.real(np.einsum("ij,ji->", mat, op)))


def partial_transpose(rho: FockDensityMatrix | np.ndarray, cutoff: int | None = None) -> np.ndarray:
    """Transpose mode B: rho[m,k,n,l] -> rho[m,l,n,k].  Output may be non-positive."""
    if isinstance(rho, FockDensityMatrix):
        mat, n = rho.matrix, rho.cutoff
    else:
        mat = np.asarray(rho)
        n = cutoff or int(round(math.sqrt(mat.shape[0])))
    r4 = mat.reshape(n, n, n, n)
    return r4.transpose(0, 3, 2, 1).reshape(n * n, n * n)


def min_eigenvalue(mat: np.ndarray) -> float:
    herm = 0.5 * (mat + mat.conj().T)
    return float(eigvalsh(herm)[0])


def partial_trace(rho: FockDensityMatrix | np.ndarray, keep: str,
                  cutoff: int | None = None) -> np.ndarray:
    """Trace out one mode; keep is "a" or "b"."""
    if isinstance(rho, FockDensityMatrix):
        mat, n = rho.matrix, rho.cutoff
    else:
        mat = np.asarray(rho)
        n = cutoff or int(round(math.sqrt(mat.shape[0])))
    r4 = mat.reshape(n, n, n, n)
    if keep == "a":
        return np.einsum("mknk->mn", r4)
    if keep == "b":
        return np.einsum("mkml->kl", r4)
    raise ValueError("keep must be 'a' or 'b'")


def purity(mat: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", mat, mat)))


def displaced_parity_point(rho: FockDensityMatrix, xi) -> float:
    """Wigner value at the 4-point xi from displaced-parity expectations.

    Builds D(alpha) Pi D(alpha)^dag per mode with alpha = (x + i p) / 2 and
    returns Tr[rho (Op_A x Op_B)] / (2 pi)^2.  This is the arbitration route
    for the Fock Wigner engine.
    """
    x_a, p_a, x_b, p_b = (float(v) for v in xi)
    n = rho.cutoff
    pi_op = parity(n)
    d_a = displacement(0.5 * (x_a + 1j * p_a), n)
    d_b = displacement(0.5 * (x_b + 1j * p_b), n)
    op_a = d_a @ pi_op @ d_a.conj().T
    op_b = d_b @ pi_op @ d_b.conj().T
    val = expectation(rho, tensor(op_a, op_b))
    return val / (2.0 * math.pi) ** 2


def _read_only(op: np.ndarray) -> np.ndarray:
    """Freeze an lru_cached operator: every caller shares the same array."""
    op.flags.writeable = False
    return op


@lru_cache(maxsize=32)
def pseudospin_z(cutoff: int) -> np.ndarray:
    return _read_only(parity(cutoff))


@lru_cache(maxsize=32)
def pseudospin_x(cutoff: int) -> np.ndarray:
    if cutoff % 2:
        raise ValueError("pseudospin operators need an even cutoff")
    op = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(0, cutoff, 2):
        op[m, m + 1] = 1.0
        op[m + 1, m] = 1.0
    return _read_only(op)


@lru_cache(maxsize=32)
def pseudospin_y(cutoff: int) -> np.ndarray:
    # Sign fixed by pseudospin_x @ pseudospin_y == 1j * pseudospin_z.
    if cutoff % 2:
        raise ValueError("pseudospin operators need an even cutoff")
    op = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(0, cutoff, 2):
        op[m + 1, m] = 1j
        op[m, m + 1] = -1j
    return _read_only(op)


def _attenuator_amplitudes(eta: float, cutoff: int) -> np.ndarray:
    """amp[m, k]: amplitude for |m> -> |m - k| under transmissivity eta."""
    amp = np.zeros((cutoff, cutoff))
    for m in range(cutoff):
        for k in range(m + 1):
            amp[m, k] = math.sqrt(math.comb(m, k) * (1.0 - eta) ** k * eta ** (m - k))
    return amp


def _amplifier_amplitudes(r: float, cutoff: int) -> np.ndarray:
    """amp[m, l]: amplitude for |m> -> |m + l| under gain cosh(r)^2."""
    t, sech = math.tanh(r), 1.0 / math.cosh(r)
    amp = np.zeros((cutoff, cutoff))
    for m in range(cutoff):
        for l in range(cutoff - m):
            amp[m, l] = math.sqrt(math.comb(m + l, l)) * t ** l * sech ** (m + 1)
    return amp


def apply_attenuator_mode_a(rho4: np.ndarray, eta: float) -> np.ndarray:
    """Quantum-limited attenuator on mode A of a two-mode tensor rho[m,k,n,l]."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta!r}")
    if eta == 1.0:
        return rho4.copy()
    n = rho4.shape[0]
    amp = _attenuator_amplitudes(eta, n)
    out = np.zeros_like(rho4)
    for k in range(n):
        w = amp[k:, k]
        blk = rho4[k:, :, k:, :]
        out[:n - k, :, :n - k, :] += (w[:, None, None, None] * w[None, None, :, None]) * blk
    return out


def apply_amplifier_mode_a(rho4: np.ndarray, r: float) -> np.ndarray:
    """Quantum-limited amplifier (gain cosh(r)^2) on mode A; loses trace at the top."""
    if r < 0:
        raise ValueError(f"gain parameter must be nonnegative, got {r!r}")
    if r == 0.0:
        return rho4.copy()
    n = rho4.shape[0]
    amp = _amplifier_amplitudes(r, n)
    out = np.zeros_like(rho4)
    for l in range(n):
        w = amp[:n - l, l]
        blk = rho4[:n - l, :, :n - l, :]
        out[l:, :, l:, :] += (w[:, None, None, None] * w[None, None, :, None]) * blk
    return out
