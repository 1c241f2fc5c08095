"""Factories for the state families under study.

Each family is available in whichever backends apply: Gaussian covariance
data (squeezed thermal states), closed-form four-variable Wigner functions
(Werner and dephased-cat states) and truncated Fock density matrices (all
families, used for oracle cross-checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .oracle import CutoffTooSmallError, FockDensityMatrix
from .wigner import Envelope, Poly, WignerField, gaussian_wigner

_TWO_PI = 2.0 * math.pi
# The unit covariance of the Werner and cat terms, one read-only array that
# every such field shares.
_UNIT_COV = np.eye(4)
_UNIT_COV.flags.writeable = False

# Two-mode symplectic form in the (x_A, p_A, x_B, p_B) ordering.
_OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


@dataclass(frozen=True)
class GaussianTwoMode:
    """Zero-or-displaced Gaussian state: mean 4-vector and covariance matrix.

    Physicality (cov + i*Omega positive semidefinite) is enforced at
    construction; the vacuum saturates it with cov = identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mean, dtype=float).reshape(4)
        v = np.asarray(self.cov, dtype=float).reshape(4, 4)
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        herm = v + 1j * _OMEGA
        lowest = float(np.linalg.eigvalsh(0.5 * (herm + herm.conj().T))[0])
        if lowest < -1e-10:
            raise ValueError(
                f"covariance matrix is unphysical: min eig(V + i Omega) = {lowest:.3e}")
        mu.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", v)


def standard_form(n: float, m: float, c1: float, c2: float) -> GaussianTwoMode:
    """Gaussian state with cov diag-blocks n*I, m*I and off-block diag(c1, c2)."""
    if not all(math.isfinite(v) for v in (n, m, c1, c2)):
        raise ValueError(f"standard-form entries must be finite, got {(n, m, c1, c2)!r}")
    v = np.array([
        [n, 0.0, c1, 0.0],
        [0.0, n, 0.0, c2],
        [c1, 0.0, m, 0.0],
        [0.0, c2, 0.0, m],
    ])
    return GaussianTwoMode(mean=np.zeros(4), cov=v)


def standard_form_params(g: GaussianTwoMode) -> tuple[float, float, float, float]:
    """Extract (n, m, c1, c2); raises when the covariance is not standard form."""
    v = g.cov
    pattern = standard_form(v[0, 0], v[2, 2], v[0, 2], v[1, 3]).cov
    if np.max(np.abs(v - pattern)) > 1e-10:
        raise ValueError("covariance matrix is not in standard form")
    return float(v[0, 0]), float(v[2, 2]), float(v[0, 2]), float(v[1, 3])


def vacuum() -> GaussianTwoMode:
    return GaussianTwoMode(mean=np.zeros(4), cov=np.eye(4))


@dataclass(frozen=True)
class TmstParams:
    """Squeezed-thermal family: squeezing s, transmissivity eta, gain knob r."""

    s: float
    eta: float = 1.0
    r: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.s < math.inf:
            raise ValueError(f"squeezing must be finite and nonnegative, got {self.s!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"transmissivity must be in (0, 1], got {self.eta!r}")
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"gain parameter must be finite and nonnegative, got {self.r!r}")
        # The covariance grows like exp(2 s + 2 r); past this it overflows a float.
        if self.s + self.r > 350.0:
            raise ValueError(f"squeezing plus gain must be at most 350, got "
                             f"s = {self.s!r}, r = {self.r!r}")


@dataclass(frozen=True)
class WernerParams:
    """Bell-state/identity mixture on the two-level Fock subspace."""

    bell: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.bell not in ("phi+", "psi+"):
            raise ValueError(f"bell must be 'phi+' or 'psi+', got {self.bell!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class CatParams:
    """Even/odd two-mode coherent superposition under partial dephasing.

    epsilon is the surviving coherence weight: 1 keeps the pure
    superposition, 0 leaves the classical two-lobe mixture.
    """

    gamma: float
    epsilon: float
    sign: str = "plus"

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon!r}")
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if self.sign == "minus" and self.gamma == 0.0:
            raise ValueError("odd superposition is singular at gamma = 0")


def tmst_covariance(p: TmstParams) -> GaussianTwoMode:
    """Standard form of the squeezed state sent through loss then gain on mode A."""
    ch2s, sh2s = math.cosh(2.0 * p.s), math.sinh(2.0 * p.s)
    chr2 = math.cosh(p.r) ** 2
    n = p.eta * chr2 * ch2s + (1.0 - p.eta) * chr2 + math.sinh(p.r) ** 2
    m = ch2s
    c = math.sqrt(p.eta) * math.cosh(p.r) * sh2s
    return standard_form(n, m, c, -c)


def tmsv_covariance(s: float) -> GaussianTwoMode:
    """Pure two-mode squeezed vacuum: n = m = cosh(2s), c1 = -c2 = sinh(2s)."""
    return tmst_covariance(TmstParams(s=s))


def werner_wigner(p: WernerParams) -> WignerField:
    """Closed-form Wigner function of the Bell/identity mixture.

    W = bracket(xi) exp(-|xi|^2/2) / (16 pi^2) with a quartic bracket, which
    is one term: weight 1/4, the vacuum Gaussian and the bracket as poly.
    """
    eps = p.epsilon
    norm = 1.0 / (16.0 * math.pi ** 2)
    is_phi = p.bell == "phi+"

    def bracket(xa, pa, xb, pb):
        ra2 = xa * xa + pa * pa
        rb2 = xb * xb + pb * pb
        quartic = ra2 * rb2
        if is_phi:
            return ((1.0 + eps) * quartic + 4.0 * eps * (xa * xb - pa * pb)
                    - 2.0 * eps * (ra2 + rb2) + 4.0 * eps)
        return ((1.0 - eps) * quartic + 4.0 * eps * (xa * xb + pa * pb)
                + 2.0 * eps * (ra2 + rb2) - 4.0 * eps)

    def evaluate(x_a, p_a, x_b, p_b):
        xa, pa, xb, pb = (np.asarray(v, dtype=float) for v in (x_a, p_a, x_b, p_b))
        ra2 = xa * xa + pa * pa
        rb2 = xb * xb + pb * pb
        return norm * bracket(xa, pa, xb, pb) * np.exp(-0.5 * (ra2 + rb2))

    env = Envelope(center=np.zeros(4), halfwidth=8.0 * math.sqrt(3.0))
    terms = ((0.25, np.zeros(4), _UNIT_COV, Poly(4, bracket)),)
    return WignerField(evaluate=evaluate, backend="closed-form", envelope=env, terms=terms)


def cat_wigner(p: CatParams) -> WignerField:
    """Closed-form Wigner function of the dephased coherent superposition.

    All exponents are kept nonpositive (the lobe displacement term is folded
    into the exponentials) so large gamma stays overflow-free.  As terms the
    field is four unit-covariance Gaussians: lobes at +-(2g, 0, 2g, 0) and
    fringes at +-i(0, 2g, 0, 2g), whose e^(-4 g^2) is the complex mean's own
    exponent (Bourassa et al., PRX Quantum 2, 040315 (2021)).
    """
    gamma, eps = p.gamma, p.epsilon
    sgn = 1.0 if p.sign == "plus" else -1.0
    q = math.exp(-4.0 * gamma * gamma)
    denom = 8.0 * math.pi ** 2 * (1.0 + sgn * q)
    lobe_w = 1.0 + sgn * (1.0 - eps) * q

    def evaluate(x_a, p_a, x_b, p_b):
        xa, pa, xb, pb = (np.asarray(v, dtype=float) for v in (x_a, p_a, x_b, p_b))
        half_sig = 0.5 * (xa * xa + pa * pa + xb * xb + pb * pb)
        s_x = xa + xb
        s_p = pa + pb
        g4 = 4.0 * gamma * gamma
        lobes = (np.exp(2.0 * gamma * s_x - g4 - half_sig)
                 + np.exp(-2.0 * gamma * s_x - g4 - half_sig))
        fringe = 2.0 * eps * np.cos(2.0 * gamma * s_p) * np.exp(-half_sig)
        return (lobe_w * lobes + sgn * fringe) / denom

    halfwidth = 8.0 * math.sqrt(4.0 * gamma * gamma + 1.0)
    env = Envelope(center=np.zeros(4), halfwidth=halfwidth)
    # N integrates to 1 over phase space, so the weights are (2 pi)^2 / denom
    # times each term's coefficient in W.  At epsilon = 0 the fringes weigh
    # nothing and are left out, so the two lobes count as plain Gaussians.
    lobe = np.array([2.0 * gamma, 0.0, 2.0 * gamma, 0.0])
    fringe = np.array([0.0, 2.0j * gamma, 0.0, 2.0j * gamma])
    unit = _TWO_PI ** 2 / denom
    terms = tuple((weight, mean, _UNIT_COV, None) for weight, mean in (
        (unit * lobe_w, lobe), (unit * lobe_w, -lobe),
        (unit * sgn * eps, fringe), (unit * sgn * eps, -fringe)) if weight != 0.0)
    return WignerField(evaluate=evaluate, backend="closed-form", envelope=env, terms=terms)


def default_cutoff(spec) -> int:
    """Fock truncation keeping the trace deficit inside the validation window.

    Rounded up to an even level count so parity-block operators always fit.
    """
    if isinstance(spec, WernerParams):
        return 2
    if isinstance(spec, TmstParams):
        n = math.ceil(10.0 + 20.0 * spec.s + 12.0 * spec.r)
    elif isinstance(spec, CatParams):
        n = math.ceil(spec.gamma ** 2 + 6.0 * spec.gamma + 10.0)
    else:
        raise TypeError(f"no default cutoff for {type(spec).__name__}")
    return n + n % 2


def _werner_fock(p: WernerParams, cutoff: int) -> FockDensityMatrix:
    if cutoff < 2:
        raise CutoffTooSmallError("Werner states need at least two Fock levels")
    dim = cutoff * cutoff

    def basis(m: int, k: int) -> np.ndarray:
        vec = np.zeros(dim, dtype=complex)
        vec[m * cutoff + k] = 1.0
        return vec

    if p.bell == "phi+":
        psi = (basis(0, 0) + basis(1, 1)) / math.sqrt(2.0)
    else:
        psi = (basis(0, 1) + basis(1, 0)) / math.sqrt(2.0)
    rho = p.epsilon * np.outer(psi, psi.conj())
    for m in (0, 1):
        for k in (0, 1):
            vec = basis(m, k)
            rho += (1.0 - p.epsilon) / 4.0 * np.outer(vec, vec.conj())
    return FockDensityMatrix(matrix=rho, cutoff=cutoff)


def _tmsv_fock_vector(s: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    coef = np.tanh(s) ** n / math.cosh(s) if s > 0 else (n == 0).astype(float)
    vec = np.zeros(cutoff * cutoff, dtype=complex)
    vec[n * cutoff + n] = coef
    return vec


def _tmst_fock(p: TmstParams, cutoff: int) -> FockDensityMatrix:
    vec = _tmsv_fock_vector(p.s, cutoff)
    rho4 = np.outer(vec, vec.conj()).reshape(cutoff, cutoff, cutoff, cutoff)
    if p.eta < 1.0:
        rho4 = oracle.apply_attenuator_mode_a(rho4, p.eta)
    if p.r > 0.0:
        rho4 = oracle.apply_amplifier_mode_a(rho4, p.r)
    return FockDensityMatrix(matrix=rho4.reshape(cutoff ** 2, cutoff ** 2), cutoff=cutoff)


def _cat_fock(p: CatParams, cutoff: int) -> FockDensityMatrix:
    plus_ket = oracle.coherent_ket(p.gamma, cutoff)
    minus_ket = oracle.coherent_ket(-p.gamma, cutoff)
    big = np.kron(plus_ket, plus_ket)
    small = np.kron(minus_ket, minus_ket)
    sgn = 1.0 if p.sign == "plus" else -1.0
    q = math.exp(-4.0 * p.gamma ** 2)
    psi = (big + sgn * small) / math.sqrt(2.0 * (1.0 + sgn * q))
    rho = p.epsilon * np.outer(psi, psi.conj())
    rho += (1.0 - p.epsilon) / 2.0 * (np.outer(big, big.conj())
                                      + np.outer(small, small.conj()))
    return FockDensityMatrix(matrix=rho, cutoff=cutoff)


def state_to_fock(spec, cutoff: int | None = None) -> FockDensityMatrix:
    """Truncated density matrix for any state family; cutoff defaults per family."""
    n = cutoff if cutoff is not None else default_cutoff(spec)
    if isinstance(spec, WernerParams):
        return _werner_fock(spec, n)
    if isinstance(spec, TmstParams):
        return _tmst_fock(spec, n)
    if isinstance(spec, CatParams):
        return _cat_fock(spec, n)
    raise TypeError(f"cannot build a Fock matrix from {type(spec).__name__}")


def state_to_wigner(spec) -> WignerField:
    """Preferred analytic Wigner field for any state family."""
    if isinstance(spec, GaussianTwoMode):
        return gaussian_wigner(spec)
    if isinstance(spec, TmstParams):
        return gaussian_wigner(tmst_covariance(spec))
    if isinstance(spec, WernerParams):
        return werner_wigner(spec)
    if isinstance(spec, CatParams):
        return cat_wigner(spec)
    raise TypeError(f"cannot build a Wigner field from {type(spec).__name__}")
