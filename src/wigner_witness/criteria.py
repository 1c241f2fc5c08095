"""Entanglement criteria evaluated on Wigner fields and their reference checks.

The three slice criteria bound, for every separable two-mode state, the
integral of W along a correlated cut of phase space:

  I    integral of W(x cos, p cos, x' sin, p' sin) over (x, p)  <= 1/(2 pi)
  II   same integrand in absolute value over a region R         <= 1/(2 pi |sin 2 theta|)
  III  integral of W(x, p, x', p') over (x, p)                  >= 0

with (x', p') an arbitrary unit-determinant affine map of (x, p).  The
output-mode purity check feeds mode B through a p-reflection and a
beam-splitter and bounds 4 pi times the squared reduced Wigner function by 1.
Reference checks (Simon, Duan, PPT, pseudospin EPR, CHSH) operate on
covariance matrices or truncated density matrices instead of fields.

Every evaluator returns a CriterionReport; a violation verdict requires
breaching the bound by more than the reported error estimate, so boundary
cases always come back "not violated".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FULL_PLANE, P_REFLECT, Region, Transform2, check_theta
from .oracle import (
    FockDensityMatrix,
    beam_splitter_unitary,
    expectation,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    pseudospin_x,
    pseudospin_y,
    pseudospin_z,
    purity,
    tensor,
)
from .quadrature import Box, QuadratureSpec, _err_floor, integrate
from .wigner import (
    WignerField, _plain_gaussians, diagonal_slice, integrate_slice, make_slice,
    reduced_mode_wigner,
)

_TWO_PI = 2.0 * math.pi
# Tr[rho D(Pi x Pi)D+] = (2 pi)^2 W(2 Re a_A, 2 Im a_A, ...) in this Wigner
# scaling; the factor is pinned by a calibration test against the Fock oracle.
_PARITY_SCALE = _TWO_PI ** 2

CRITERION_IDS = ("C1", "C2", "C3", "PurityS1", "Simon", "Duan",
                 "PPT", "PseudospinEPR", "BellCHSH")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion evaluation, with the settings that produced it."""

    criterion_id: str
    value: float
    bound: float
    violated: bool
    transform: Transform2 | None = None
    theta: float | None = None
    region: Region | None = None
    error_estimate: float = 0.0

    def __post_init__(self) -> None:
        if self.criterion_id not in CRITERION_IDS:
            raise ValueError(f"unknown criterion_id {self.criterion_id!r}")

    def to_dict(self) -> dict:
        t = self.transform
        return {
            "criterion": self.criterion_id,
            "value": float(self.value),
            "bound": float(self.bound),
            "violated": bool(self.violated),
            "transform": None if t is None else {
                "a": t.a, "b": t.b, "c": t.c, "d": t.d, "x0": t.x0, "p0": t.p0},
            "theta": self.theta,
            "region": None if self.region is None else self.region.to_dict(),
            "error_estimate": self.error_estimate,
        }


def criterion1(w: WignerField, t: Transform2, theta: float,
               spec: QuadratureSpec | None = None) -> CriterionReport:
    """Signed slice integral against the separable bound 1/(2 pi); the error
    estimate follows the route integrate_slice takes."""
    check_theta(theta, exclude_degenerate=True)
    bound = 1.0 / _TWO_PI
    res = integrate_slice(make_slice(w, t, theta), spec)
    return CriterionReport("C1", res.value, bound, res.value > bound + res.error_estimate,
                           transform=t, theta=theta, error_estimate=res.error_estimate)


def criterion2(w: WignerField, t: Transform2, theta: float,
               region: Region = FULL_PLANE,
               spec: QuadratureSpec | None = None) -> CriterionReport:
    """Absolute slice integral over a region, bound 1/(2 pi |sin 2 theta|)."""
    check_theta(theta, exclude_degenerate=True)
    bound = 1.0 / (_TWO_PI * abs(math.sin(2.0 * theta)))
    res = integrate_slice(make_slice(w, t, theta), spec, absolute=True, region=region)
    return CriterionReport("C2", res.value, bound, res.value > bound + res.error_estimate,
                           transform=t, theta=theta, region=region,
                           error_estimate=res.error_estimate)


def criterion3(w: WignerField, t: Transform2,
               spec: QuadratureSpec | None = None) -> CriterionReport:
    """Unscaled diagonal integral of W(x, p, t(x, p)); nonnegative if separable."""
    res = integrate_slice(diagonal_slice(w, t), spec)
    return CriterionReport("C3", res.value, 0.0, res.value < -res.error_estimate,
                           transform=t, error_estimate=res.error_estimate)


def _purity_gaussian(w: WignerField, theta: float) -> float:
    """4 pi times the squared integral of the reduced output-mode mixture.

    Each component reduces to a normalized single-mode Gaussian: integrating
    the four-variable component over the beam-splitter input variables leaves
    a Gaussian in the output pair whose total mass is preserved because the
    mixing map has unit Jacobian.
    """
    ct, st = math.cos(theta), math.sin(theta)
    # Output coordinates u = (X, P): the slice argument is A u + B v with v
    # the integrated pair; the p-reflection on mode B is baked into rows 3-4.
    a_mat = np.array([[st, 0.0], [0.0, st], [-ct, 0.0], [0.0, ct]])
    b_mat = np.array([[ct, 0.0], [0.0, ct], [st, 0.0], [0.0, -st]])
    comps = []
    for (weight, mu, _, _), (prec, _, _, _) in zip(w.terms, w.precisions):
        m1 = b_mat.T @ prec @ b_mat
        jt = prec - prec @ b_mat @ np.linalg.inv(m1) @ b_mat.T @ prec
        p_out = a_mat.T @ jt @ a_mat
        u_cov = np.linalg.inv(p_out)
        center = u_cov @ (a_mat.T @ jt @ mu)
        comps.append((weight, center, u_cov))
    total = 0.0
    for wi, ci, ui in comps:
        for wj, cj, uj in comps:
            s = ui + uj
            diff = ci - cj
            quad = float(diff @ np.linalg.solve(s, diff))
            total += wi * wj * math.exp(-0.5 * quad) / (
                _TWO_PI * math.sqrt(np.linalg.det(s)))
    return 4.0 * math.pi * total


def _purity_fock(rho: FockDensityMatrix, theta: float) -> float:
    """Output-mode purity through the Fock basis.

    The partial transpose is conjugated by the number-conserving mixer, so the
    matrix is first padded to twice the cutoff: every total-photon sector of
    the original truncation then lies fully inside the padded space and the
    mixing is exact.  The criterion's mixing matrix factors as the
    inverse-angle unitary's phase-space action times a sign flip of the output
    pair, and the flip leaves the reduced purity unchanged.
    """
    n = rho.cutoff
    big = 2 * n - 1
    padded = np.zeros((big, big, big, big), dtype=complex)
    padded[:n, :n, :n, :n] = rho.as_modes()
    pt = partial_transpose(padded.reshape(big * big, big * big), cutoff=big)
    u = beam_splitter_unitary(-theta, big)
    out = u @ pt @ u.conj().T
    reduced = partial_trace(out, keep="b", cutoff=big)
    return purity(reduced)


def purity_s1(w: WignerField, theta: float,
              spec: QuadratureSpec | None = None) -> CriterionReport:
    """Purity of the output mode after p-reflecting mode B and mixing at theta.

    Values above 1 certify entanglement: no separable input can yield a purer
    than pure reduced mode.  Gaussian mixtures evaluate in closed form, fields
    backed by a density matrix go through exact Fock algebra, and other
    fields fall back to a nested quadrature: an outer rule over the reduced
    mode, whose whole blocks of nodes go to the inner slice integrals at once.
    """
    check_theta(theta)
    if _plain_gaussians(w.terms):
        value = _purity_gaussian(w, theta)
        err = _err_floor(value)
    elif w.rho is not None:
        value = _purity_fock(w.rho, theta)
        err = _err_floor(value)
    else:
        base = spec if spec is not None else QuadratureSpec()
        reduced = reduced_mode_wigner(w, theta, P_REFLECT, spec=base)
        ct, st = math.cos(theta), math.sin(theta)
        env = w.envelope
        cx = st * env.center[0] - ct * env.center[2]
        cp = st * env.center[1] + ct * env.center[3]
        half = (abs(st) + abs(ct)) * env.halfwidth
        inner_err = 0.0

        def integrand(x, p):
            nonlocal inner_err
            inner = reduced(x, p)
            inner_err = max(inner_err, float(np.max(inner.error_estimate)))
            return inner.value ** 2

        # The reduced mode is usually far narrower than the conservative
        # image box, so locate its support on a lattice before spending
        # inner quadratures on empty cells.
        n_scout = 25
        gx = np.linspace(cx - half, cx + half, n_scout)
        gp = np.linspace(cp - half, cp + half, n_scout)
        scout = integrand(gx[:, None], gp[None, :])
        peak = float(np.max(scout))
        box = Box(cx=cx, cp=cp, hx=half, hp=half)
        if peak > 0.0:
            live = scout >= peak * 1e-8
            pad = 2.0 * (gx[1] - gx[0])
            xlo, xhi = gx[live.any(axis=1)][[0, -1]]
            plo, phi = gp[live.any(axis=0)][[0, -1]]
            box = Box(cx=0.5 * (xlo + xhi), cp=0.5 * (plo + phi),
                      hx=0.5 * (xhi - xlo) + pad, hp=0.5 * (phi - plo) + pad)
        # The outer order has a floor: below about 48 nodes per axis the
        # 3/4-order rung on the scouted box understates the outer error (Werner
        # phi+ at 16 gives 0.757 +- 0.57 against 1.43875), and exact inner
        # integrals make outer nodes cheap.
        res = integrate(integrand, spec=QuadratureSpec(
            order=max(48, base.order), tolerance=base.tolerance, box=box))
        # Outer nodes see f + delta, |delta| <= e, so sum(w (f + delta)^2) moves by
        # at most 2 e sum(w |f|) + e^2 A, and sum(w |f|) <= sqrt(A I) by
        # Cauchy-Schwarz: the weights are positive and sum to the box area A.
        area = 4.0 * box.hx * box.hp
        value = 4.0 * math.pi * res.value
        err = 4.0 * math.pi * (res.error_estimate + inner_err * (
            2.0 * math.sqrt(area * res.value) + inner_err * area))
    return CriterionReport("PurityS1", value, 1.0, value > 1.0 + err,
                           transform=P_REFLECT, theta=theta, error_estimate=err)


# Rounding of the Simon eigenvalue in units of eps ||V||_F.  Forming V from
# its parameters rounds each entry once or twice, and a Hermitian eigensolver
# is backward stable with a perturbation of a few eps ||A||_2 for a 4x4
# matrix; by Weyl's inequality each moves the eigenvalue by at most its norm,
# and ||.||_2 <= ||.||_F.  16 covers both with a margin of two.
_SIMON_ROUNDING = 16.0 * float(np.finfo(float).eps)


def simon_check(g) -> CriterionReport:
    """Smallest eigenvalue of V + i Omega-tilde; negative means entangled.

    The error is the rounding bound max(1e-10, 16 eps ||V||_F), which grows
    with the squeezing: at s = 20 the entries of V are about 1e17.
    """
    omega_tilde = np.zeros((4, 4))
    omega_tilde[0, 1], omega_tilde[1, 0] = 1.0, -1.0
    omega_tilde[2, 3], omega_tilde[3, 2] = -1.0, 1.0
    cov = np.asarray(g.cov, dtype=float)
    value = min_eigenvalue(cov + 1j * omega_tilde)
    err = max(1e-10, _SIMON_ROUNDING * float(np.linalg.norm(cov)))
    return CriterionReport("Simon", value, 0.0, value < -err, error_estimate=err)


def duan_check(g) -> CriterionReport:
    """EPR-pair variance sum, minimized over the two sign pairings; bound 4.

    Var[x_A + x_B] + Var[p_A - p_B] certifies states correlated in x and
    anticorrelated in p; the opposite pairing covers the mirrored case, and a
    separable state satisfies both.
    """
    v = np.asarray(g.cov, dtype=float)
    plus_minus = v[0, 0] + v[2, 2] + 2 * v[0, 2] + v[1, 1] + v[3, 3] - 2 * v[1, 3]
    minus_plus = v[0, 0] + v[2, 2] - 2 * v[0, 2] + v[1, 1] + v[3, 3] + 2 * v[1, 3]
    value = min(plus_minus, minus_plus)
    return CriterionReport("Duan", value, 4.0, value < 4.0 - 1e-10,
                           error_estimate=1e-10)


def ppt_check(rho: FockDensityMatrix) -> CriterionReport:
    """Minimum eigenvalue of the partial transpose over mode B."""
    value = min_eigenvalue(partial_transpose(rho))
    return CriterionReport("PPT", value, 0.0, value < -1e-10,
                           error_estimate=1e-10)


def pseudospin_epr(rho: FockDensityMatrix) -> CriterionReport:
    """Sum of squared pseudospin correlators; above 1 certifies steering."""
    n = rho.cutoff
    value = 0.0
    for op in (pseudospin_z(n), pseudospin_x(n), pseudospin_y(n)):
        corr = expectation(rho, tensor(op, op))
        value += corr * corr
    return CriterionReport("PseudospinEPR", value, 1.0, value > 1.0 + 1e-8,
                           error_estimate=1e-8)


def bell_chsh(w: WignerField, alphas) -> CriterionReport:
    """CHSH combination of displaced-parity correlators read off the field.

    alphas is (alpha_a, alpha_a2, alpha_b, alpha_b2); each correlator is
    (2 pi)^2 times the Wigner value at phase-space point (2 Re a, 2 Im a) per
    mode.  |B| above 2 is a Bell violation.
    """
    a1, a2, b1, b2 = (complex(a) for a in alphas)

    def corr(alpha_a: complex, alpha_b: complex) -> float:
        return _PARITY_SCALE * float(w.evaluate(
            2.0 * alpha_a.real, 2.0 * alpha_a.imag,
            2.0 * alpha_b.real, 2.0 * alpha_b.imag))

    bell = corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2)
    value = abs(bell)
    return CriterionReport("BellCHSH", value, 2.0, value > 2.0 + 1e-8,
                           error_estimate=1e-8)
