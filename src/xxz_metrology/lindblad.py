"""Liouvillian superoperator, brute-force steady state, closed-form NESS.

Vectorization is column-stacking throughout: vec(X rho Y) corresponds to
(Y^T kron X) vec(rho), and vec(rho) = rho.flatten(order='F').
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import svd
from scipy.optimize import minimize_scalar

from .model import (ChainParams, hamiltonian_xxz, hs_norm, lindblad_jump_ops,
                    magnetization_z)
from .mpo import build_aux_A, build_aux_B, contract_to_dense, solve_s, validity_threshold

LIOUVILLIAN_CAP = 6  # 4**6 x 4**6 superoperator is the largest we build densely
CALIBRATION_TOL = 1e-8  # largest ||L(rho)||_HS calibrate_epsilon accepts


@dataclass
class Liouvillian:
    """Dense superoperator matrix acting on column-stacked density matrices."""

    n: int
    matrix: np.ndarray
    params: ChainParams


def _effective_hamiltonian(params: ChainParams) -> np.ndarray:
    H = params.j_coupling * hamiltonian_xxz(params)
    if params.omega != 0.0:
        H = H + params.omega / 2 * magnetization_z(params.n)
    return H


def build_liouvillian(params: ChainParams) -> Liouvillian:
    """Generator of the master equation as a 4**n x 4**n matrix."""
    n = params.n
    if n > LIOUVILLIAN_CAP:
        raise ValueError(f"dense Liouvillian capped at n <= {LIOUVILLIAN_CAP}, got {n}")
    d = 2 ** n
    H = _effective_hamiltonian(params)
    eye = np.eye(d, dtype=complex)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for jump in lindblad_jump_ops(params):
        jdj = jump.conj().T @ jump
        L += params.lam * (np.kron(jump.conj(), jump)
                           - 0.5 * np.kron(eye, jdj)
                           - 0.5 * np.kron(jdj.T, eye))
    return Liouvillian(n=n, matrix=L, params=params)


def apply_liouvillian(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """Action of the generator on a density matrix, without the big matrix.

    Usable up to the dense-operator cap, past where the 4**n x 4**n
    matrix stops being practical.
    """
    H = _effective_hamiltonian(params)
    out = -1j * (H @ rho - rho @ H)
    for jump in lindblad_jump_ops(params):
        jdj = jump.conj().T @ jump
        out += params.lam * (jump @ rho @ jump.conj().T
                             - 0.5 * (jdj @ rho + rho @ jdj))
    return out


def steady_state_nullspace(liouv: Liouvillian) -> np.ndarray:
    """Unique unit-trace hermitian null vector of the Liouvillian.

    Extracted as the right-singular vector of the smallest singular
    value; raises when the null space is not one-dimensional (lambda = 0
    or numerical degeneracy).
    """
    if liouv.params.lam <= 0:
        raise ValueError("uniqueness of the steady state needs lambda > 0")
    d = 2 ** liouv.n
    _, s, vh = svd(liouv.matrix)
    scale = s[0]
    if s[-2] < 1e-10 * scale:
        raise ValueError(
            f"null space dimension != 1 (second singular value {s[-2]:.2e} "
            f"vs scale {scale:.2e})")
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    residual = hs_norm(apply_liouvillian(rho, liouv.params))
    if residual > 1e-10 * scale:
        raise ArithmeticError(f"steady-state residual {residual:.2e} too large")
    return rho


def ness_perturbative(params: ChainParams, return_diagnostics: bool = False):
    """Second-order weak-coupling steady state from the MPO operator Z.

    rho = 2^-n [ 1 + i (lam/2J) mu (Z - Z+)
                 + lam^2/(8 J^2) (mu [Z, Z+] - mu^2 (Z - Z+)^2) ],

    renormalized to unit trace afterwards; the pre-normalization trace
    defect (an O((lam/J)^2) diagnostic) is reported on request.  Emits a
    warning when lambda/J violates the validity threshold.
    """
    n, J, lam, mu = params.n, params.j_coupling, params.lam, params.mu
    if mu != 0.0 and lam > 0.0:
        thr_log = validity_threshold(n, params.eta, mu).log
        if math.log(lam / J) >= thr_log:
            warnings.warn(
                f"lambda/J = {lam / J:.3g} exceeds the validity threshold "
                f"exp({thr_log:.3g}); the expansion is uncontrolled here")
    Z = contract_to_dense(build_aux_A(n, params.eta), n)
    Zd = Z.conj().T
    comm = Z @ Zd - Zd @ Z
    anti = (Z - Zd) @ (Z - Zd)
    dim = 2 ** n
    rho = (np.eye(dim, dtype=complex)
           + 1j * lam / (2 * J) * mu * (Z - Zd)
           + lam ** 2 / (8 * J ** 2) * (mu * comm - mu ** 2 * anti)) / dim
    trace = np.trace(rho).real
    rho = rho / trace
    if return_diagnostics:
        return rho, {"trace_defect": trace - 1.0}
    return rho


def ness_mu1(params: ChainParams, epsilon: float) -> np.ndarray:
    """Non-perturbative steady state at extreme driving mu = 1.

    rho = S S+ / Tr(S S+) with S contracted from the B family at
    s solving cot(s eta) = epsilon/(4 i sin eta).  Positive semidefinite
    and unit trace by construction.
    """
    if params.mu != 1.0:
        raise ValueError("closed-form non-perturbative NESS requires mu = 1")
    s = solve_s(epsilon, params.eta)
    S = contract_to_dense(build_aux_B(params.n, params.eta, s), params.n)
    rho = S @ S.conj().T
    tr = np.trace(rho).real
    if tr <= 0:
        raise ArithmeticError("S S+ has non-positive trace; contraction degenerate")
    return rho / tr


class EpsilonCalibration(NamedTuple):
    epsilon: float
    residual: float
    seed_residuals: dict[float, float]


def calibrate_epsilon(params: ChainParams) -> EpsilonCalibration:
    """Resolve the undefined coupling epsilon of the mu = 1 solution.

    Minimizes ||L(ness_mu1(eps))||_HS over eps, seeding the search with
    the natural candidates {lam/J, lam/2J, 2 lam/J}.  Empirically the
    exact mapping is eps = lam/J (machine-precision residual); the
    calibration keeps that claim honest and raises if nothing reaches
    CALIBRATION_TOL.
    """
    if params.mu != 1.0:
        raise ValueError("epsilon calibration is defined at mu = 1")
    if params.lam <= 0:
        raise ValueError("epsilon calibration needs lambda > 0")
    lam, J = params.lam, params.j_coupling

    def residual(eps: float) -> float:
        if eps <= 0:
            return math.inf
        rho = ness_mu1(params, eps)
        return hs_norm(apply_liouvillian(rho, params))

    seeds = {lam / J: None, lam / (2 * J): None, 2 * lam / J: None}
    seed_residuals = {eps: residual(eps) for eps in seeds}
    best_eps = min(seed_residuals, key=seed_residuals.get)
    best_res = seed_residuals[best_eps]
    if best_res >= CALIBRATION_TOL:
        opt = minimize_scalar(residual,
                              bracket=(best_eps / 2, best_eps, best_eps * 2),
                              options={"xtol": 1e-12})
        if opt.fun < best_res:
            best_eps, best_res = float(opt.x), float(opt.fun)
    if best_res >= CALIBRATION_TOL:
        report = ", ".join(f"eps={e:.3g}: {r:.3e}" for e, r in seed_residuals.items())
        raise ArithmeticError(
            "no epsilon reached the fixed-point tolerance "
            f"{CALIBRATION_TOL:g} (best {best_res:.3e} at eps={best_eps:.6g}; "
            f"seeds: {report}); the mu=1 matrices do not solve this "
            "master equation as transcribed")
    return EpsilonCalibration(epsilon=float(best_eps), residual=float(best_res),
                              seed_residuals=seed_residuals)
