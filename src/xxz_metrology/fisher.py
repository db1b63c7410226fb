"""Quantum Fisher information: SLDs, exact QFI, parametric derivatives.

All computations diagonalize the state once and work in its eigenbasis,
skipping eigenvalue pairs below the support tolerance (the defining
integral of the SLD only converges on the support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, hs_norm
from . import lindblad

SUPPORT_TOL = 1e-12
OFF_SUPPORT_TOL = 1e-8

_PARAMETERS = ("J", "Delta", "lambda", "mu")


@dataclass
class FisherEstimate:
    """A Fisher-information value tagged with how it was obtained."""

    value: float
    method: str               # 'exact-dense' or 'leading-order'
    parameter: str            # one of J, Delta, lambda, mu
    params: ChainParams
    log_value: float | None = None

    def __post_init__(self):
        if self.parameter not in _PARAMETERS:
            raise ValueError(f"unknown parameter label {self.parameter!r}")
        if self.method not in ("exact-dense", "leading-order"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < 0:
            raise ValueError("Fisher information cannot be negative")


def _in_eigenbasis(rho: np.ndarray, drho: np.ndarray, support_tol: float):
    """(U, drho_kl, p_k + p_l, supported pairs) in the eigenbasis U of rho.

    Off-support matrix elements of drho above OFF_SUPPORT_TOL signal a
    rank pathology and raise: the SLD does not exist there.
    """
    p, U = np.linalg.eigh(rho)
    dr = U.conj().T @ drho @ U
    cutoff = support_tol * max(p.max(), 1e-300)
    denom = p[:, None] + p[None, :]
    mask = denom > cutoff
    bad = np.abs(dr[~mask])
    if bad.size and bad.max() > OFF_SUPPORT_TOL:
        raise ArithmeticError(
            f"drho has weight {bad.max():.2e} outside the support of rho; "
            "the SLD does not exist there")
    return U, dr, denom, mask


def sld(rho: np.ndarray, drho: np.ndarray, support_tol: float = SUPPORT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative L solving drho = (L rho + rho L)/2.

    In the eigenbasis of rho, L_kl = 2 drho_kl / (p_k + p_l) on supported
    pairs.
    """
    U, dr, denom, mask = _in_eigenbasis(rho, drho, support_tol)
    L = np.zeros_like(dr)
    L[mask] = 2 * dr[mask] / denom[mask]
    L = U @ L @ U.conj().T
    return (L + L.conj().T) / 2


def qfi_dense(rho: np.ndarray, drho: np.ndarray,
              support_tol: float = SUPPORT_TOL) -> float:
    """F = 2 sum_kl |drho_kl|^2 / (p_k + p_l) over supported pairs."""
    _, dr, denom, mask = _in_eigenbasis(rho, drho, support_tol)
    return float(2 * np.sum(np.abs(dr[mask]) ** 2 / denom[mask]))


def fisher_cross(rho: np.ndarray, drho_x: np.ndarray, drho_y: np.ndarray) -> float:
    """Quantum Fisher matrix element F_xy = Tr(rho {L_x, L_y})/2."""
    Lx = sld(rho, drho_x)
    Ly = sld(rho, drho_y)
    return float(np.real(np.trace(rho @ (Lx @ Ly + Ly @ Lx))) / 2)


def _state_builder(builder: str):
    if builder == "oracle":
        def build(p: ChainParams) -> np.ndarray:
            return lindblad.steady_state_nullspace(lindblad.build_liouvillian(p))
    elif builder == "perturbative":
        def build(p: ChainParams) -> np.ndarray:
            return lindblad.ness_perturbative(p)
    elif builder == "mu1":
        def build(p: ChainParams) -> np.ndarray:
            return lindblad.ness_mu1(p, p.lam / p.j_coupling)
    else:
        raise ValueError(f"unknown state builder {builder!r}")
    return build


def _shift(params: ChainParams, parameter: str, x: float) -> ChainParams:
    field = {"J": "j_coupling", "Delta": "delta", "lambda": "lam", "mu": "mu"}[parameter]
    return params.replace(**{field: x})


def _param_value(params: ChainParams, parameter: str) -> float:
    return {"J": params.j_coupling, "Delta": params.delta,
            "lambda": params.lam, "mu": params.mu}[parameter]


def qfi_parametric(params: ChainParams, parameter: str,
                   state_builder: str = "perturbative") -> FisherEstimate:
    """Exact dense QFI of the steady state with respect to one parameter.

    The state derivative is a central difference of step
    h = 1e-4 max(|x|, 1) with one Richardson level; the two stencil
    widths must agree to 1e-6 relative, otherwise the derivative has not
    converged and we raise.  The mu = 1 builder takes the lambda-derivative
    through the exact eps = lambda/J.
    """
    if parameter not in _PARAMETERS:
        raise ValueError(f"unknown parameter label {parameter!r}")
    build = _state_builder(state_builder)
    x0 = _param_value(params, parameter)
    h = 1e-4 * max(abs(x0), 1.0)
    if state_builder == "mu1" and parameter == "mu":
        raise ValueError("the mu = 1 builder cannot be differentiated in mu")

    def central(hh: float) -> np.ndarray:
        rp = build(_shift(params, parameter, x0 + hh))
        rm = build(_shift(params, parameter, x0 - hh))
        return (rp - rm) / (2 * hh)

    stencils = [central(h / 2 ** k) for k in range(3)]
    rich = [(4 * fine - coarse) / 3
            for coarse, fine in zip(stencils, stencils[1:])]
    drho = rich[-1]
    scale = hs_norm(drho)
    if scale > 0 and hs_norm(rich[1] - rich[0]) > 1e-6 * scale:
        raise ArithmeticError(
            "state derivative did not converge: Richardson estimates differ "
            f"by {hs_norm(rich[1] - rich[0]):.2e} vs scale {scale:.2e}")
    rho = build(params)
    value = qfi_dense(rho, drho)
    return FisherEstimate(value=value, method="exact-dense", parameter=parameter,
                          params=params,
                          log_value=math.log(value) if value > 0 else -math.inf)


def optimal_estimator_variance(rho: np.ndarray, zeta: np.ndarray, m: int) -> float:
    """Variance of the m-sample mean of the observable zeta in state rho."""
    if m < 1:
        raise ValueError("need at least one measurement")
    if hs_norm(zeta - zeta.conj().T) > 1e-10 * max(hs_norm(zeta), 1e-300):
        raise ValueError("zeta must be hermitian")
    mean = np.real(np.trace(zeta @ rho))
    second = np.real(np.trace(zeta @ zeta @ rho))
    return float((second - mean ** 2) / m)


def relative_error(x_value: float, fisher: FisherEstimate, m: int = 1) -> float:
    """Best relative error 1/(x sqrt(m F_x)) from the Cramer-Rao bound."""
    if x_value == 0:
        raise ValueError("relative error undefined at x = 0")
    if fisher.value <= 0:
        raise ValueError("zero Fisher information: estimation impossible here")
    if math.isinf(fisher.value) and fisher.log_value is not None:
        return math.exp(-math.log(abs(x_value)) - 0.5 * (math.log(m) + fisher.log_value))
    return 1.0 / (abs(x_value) * math.sqrt(m * fisher.value))
