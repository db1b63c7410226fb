"""Quantum Fisher information: SLDs, exact QFI, parametric derivatives.

All computations split the indices into the connected components of
the joint nonzero pattern of rho and drho, diagonalize rho one block at
a time and work in its eigenbasis.  A generic state is one block; a
state that conserves M_z, such as the mu = 1 NESS, gives at most n + 1.
Eigenvalue pairs with p_k + p_l <= SUPPORT_TOL * max(p) are skipped (the
defining integral of the SLD only converges on the support), with one
cut for all blocks: max(p) is the largest eigenvalue of the whole state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ChainParams, hs_norm

SUPPORT_TOL = 1e-12
OFF_SUPPORT_TOL = 1e-8

# parameter label -> the ChainParams field it names
_FIELDS = {"J": "j_coupling", "Delta": "delta", "lambda": "lam", "mu": "mu"}


@dataclass
class FisherEstimate:
    """A Fisher-information value tagged with how it was obtained."""

    value: float
    method: str               # 'exact-dense' or 'leading-order'
    parameter: str            # one of J, Delta, lambda, mu
    params: ChainParams
    log_value: float | None = None

    def __post_init__(self):
        if self.parameter not in _FIELDS:
            raise ValueError(f"unknown parameter label {self.parameter!r}")
        if self.method not in ("exact-dense", "leading-order"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.value >= 0:  # also rejects nan
            raise ValueError(f"Fisher information must be >= 0, got {self.value!r}")


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of a symmetric boolean pattern."""
    free = np.ones(len(pattern), dtype=bool)
    blocks = []
    while free.any():
        members = np.zeros_like(free)
        members[np.argmax(free)] = True
        while True:
            grown = members | pattern[members].any(axis=0)
            if np.array_equal(grown, members):
                break
            members = grown
        free &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def _eigen_blocks(rho: np.ndarray, drho: np.ndarray):
    """Per block: (block, U, drho_kl, p_k + p_l, supported pairs).

    ``block`` is the np.ix_ index of one connected component of the
    joint nonzero pattern of rho and drho, U the eigenbasis of rho
    there.  Off-support matrix elements of drho above OFF_SUPPORT_TOL
    signal a rank pathology and raise: the SLD does not exist there.
    """
    pattern = (rho != 0) | (drho != 0)
    blocks = [np.ix_(idx, idx) for idx in _blocks(pattern | pattern.T)]
    eigs = [np.linalg.eigh(rho[block]) for block in blocks]
    cutoff = SUPPORT_TOL * max(max(p.max() for p, _ in eigs), 1e-300)
    out = []
    for block, (p, U) in zip(blocks, eigs):
        dr = U.conj().T @ drho[block] @ U
        denom = p[:, None] + p[None, :]
        mask = denom > cutoff
        bad = np.abs(dr[~mask])
        if bad.size and bad.max() > OFF_SUPPORT_TOL:
            raise ArithmeticError(
                f"drho has weight {bad.max():.2e} outside the support of rho; "
                "the SLD does not exist there")
        out.append((block, U, dr, denom, mask))
    return out


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L solving drho = (L rho + rho L)/2.

    In the eigenbasis of rho, L_kl = 2 drho_kl / (p_k + p_l) on supported
    pairs; L is 0 between blocks.
    """
    blocks = _eigen_blocks(rho, drho)
    L = np.zeros(rho.shape, dtype=blocks[0][2].dtype)
    for block, U, dr, denom, mask in blocks:
        Lb = np.zeros_like(dr)
        Lb[mask] = 2 * dr[mask] / denom[mask]
        L[block] = U @ Lb @ U.conj().T
    return (L + L.conj().T) / 2


def qfi_dense(rho: np.ndarray, drho: np.ndarray) -> float:
    """F = 2 sum_kl |drho_kl|^2 / (p_k + p_l) over supported pairs, block by block."""
    return sum(float(2 * np.sum(np.abs(dr[mask]) ** 2 / denom[mask]))
               for _, _, dr, denom, mask in _eigen_blocks(rho, drho))


def fisher_cross(rho: np.ndarray, drho_x: np.ndarray, drho_y: np.ndarray) -> float:
    """Quantum Fisher matrix element F_xy = Tr(rho {L_x, L_y})/2."""
    Lx = sld(rho, drho_x)
    Ly = sld(rho, drho_y)
    return float(np.real(np.trace(rho @ (Lx @ Ly + Ly @ Lx))) / 2)


def qfi_parametric(params: ChainParams, parameter: str,
                   build: Callable[[ChainParams], np.ndarray]) -> FisherEstimate:
    """Exact dense QFI of the state ``build(params)`` with respect to one parameter.

    ``build`` maps chain parameters to a density matrix, e.g.
    ``lindblad.ness_perturbative``.  The state derivative is a central
    difference of step h = 1e-4 max(|x|, 1) with one Richardson level;
    the two stencil widths must agree to 1e-6 relative, otherwise the
    derivative has not converged and we raise.  A shifted point that
    ChainParams rejects (mu = 1 + h) raises its ValueError.
    """
    if parameter not in _FIELDS:
        raise ValueError(f"unknown parameter label {parameter!r}")
    field = _FIELDS[parameter]
    x0 = getattr(params, field)
    h = 1e-4 * max(abs(x0), 1.0)

    def central(hh: float) -> np.ndarray:
        rp = build(params.replace(**{field: x0 + hh}))
        rm = build(params.replace(**{field: x0 - hh}))
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
