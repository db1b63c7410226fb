"""Chain parameters and dense spin-1/2 operator algebra.

Operators live on the full 2**n Hilbert space as plain complex numpy
arrays.  Site indices are 1-based and site 1 is the leftmost tensor
factor, i.e. ``embed(2, 1, op) == kron(op, eye(2))``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

# Dense operators get unwieldy quickly; 2**12 = 4096 is the largest
# Hilbert space we allow before forcing the transfer-matrix route.
DENSE_CAP = 12

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}


def eta_from_delta(delta: float) -> complex:
    """Anisotropy angle eta with cos(eta) = Delta.

    Real for |Delta| <= 1, i*arccosh(Delta) for Delta > 1 and
    pi + i*arccosh(-Delta) for Delta < -1, so that cos(eta) = Delta on
    every branch.
    """
    if not math.isfinite(delta):
        raise ValueError(f"Delta must be finite, got {delta}")
    if abs(delta) <= 1:
        return complex(math.acos(delta))
    if delta > 1:
        return 1j * math.acosh(delta)
    return complex(math.pi, math.acosh(-delta))


@dataclass(frozen=True)
class ChainParams:
    """Physical parameters of the boundary-driven chain.

    ``lam`` is the dissipation rate (lambda), ``mu`` the driving bias in
    [-1, 1], ``omega`` the uniform field whose generator commutes with
    the rest of the dynamics.  ``eta = arccos(delta)`` is derived.
    """

    n: int
    j_coupling: float = 1.0
    delta: float = 1.0
    lam: float = 0.0
    mu: float = 1.0
    omega: float = 0.0
    eta: complex = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least two sites, got n={self.n}")
        if not -1.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [-1, 1], got {self.mu}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 < self.j_coupling < math.inf:
            raise ValueError(f"J must be finite and > 0, got {self.j_coupling}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        eta = eta_from_delta(self.delta)
        if abs(cmath.cos(eta) - self.delta) > 1e-12:
            raise ValueError("eta branch failed cos(eta) = Delta check")
        object.__setattr__(self, "eta", eta)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def replace(self, **kwargs) -> "ChainParams":
        """A copy with the given fields changed; eta is derived again."""
        return dataclasses.replace(self, **kwargs)


def pauli(axis: str) -> np.ndarray:
    """2x2 Pauli matrix; sigma^+- = (sigma^x +- i sigma^y)/2."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of x y z + -")


def _check_dense_cap(n: int):
    if n > DENSE_CAP:
        raise ValueError(
            f"dense representation capped at n <= {DENSE_CAP}; got n={n}. "
            "Use the transfer-matrix routines for larger chains.")


def embed(n: int, site: int, op: np.ndarray) -> np.ndarray:
    """Tensor-embed an operator on sites ``site``, ``site + 1``, ... (1-based)
    in an n-site chain; a 2**k x 2**k ``op`` spans k sites."""
    _check_dense_cap(n)
    op = np.asarray(op, dtype=complex)
    span = op.shape[0].bit_length() - 1
    if not 1 <= site <= n - span + 1:
        raise ValueError(f"site {site} out of range 1..{n - span + 1}")
    out = np.kron(np.eye(2 ** (site - 1), dtype=complex), op)
    return np.kron(out, np.eye(2 ** (n - site - span + 1), dtype=complex))


def hamiltonian_xxz(params: ChainParams) -> np.ndarray:
    """Bare XXZ Hamiltonian sum_j (sx sx + sy sy + Delta sz sz); J multiplies elsewhere."""
    bond = sum(np.kron(pauli(ax), pauli(ax)) for ax in "xy")
    bond = bond + params.delta * np.kron(pauli("z"), pauli("z"))
    return sum(embed(params.n, j, bond) for j in range(1, params.n))


def magnetization_z(n: int) -> np.ndarray:
    """Total magnetization M_z = sum_j sigma_j^z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(embed(n, j, pauli("z")) for j in range(1, n + 1))


def lindblad_jump_ops(params: ChainParams) -> list[np.ndarray]:
    """The four boundary jump operators.

    L_1, L_2 act on site 1 with rates (1 +- mu)/2 on sigma^+-; L_3, L_4
    act on site n with the opposite bias, so mu = +1 pumps spin-up in at
    the left edge and out at the right edge.
    """
    n, mu = params.n, params.mu
    return [
        math.sqrt((1 + mu) / 2) * embed(n, 1, pauli("+")),
        math.sqrt((1 - mu) / 2) * embed(n, 1, pauli("-")),
        math.sqrt((1 - mu) / 2) * embed(n, n, pauli("+")),
        math.sqrt((1 + mu) / 2) * embed(n, n, pauli("-")),
    ]


def hs_norm(op: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr O O^dag)."""
    return float(np.linalg.norm(op))
