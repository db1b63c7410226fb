"""Reference implementations the tests hold the program to.  No scan calls
these.  Most are the plain form of a route the program computes another
way, kept to check that the faster form gives the same bits or the same
value.  ``fisher_cross`` is no second route: from ``fisher.sld`` it builds
the Fisher matrix F_xy, whose off-diagonal the program never computes (its
diagonal is ``qfi_dense``).
"""

import numpy as np

from xxz_metrology import fisher
from xxz_metrology.fisher import qfi_dense, sld
from xxz_metrology.model import hs_norm
from xxz_metrology.mpo import build_aux_B, contract_to_dense, popcount_sectors, solve_s


def ness_mu1_before(params, epsilon):
    """Reference: the mu = 1 state normalized by NumPy's division rho /= Tr."""
    n = params.n
    S = contract_to_dense(build_aux_B(n, params.eta, solve_s(epsilon, params.eta)), n)
    rho = S
    for idx in popcount_sectors(n):
        sector = np.ix_(idx, idx)
        rho[sector] = S[sector] @ S[sector].conj().T
    rho /= np.trace(rho).real
    return rho


def qfi_parametric_before(params, parameter, build):
    """Reference: the stencils and Richardson levels each a new array."""
    field = fisher._FIELDS[parameter]
    x0 = getattr(params, field)
    h = 1e-4 * max(abs(x0), 1.0)

    def central(hh):
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
    return qfi_dense(build(params), drho)


def fisher_cross(rho, drho_x, drho_y):
    """Quantum Fisher matrix element F_xy = Tr(rho {L_x, L_y})/2."""
    Lx = sld(rho, drho_x)
    Ly = sld(rho, drho_y)
    return float(np.real(np.trace(rho @ (Lx @ Ly + Ly @ Lx))) / 2)
