"""Steady states of boundary-driven XXZ chains and their Fisher information."""

__version__ = "0.1.0"

from .model import ChainParams, embed, eta_from_delta, hamiltonian_xxz, hs_norm, \
    lindblad_jump_ops, magnetization_z, pauli
from .mpo import (AuxMatrices, build_aux_A, build_aux_B, contract_to_dense,
                  hs_norm_sq_via_transfer, solve_s, validity_threshold)
from .lindblad import (Liouvillian, apply_liouvillian, build_liouvillian,
                       ness_mu1, ness_perturbative, steady_state_nullspace)
from .fisher import FisherEstimate, qfi_dense, qfi_parametric, relative_error, sld
from .transfer import (SignedLog, bracket_LTnR, bracket_LTnR_log,
                       chi_coefficient, f0_delta, f0_x,
                       isotropic_bracket_series, isotropic_f_delta, jordan_decompose,
                       sum_defect, xi_coefficient, xi_coefficient_rational)

__all__ = [
    "ChainParams", "embed", "eta_from_delta", "hamiltonian_xxz", "hs_norm",
    "lindblad_jump_ops", "magnetization_z", "pauli",
    "AuxMatrices", "build_aux_A", "build_aux_B", "contract_to_dense",
    "hs_norm_sq_via_transfer", "solve_s", "validity_threshold",
    "Liouvillian", "apply_liouvillian", "build_liouvillian",
    "ness_mu1", "ness_perturbative", "steady_state_nullspace",
    "FisherEstimate", "qfi_dense", "qfi_parametric", "relative_error", "sld",
    "SignedLog", "bracket_LTnR", "bracket_LTnR_log", "chi_coefficient",
    "f0_delta", "f0_x", "isotropic_bracket_series",
    "isotropic_f_delta", "jordan_decompose", "sum_defect", "xi_coefficient",
    "xi_coefficient_rational",
]
