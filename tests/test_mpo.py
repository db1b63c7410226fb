import csv
import math
import time

import numpy as np
import pytest

import known_faults
from oracles import SLOT_PAULIS, contract_by_quadrants, doubled_B, route_a_f_lambda
from xxz_metrology.cli import main
from xxz_metrology.fisher import qfi_parametric
from xxz_metrology.lindblad import ness_mu1
from xxz_metrology.model import ChainParams, eta_from_delta, hs_norm, pauli
from xxz_metrology.mpo import (AuxMatrices, _contract_blocks, build_aux_A, build_aux_B,
                               contract_to_dense, hs_norm_sq_via_transfer,
                               popcount_sectors, solve_s, validity_threshold)


def kron_all(*ops):
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def contract_by_kron(aux, n):
    """Reference contraction: every reachable state, one np.kron per term."""
    partial = {aux.right: np.eye(1, dtype=complex)}
    for _ in range(n):
        step = {}
        for name, sigma in SLOT_PAULIS.items():
            mat = getattr(aux, name)
            rows, cols = np.nonzero(mat)
            for a, b in zip(rows, cols):
                block = partial.get(b)
                if block is None:
                    continue
                contrib = mat[a, b] * np.kron(sigma, block)
                if a in step:
                    step[a] += contrib
                else:
                    step[a] = contrib
        partial = step
    dim = 2 ** n
    return partial.get(0, np.zeros((dim, dim), dtype=complex))


def test_aux_A_isotropic_diagonal_is_identity():
    aux = build_aux_A(6, 0.0)
    assert np.allclose(aux.identity, np.eye(aux.dim_aux))


def test_aux_A_diagonal_at_half_pi():
    aux = build_aux_A(4, np.pi / 2)
    # basis [L, R, 1, 2]: cos(pi/2 * k) for k = 1, 2
    assert np.allclose(np.diag(aux.identity), [1, 1, 0, -1], atol=1e-15)


def test_aux_B_entries():
    eta = eta_from_delta(2.0)
    s = solve_s(0.01, eta)
    aux = build_aux_B(4, eta, s)
    assert np.isclose(aux.sigma_minus[1, 0], np.sin(eta))
    assert np.isclose(aux.identity[0, 0], np.sin(eta * s))
    assert np.all(np.isfinite(aux.identity[np.nonzero(aux.identity)]))


def test_aux_B_rejects_isotropic():
    with pytest.raises(ValueError):
        build_aux_B(4, 0.0, 1.0)


def test_solve_s_small_epsilon_limit():
    eta = np.pi / 3
    s = solve_s(1e-14, eta)
    assert np.isclose(s.real, np.pi / (2 * eta), atol=1e-10)


def test_solve_s_roundtrip():
    for eps, delta in [(0.1, 0.5), (0.01, 2.0), (0.3, -0.8)]:
        eta = eta_from_delta(delta)
        s = solve_s(eps, eta)
        residual = 1 / np.tan(s * eta) * 4j * np.sin(eta) - eps
        assert abs(residual) < 1e-12


def test_contract_two_site_operator():
    # the only two-step auxiliary path pairs sigma^+ on site 1 with
    # sigma^- on site 2; the paired assignment is pinned by the
    # steady-state fixed-point tests in test_lindblad.py
    for delta in (0.0, 0.5, 2.0):
        Z = contract_to_dense(build_aux_A(2, eta_from_delta(delta)), 2)
        assert np.allclose(Z, kron_all(pauli("+"), pauli("-")))


def test_contract_norm_two_site():
    Z = contract_to_dense(build_aux_A(2, eta_from_delta(0.3)), 2)
    assert np.isclose(hs_norm(Z) ** 2, 1.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_contract_traceless(n):
    Z = contract_to_dense(build_aux_A(n, eta_from_delta(0.7)), n)
    assert abs(np.trace(Z)) < 1e-12


def test_contract_conserves_magnetization():
    # every contributing string balances raising and lowering factors
    from xxz_metrology.model import magnetization_z
    for n in (3, 4, 5):
        Z = contract_to_dense(build_aux_A(n, eta_from_delta(0.4)), n)
        M = magnetization_z(n)
        assert hs_norm(M @ Z - Z @ M) < 1e-12


def test_aux_boundaries_and_pairing_follow_the_builder():
    eta = eta_from_delta(2.0)
    a, b = build_aux_A(5, eta), build_aux_B(5, eta, solve_s(0.01, eta))
    L, R, one = 0, 1, 2  # A's basis [L, R, 1, 2]
    # A_- = |L><1| + ... fills the sigma^+ slot, A_+ = |1><R| + ... the sigma^- slot
    assert a.sigma_plus[L, one] == 1.0 and a.sigma_minus[one, R] == 1.0
    assert a.sigma_plus[one, R] == 0.0 and a.sigma_minus[L, one] == 0.0
    assert (a.dim_aux, a.right, a.depth) == (4, R, 2)
    # B pairs literally: B_+ = sum_k sin(eta (k - 2s)) |k><k+1| in the sigma^+ slot
    assert b.sigma_plus[0, 1] != 0 and b.sigma_plus[1, 0] == 0
    assert (b.dim_aux, b.right, b.depth) == (3, 0, 2)


@pytest.mark.parametrize("n", range(2, 11))
def test_aux_depth_is_half_the_chain(n):
    eta = eta_from_delta(0.5)
    assert build_aux_A(n, eta).depth == build_aux_B(n, eta, solve_s(0.01, eta)).depth == n // 2
    # at eta = 0 every sin(eta k) is 0: |2>, ... are unreached, and count one level each
    assert build_aux_A(n, 0.0).depth == n // 2


def test_aux_rejects_an_entry_against_its_popcount_label():
    # on the band, but it gives state 0 two popcount labels
    eta = eta_from_delta(2.0)
    b = build_aux_B(4, eta, solve_s(0.01, eta))
    identity = b.identity.copy()
    identity[0, 1] = 1.0
    with pytest.raises(ValueError,
                       match=r"identity\[0, 1\] sets popcount label 1 on state 0, which has 0"):
        AuxMatrices(identity=identity, sigma_plus=b.sigma_plus, sigma_minus=b.sigma_minus)


def test_a_mislabelled_mpo_raises_at_every_construction():
    # the labels are cached per nonzero pattern, but a raised error is not
    eta = eta_from_delta(2.0)
    b = build_aux_B(4, eta, solve_s(0.01, eta))
    identity = b.identity.copy()
    identity[0, 1] = 1.0
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            AuxMatrices(identity=identity, sigma_plus=b.sigma_plus, sigma_minus=b.sigma_minus)
        errors.append(str(info.value))
    assert errors == ["identity[0, 1] sets popcount label 1 on state 0, which has 0"] * 2


def test_one_pattern_takes_the_depth_of_its_right_state():
    # B's labels are q(k) = k - right on the states k = 0..4
    eta = eta_from_delta(2.0)
    b = build_aux_B(8, eta, solve_s(0.01, eta))
    depths = [AuxMatrices(identity=b.identity, sigma_plus=b.sigma_plus,
                          sigma_minus=b.sigma_minus, right=right).depth for right in (0, 2, 0, 2)]
    assert depths == [4, 2, 4, 2]


def test_contract_rejects_a_too_shallow_mpo():
    eta = eta_from_delta(2.0)
    with pytest.raises(ValueError, match=r"depth 2 too small for an 9-site contraction"):
        contract_to_dense(build_aux_B(4, eta, solve_s(0.01, eta)), 9)
    with pytest.raises(ValueError, match=r"depth 1 too small for an 4-site contraction"):
        contract_to_dense(build_aux_A(2, 0.0), 4)


def test_a_real_mpo_contracts_as_its_complex_copy():
    aux = build_aux_A(5, 0.0)  # every entry real
    real = AuxMatrices(identity=aux.identity.real, sigma_plus=aux.sigma_plus.real,
                       sigma_minus=aux.sigma_minus.real, right=aux.right)
    assert np.array_equal(contract_to_dense(real, 5), contract_to_dense(aux, 5))


def test_contract_isotropic_structure():
    # at eta = 0 only single +- pairs survive: Z = sum_{i<j} sp_i sm_j
    n = 4
    Z = contract_to_dense(build_aux_A(n, 0.0), n)
    expected = np.zeros((2 ** n, 2 ** n), dtype=complex)
    from xxz_metrology.model import embed
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expected += embed(n, i, pauli("+")) @ embed(n, j, pauli("-"))
    assert np.allclose(Z, expected)


def test_widening_auxiliary_space_changes_nothing():
    # clamping drops terms that reference |n//2 + 1>; states above n//2
    # are unreachable in n steps, so widening by two must be a no-op
    n, eta = 5, eta_from_delta(0.6)
    base = build_aux_A(n, eta)
    wide = build_aux_A(n + 4, eta)  # two more auxiliary levels
    narrow = contract_to_dense(base, n)
    assert wide.dim_aux == base.dim_aux + 2
    assert np.array_equal(narrow, contract_to_dense(wide, n))


# the quadrant writes add the same terms in the same order as the kron
# loop, so every entry is equal (np.array_equal: signed zeros may differ)
@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("delta", [0.0, 0.5, -0.8, 2.0, -3.0])
def test_contract_A_equals_kron_reference(n, delta):
    aux = build_aux_A(n, eta_from_delta(delta))
    assert np.array_equal(contract_to_dense(aux, n), contract_by_kron(aux, n))


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("delta", [0.5, 2.0, 10.0, 100.0])
def test_contract_B_equals_kron_reference(n, delta):
    eta = eta_from_delta(delta)
    for epsilon in (1e-3, 1e-2):
        aux = build_aux_B(n, eta, solve_s(epsilon, eta))
        assert np.array_equal(contract_to_dense(aux, n), contract_by_kron(aux, n))


@pytest.mark.parametrize("delta, epsilon, n", [(2.0, 1e-2, 6), (0.5, 1e-2, 8), (10.0, 1e-3, 9),
                                               (100.0, 1e-2, 5), (-0.6, 1e-3, 7)])
def test_doubled_B_contracts_to_the_s_derivative(delta, epsilon, n):
    eta = eta_from_delta(delta)
    s = solve_s(epsilon, eta)
    doubled = doubled_B(n, eta, s)
    assert (doubled.dim_aux, doubled.depth) == (2 * (n // 2 + 1), n // 2)
    dS = contract_to_dense(doubled, n)

    def central(h):
        return (contract_to_dense(build_aux_B(n, eta, s + h), n)
                - contract_to_dense(build_aux_B(n, eta, s - h), n)) / (2 * h)

    h = 1e-4 * abs(s)
    richardson = (4 * central(h / 2) - central(h)) / 3
    assert hs_norm(dS - richardson) <= 1e-10 * hs_norm(dS)


# route A at the six rows of the ROADMAP's table of exact F_lambda rows
# that print wrong values, to the digits shown there
@pytest.mark.parametrize("delta, lam, n, expected", [
    (10.0, 1e-2, 6, 3.391394e-8), (2.0, 1e-3, 10, 2.725244e-6), (2.0, 1e-2, 9, 1.204271e-5),
    (10.0, 1e-2, 7, 1.614348e-10), (2.0, 1e-2, 10, 2.412260e-6), (2.0, 1e-2, 8, 9.535960e-3)])
def test_route_a_gives_the_table_values(delta, lam, n, expected):
    value = route_a_f_lambda(ChainParams(n=n, delta=delta, lam=lam, mu=1.0))
    assert float(f"{value:.6e}") == expected


# the points of delta in {0.5, 2, 10}, n in {4, 6, 8} and lambda/J in
# {1e-3, 1e-2} where the finite difference converges, less the table's
# (10, 1e-2, 6) and (2, 1e-2, 8); the largest gap here is 1.3e-8
@pytest.mark.parametrize("delta, lam, n", [
    (0.5, 1e-3, 4), (0.5, 1e-2, 4), (0.5, 1e-3, 6), (0.5, 1e-2, 6), (0.5, 1e-3, 8),
    (0.5, 1e-2, 8), (2.0, 1e-3, 4), (2.0, 1e-2, 4), (2.0, 1e-3, 6), (2.0, 1e-2, 6),
    (10.0, 1e-3, 4), (10.0, 1e-2, 4)])
def test_route_a_matches_the_finite_difference_where_it_converges(delta, lam, n):
    params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0)
    exact = route_a_f_lambda(params)
    finite = qfi_parametric(params, "lambda", lambda p: ness_mu1(p, p.lam / p.j_coupling))
    assert abs(finite.value - exact) <= 1.3e-6 * exact


@pytest.mark.parametrize("args", [known_faults.README_EXACT, known_faults.LAMBDA_TENTH],
                         ids=["readme-exact", "lambda-tenth"])
def test_exact_rows_are_route_a_or_registered_wrong_values(tmp_path, args):
    # every value row of the scan lies within WRONG_TOL of route A, except the
    # registered wrong values: those print their registered value and lie
    # further off; the error rows are the finite difference's explicit ones
    out = tmp_path / "scan.csv"
    main(["scan", "f-lambda-nonpert", *args.split(), "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    wrong = {entry.point: entry for entry in known_faults.WRONG_VALUES if entry.args == args}
    seen = set()
    for row in rows:
        delta, lam, n = point = float(row["delta"]), float(row["lambda_over_j"]), int(row["n"])
        if row["error"]:
            assert known_faults.NOT_CONVERGED in row["error"] and point not in wrong
            continue
        printed = float(row["j2_f_lambda"])
        exact = route_a_f_lambda(ChainParams(n=n, delta=delta, lam=lam, mu=1.0))
        gap = abs(printed - exact) / exact
        if point in wrong:
            seen.add(point)
            assert float(f"{printed:.6e}") == wrong[point].printed
            assert float(f"{exact:.6e}") == wrong[point].arbiter
            assert gap > known_faults.WRONG_TOL
        else:
            assert gap <= known_faults.WRONG_TOL, (point, printed, exact)
    assert seen == set(wrong)


def aux_mpos(n, delta):
    """A, B at two couplings and, up to n = 9, the doubled B: twice the
    auxiliary space, right state 1 and two terms into some blocks."""
    eta = eta_from_delta(delta)
    mpos = [build_aux_A(n, eta)] + [build_aux_B(n, eta, solve_s(epsilon, eta))
                                    for epsilon in (1e-3, 1e-2)]
    if n <= 9:
        mpos.append(doubled_B(n, eta, solve_s(1e-2, eta)))
    return mpos


# the same bits as the dense loop, signed zeros included, from M_z blocks only
@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("delta", [0.5, -0.8, 2.0, 100.0])
def test_block_contraction_is_the_quadrant_loop_bit_for_bit(n, delta):
    for aux in aux_mpos(n, delta):
        dense = contract_to_dense(aux, n)
        assert np.array_equal(dense.view(np.int64),
                              contract_by_quadrants(aux, n).view(np.int64))
        blocks = _contract_blocks(aux, n)
        assert blocks and all(row == col for row, col in blocks)
        sectors = popcount_sectors(n)
        assert sum(block.size for block in blocks.values()) <= math.comb(2 * n, n)
        for (k, _), block in blocks.items():
            assert np.array_equal(block, dense[np.ix_(sectors[k], sectors[k])])


def test_block_contraction_keeps_every_zero_positive():
    # -0 * x and x * -0 terms land in blocks the dense loop starts at +0
    aux = build_aux_B(6, eta_from_delta(-0.8), solve_s(1e-2, eta_from_delta(-0.8)))
    dense = contract_to_dense(aux, 6)
    assert not np.any(np.signbit(dense.real[dense.real == 0]))
    assert not np.any(np.signbit(dense.imag[dense.imag == 0]))


def test_popcount_sectors_partition_the_basis():
    for n in (1, 4, 9):
        sectors = popcount_sectors(n)
        assert popcount_sectors(n) is sectors  # cached per n
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(2 ** n))
        for k, idx in enumerate(sectors):
            assert len(idx) == math.comb(n, k) and np.all(np.diff(idx) > 0)
            assert all(bin(i).count("1") == k for i in idx)
            assert not idx.flags.writeable


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
def test_norm_identity_dense_vs_transfer(delta):
    eta = eta_from_delta(delta)
    for n in range(3, 9):
        dense = hs_norm(contract_to_dense(build_aux_A(n, eta), n)) ** 2
        via_transfer = hs_norm_sq_via_transfer(n, eta).value
        assert abs(dense - via_transfer) / dense < 1e-10


def test_norm_identity_examples():
    assert np.isclose(hs_norm_sq_via_transfer(2, eta_from_delta(0.5)).value, 1.0)
    assert np.isclose(hs_norm_sq_via_transfer(4, 0.0).value, 24.0)


def test_norm_past_the_double_range_keeps_its_log():
    norm = hs_norm_sq_via_transfer(540, eta_from_delta(2.0))  # the last row before the overflow
    assert norm.value == math.inf
    assert norm.sign == 1.0 and math.isfinite(norm.log)


def test_validity_threshold_examples():
    thr = validity_threshold(2, eta_from_delta(0.5), 1.0).value
    assert np.isclose(thr, np.sqrt(8.0))
    assert np.isclose(validity_threshold(2, eta_from_delta(0.5), 0.5).value, 2 * thr)


def test_validity_threshold_mu_zero():
    with pytest.raises(ValueError):
        validity_threshold(4, eta_from_delta(0.5), 0.0)
    for bad in (float("nan"), 1.5, -1.0 - 1e-12):
        with pytest.raises(ValueError, match=r"mu must lie in \[-1, 1\]"):
            validity_threshold(4, eta_from_delta(0.5), bad)


def test_validity_threshold_superexponential_decay():
    eta = eta_from_delta(2.0)
    logs = [validity_threshold(n, eta, 1.0).log for n in range(2, 21)]
    diffs = np.diff(logs)
    assert np.all(diffs < 0)
    # decrements themselves keep growing in magnitude
    assert np.all(np.diff(diffs) < 0)


def test_contraction_speed_n10():
    start = time.monotonic()
    Z = contract_to_dense(build_aux_A(10, eta_from_delta(0.5)), 10)
    elapsed = time.monotonic() - start
    assert Z.shape == (1024, 1024)
    assert elapsed < 30.0


def test_contract_rejects_oversized():
    with pytest.raises(ValueError):
        contract_to_dense(build_aux_A(4, 0.5), 13)
