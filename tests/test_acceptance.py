"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    pair_protocol_state,
    rand_amplitude_pair,
    rand_density_matrix,
    rand_hermitian,
    rand_pure_state,
    rand_unitary,
)
from modent import (
    BosonicMode,
    FermionProtocolParams,
    FermionicMode,
    LinearOp,
    RotationProtocolParams,
    TwoLevel,
    chsh_violated,
    compose_layout,
    concurrence,
    controlled_mixing_unitary,
    evolve,
    horodecki_m,
    massive_fermion_protocol,
    massless_absorption,
    optimize_angles,
    partial_trace,
    sequential_rotation,
    simultaneous_coupling_check,
    single_ancilla_rotation,
    table1_summary,
    target_pair_density,
    to_density,
)
from modent.cli import main

SQ2 = math.sqrt(2)


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({time.monotonic() - start:.2f} s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f} s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def test_criterion_1_horodecki_identity():
    with criterion(1, "horodecki identity M = 1 + gamma^2", 1.0):
        for g in np.arange(0.0, 1.0001, 0.1):
            rho = target_pair_density(g)
            assert abs(horodecki_m(rho) - (1.0 + g * g)) < 1e-10
            if g > 0:
                assert chsh_violated(rho)


def test_criterion_2_summary_table_concurrences():
    with criterion(2, "summary-table concurrence column", 30.0):
        _, absorption = massless_absorption()
        assert abs(absorption.scalars["concurrence"] - 1.0) < 1e-10
        for n in (1, 5, 50):
            expected = 1.0 - 1.0 / (2.0 * n)
            assert abs(concurrence(target_pair_density(expected)) - expected) < 1e-10
        _, best_c, _ = optimize_angles(1, 64, 12)
        assert abs(best_c - 0.5) < 1e-9
        rows = table1_summary(5)
        assert [r.particle_type for r in rows] == [
            "massless bosons", "massive bosons", "massless fermions", "massive fermions"]


def test_criterion_3_single_collision_closed_form():
    with criterion(3, "single-collision closed-form equivalence", 5.0):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            alpha, beta = rand_amplitude_pair(rng)
            simulated, analytic, _ = single_ancilla_rotation(alpha, beta)
            assert np.max(np.abs(simulated.matrix - analytic.matrix)) < 1e-10


def test_criterion_4_inverse_n_error_scaling():
    with criterion(4, "sequential rotation error ~ 1/N", 10.0):
        rng = np.random.default_rng(2029)
        for _ in range(20):
            alpha, beta = rand_amplitude_pair(rng)
            err = {n: sequential_rotation(RotationProtocolParams(alpha, beta, n)).scalars["infidelity"]
                   for n in (4, 8, 16, 32, 64)}
            products = [err[n] * n for n in (16, 32, 64)]
            assert (max(products) - min(products)) / max(products) < 0.15
            assert err[4] / err[64] >= 12.0


def test_criterion_5_collective_mode_equivalence():
    with criterion(5, "simultaneous coupling = collective mode", 10.0):
        for n in (2, 3, 4):
            res = simultaneous_coupling_check(n)
            assert res.scalars["trace_distance"] < 1e-10
            assert abs(res.scalars["fidelity_gain"]) < 1e-10


def test_criterion_6_angle_optimization():
    with criterion(6, "mixing-angle optimization caps at 1/2", 300.0):
        best_t, best_c, _ = optimize_angles(1, 64, 12)
        assert abs(best_t[0] - math.pi / 2) < 1e-3
        assert abs(best_c - 0.5) < 1e-9

        best_t2, best_c2, grid = optimize_angles(2, 64, 3)
        assert best_c2 <= 0.5 + 1e-9
        assert max(row[-1] for row in grid) <= 0.5 + 1e-9
        d_edge1 = math.hypot(best_t2[0] - 0.0, best_t2[1] - math.pi / 2)
        d_edge2 = math.hypot(best_t2[0] - math.pi / 2, best_t2[1] - 0.0)
        assert min(d_edge1, d_edge2) < 1e-3


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites", 60.0):
        rng = np.random.default_rng(777777)
        layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(2)), ("c", FermionicMode)])

        # unitarity of evolution, trace/Hermiticity/positivity of reductions
        for _ in range(200):
            h = LinearOp(layout, rand_hermitian(rng, layout.dim))
            psi = rand_pure_state(rng, layout)
            out = evolve(psi, h, float(rng.uniform(0, 10)))
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
            red = partial_trace(to_density(out), ["a", "c"])
            assert abs(np.trace(red.matrix) - 1) < 1e-12
            assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(red.matrix)) > -1e-10

        # local-unitary invariance of concurrence and M
        for _ in range(200):
            rho = rand_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
            u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10
            assert abs(horodecki_m(rotated) - horodecki_m(rho)) < 1e-9

        # left/right mixing operations commute
        pair_layout, psi0 = pair_protocol_state(1)
        for _ in range(200):
            th = float(rng.uniform(0, math.pi))
            ul = controlled_mixing_unitary(pair_layout, "tgt_l", "fly_l", "anc1_l", th).matrix
            ur = controlled_mixing_unitary(pair_layout, "tgt_r", "fly_r", "anc1_r", th).matrix
            assert np.max(np.abs(ul @ (ur @ psi0) - ur @ (ul @ psi0))) < 1e-12

        # angle-exchange symmetry of the two-pair concurrence surface
        for _ in range(200):
            t1, t2 = rng.uniform(0, math.pi, size=2)
            c12 = massive_fermion_protocol(FermionProtocolParams(2, (t1, t2)))[1]
            c21 = massive_fermion_protocol(FermionProtocolParams(2, (t2, t1)))[1]
            assert abs(c12 - c21) < 1e-10


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical CLI outputs", 30.0):
        outputs = []
        for tag in ("first", "second"):
            csv = tmp_path / f"{tag}.csv"
            js = tmp_path / f"{tag}.json"
            js2 = tmp_path / f"{tag}-bell.json"
            assert main(["rotate-sweep", "--n-list", "4,8,16,32,64", "--format", "csv",
                         "--out", str(csv)]) == 0
            assert main(["fermion-sweep", "--pairs", "2", "--grid", "24", "--refine", "2",
                         "--format", "json", "--out", str(js)]) == 0
            assert main(["bell", "--gamma", "0.5", "--format", "json",
                         "--out", str(js2)]) == 0
            outputs.append((csv.read_bytes(), js.read_bytes(), js2.read_bytes()))
        assert outputs[0] == outputs[1]
