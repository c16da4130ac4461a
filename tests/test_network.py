"""Tests for generic mesh-network assembly and the linear solver."""

from fractions import Fraction

import numpy as np
import pytest

from srmec.exact import solve_exact
from srmec.network import (
    MeshFluxes,
    MeshSpec,
    MeshSystem,
    MmfSource,
    NetworkDefinitionError,
    ReluctanceElement,
    SolveError,
    _exact_residual_vector,
    assemble_mesh_system,
    kirchhoff_residual,
    solve_linear,
)


def single_mesh_system(r=2.0, f=3.0):
    return assemble_mesh_system(
        [ReluctanceElement("r", r)],
        [MmfSource("f", f)],
        [MeshSpec(elements=(("r", +1),), sources=(("f", +1),))],
    )


class TestAssembly:
    def test_single_mesh(self):
        sys_ = single_mesh_system(r=2.0, f=3.0)
        assert sys_.matrix.tolist() == [[2.0]]
        assert sys_.rhs.tolist() == [3.0]

    def test_two_meshes_sharing_one_element(self):
        sys_ = assemble_mesh_system(
            [ReluctanceElement("a", 1.0), ReluctanceElement("s", 5.0), ReluctanceElement("b", 2.0)],
            [MmfSource("f", 7.0)],
            [
                MeshSpec(elements=(("a", +1), ("s", +1)), sources=(("f", +1),)),
                MeshSpec(elements=(("s", -1), ("b", +1))),
            ],
        )
        assert sys_.matrix.tolist() == [[6.0, -5.0], [-5.0, 7.0]]
        assert sys_.rhs.tolist() == [7.0, 0.0]

    def test_symmetry_on_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_elements = int(rng.integers(2, 10))
            n_meshes = int(rng.integers(1, 6))
            elements = [
                ReluctanceElement(f"e{k}", float(rng.uniform(0.1, 100.0))) for k in range(n_elements)
            ]
            meshes = []
            for _ in range(n_meshes):
                size = int(rng.integers(1, n_elements + 1))
                picks = rng.choice(n_elements, size=size, replace=False)
                members = tuple((f"e{int(k)}", int(rng.choice([-1, 1]))) for k in picks)
                meshes.append(MeshSpec(elements=members))
            sys_ = assemble_mesh_system(elements, [], meshes)
            assert np.array_equal(sys_.matrix, sys_.matrix.T)
            assert np.all(np.diag(sys_.matrix) > 0)

    def test_unknown_element_rejected(self):
        with pytest.raises(NetworkDefinitionError, match="unknown element"):
            assemble_mesh_system([], [], [MeshSpec(elements=(("ghost", +1),))])

    def test_unknown_source_rejected(self):
        with pytest.raises(NetworkDefinitionError, match="unknown source"):
            assemble_mesh_system(
                [ReluctanceElement("r", 1.0)],
                [],
                [MeshSpec(elements=(("r", +1),), sources=(("ghost", +1),))],
            )

    def test_duplicate_element_id_rejected(self):
        with pytest.raises(NetworkDefinitionError, match="duplicate"):
            assemble_mesh_system(
                [ReluctanceElement("r", 1.0), ReluctanceElement("r", 2.0)],
                [],
                [MeshSpec(elements=(("r", +1),))],
            )

    def test_nonpositive_reluctance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ReluctanceElement("r", 0.0)
        with pytest.raises(ValueError, match="positive"):
            ReluctanceElement("r", -1.0)
        with pytest.raises(ValueError, match="finite"):
            ReluctanceElement("r", float("inf"))

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            MeshSpec(elements=())

    def test_no_meshes_rejected(self):
        with pytest.raises(ValueError, match="at least one mesh"):
            assemble_mesh_system([ReluctanceElement("r", 1.0)], [], [])

    def test_bad_orientation_sign_rejected(self):
        with pytest.raises(ValueError, match="orientation sign"):
            MeshSpec(elements=(("r", 2),))


class TestSolveLinear:
    def test_zero_rhs_gives_zero_flux(self):
        sys_ = assemble_mesh_system(
            [ReluctanceElement("r", 3.0)],
            [],
            [MeshSpec(elements=(("r", +1),))],
        )
        phi = solve_linear(sys_)
        assert phi.values.tolist() == [0.0]

    def test_diagonal_system(self):
        values = [4.0, 8.0, 32.0]
        rhs = [2.0, 2.0, 2.0]
        sys_ = MeshSystem(matrix=np.diag(values), rhs=np.array(rhs))
        phi = solve_linear(sys_)
        assert phi.values.tolist() == [0.5, 0.25, 0.0625]

    def test_against_exact_oracle_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a = a + a.T + 2 * n * np.eye(n)
            b = rng.uniform(-10.0, 10.0, size=n)
            phi = solve_linear(MeshSystem(matrix=a, rhs=b))
            expected = [float(x) for x in solve_exact(a.tolist(), b.tolist())]
            assert phi.values == pytest.approx(expected, rel=1e-13)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.0, 1.0, size=(4, 4))
        a = a + a.T + 8 * np.eye(4)
        b1 = rng.uniform(-5.0, 5.0, size=4)
        b2 = rng.uniform(-5.0, 5.0, size=4)
        split = solve_linear(MeshSystem(matrix=a, rhs=b1)).values + solve_linear(
            MeshSystem(matrix=a, rhs=b2)
        ).values
        joint = solve_linear(MeshSystem(matrix=a, rhs=b1 + b2)).values
        assert joint == pytest.approx(split, rel=1e-10, abs=1e-18)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 1.0, size=(3, 3))
        a = a + a.T + 6 * np.eye(3)
        b = rng.uniform(-5.0, 5.0, size=3)
        base = solve_linear(MeshSystem(matrix=a, rhs=b)).values
        for alpha in (1e-6, 2.0, 1e9):
            scaled = solve_linear(MeshSystem(matrix=alpha * a, rhs=alpha * b)).values
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_singular_system_raises_named_error(self):
        sys_ = MeshSystem(matrix=np.array([[1.0, 1.0], [1.0, 1.0]]), rhs=np.array([1.0, 2.0]), label="degenerate pair")
        with pytest.raises(SolveError, match="degenerate pair"):
            solve_linear(sys_)

    def test_condition_limit_enforced(self):
        sys_ = MeshSystem(matrix=np.diag([1.0, 1e-13]), rhs=np.array([1.0, 1.0]), label="wide spread")
        with pytest.raises(SolveError, match="condition"):
            solve_linear(sys_)
        # The same system passes with a relaxed bound.
        phi = solve_linear(sys_, condition_limit=1e15)
        assert phi.values[1] == pytest.approx(1e13)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0.0, 1.0, size=(5, 5))
        a = a + a.T + 10 * np.eye(5)
        b = rng.uniform(-5.0, 5.0, size=5)
        sys_ = MeshSystem(matrix=a, rhs=b)
        first = solve_linear(sys_).values
        second = solve_linear(sys_).values
        assert np.array_equal(first, second)


class TestKirchhoffResidual:
    def test_exact_solution_has_tiny_residual(self):
        sys_ = single_mesh_system(r=2.0, f=3.0)
        phi = solve_linear(sys_)
        assert kirchhoff_residual(sys_, phi) <= 1e-12

    def test_zero_flux_against_nonzero_rhs_gives_one(self):
        sys_ = single_mesh_system(r=2.0, f=3.0)
        assert kirchhoff_residual(sys_, MeshFluxes(values=np.zeros(1))) == 1.0

    def test_zero_rhs_uses_floor(self):
        sys_ = assemble_mesh_system(
            [ReluctanceElement("r", 2.0)],
            [],
            [MeshSpec(elements=(("r", +1),))],
        )
        # phi = 1 leaves defect 2.0; normalizer is the floor.
        res = kirchhoff_residual(sys_, MeshFluxes(values=np.ones(1)), floor=1e-30)
        assert res == pytest.approx(2.0 / 1e-30)

    def test_residual_grows_with_perturbation(self):
        sys_ = single_mesh_system(r=2.0, f=3.0)
        phi = solve_linear(sys_).values
        r1 = kirchhoff_residual(sys_, MeshFluxes(values=phi + 1e-6))
        r2 = kirchhoff_residual(sys_, MeshFluxes(values=phi + 2e-6))
        assert r2 == pytest.approx(2 * r1, rel=1e-6)
        assert r1 == pytest.approx(2.0 * 1e-6 / 3.0, rel=1e-6)

    def test_dimension_mismatch_rejected(self):
        sys_ = single_mesh_system()
        with pytest.raises(ValueError, match="length"):
            kirchhoff_residual(sys_, MeshFluxes(values=np.zeros(2)))


def fraction_residual(system, values):
    """A@phi - b summed in Fractions and rounded once: the value the
    integer residual must reproduce bit for bit."""
    out = []
    for i in range(system.n):
        acc = Fraction(0)
        for j in range(system.n):
            acc += Fraction(system.matrix[i, j]) * Fraction(values[j])
        out.append(float(acc - Fraction(system.rhs[i])))
    return np.array(out)


class TestExactResidualVector:
    def assert_bitwise_equal(self, matrix, rhs, values):
        system = MeshSystem(matrix=np.array(matrix, dtype=float), rhs=np.array(rhs, dtype=float))
        got = _exact_residual_vector(system, np.array(values, dtype=float))
        want = fraction_residual(system, values)
        assert got.tobytes() == want.tobytes()

    def test_zeros_subnormals_and_far_exponents(self):
        tiny = 5e-324
        self.assert_bitwise_equal(
            [
                [0.0, 1e300, -3.5, tiny],
                [2.0**-1074, 0.0, 1e-300, -1e200],
                [-0.0, 1.0, 0.0, 1e-310],
                [7.0, -7.0, 1e150, 0.0],
            ],
            [1e-320, -0.0, 3.0, 1e300],
            [1e-8, 1e-300, -2.5e-310, 1e100],
        )

    def test_exact_cancellation_gives_positive_zero(self):
        system = MeshSystem(matrix=np.array([[2.0, -1.0], [0.5, 0.25]]), rhs=np.array([3.0, 1.0]))
        residual = _exact_residual_vector(system, np.array([2.0, 1.0]))
        assert residual.tolist() == [0.0, 0.25]
        assert not np.signbit(residual[0])

    def test_random_mixed_signs_and_scales(self):
        rng = np.random.default_rng(17)

        def draw(shape):
            # Products stay below the float range; the smallest reach
            # far under the subnormal range.
            mags = 10.0 ** rng.uniform(-320, 150, size=shape)
            signs = rng.choice([-1.0, 1.0], size=shape)
            zeros = rng.random(shape) < 0.2
            return np.where(zeros, 0.0, signs * mags)

        for _ in range(300):
            n = int(rng.integers(1, 7))
            self.assert_bitwise_equal(draw((n, n)), draw(n), draw(n))

    def test_near_cancelling_terms_round_once(self):
        # A float64 matvec returns 0 here; the exact residual is 2**-60.
        matrix = [[1.0, 1.0], [1.0, -1.0]]
        values = [1.0, 2.0**-60]
        self.assert_bitwise_equal(matrix, [1.0, 1.0], values)
        system = MeshSystem(matrix=np.array(matrix), rhs=np.array([1.0, 1.0]))
        residual = _exact_residual_vector(system, np.array(values))
        assert residual.tolist() == [2.0**-60, -(2.0**-60)]
