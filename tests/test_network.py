"""Tests for generic mesh-network assembly and the linear solver."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from srmec.exact import solve_exact
from srmec.fidelity import BASE_THRESHOLD, DEFAULT_SEED, STRONG_THRESHOLD, sample_regime_case
from srmec.motor import (
    ELEMENT_ORDER,
    MESH_SPECS,
    SOURCE_ORDER,
    TOPOLOGY,
    SourceSet,
    build_network,
    element_values,
    source_values,
)
from srmec.network import (
    RESIDUAL_CHUNK,
    MeshFluxes,
    MeshSpec,
    MeshSystem,
    MmfSource,
    NetworkDefinitionError,
    ReluctanceElement,
    SolveError,
    _exact_residual_vector,
    _exact_residuals,
    assemble_mesh_system,
    compile_topology,
    kirchhoff_residual,
    solve_linear,
)


def object_loop_assembly(element_ids, values, source_ids, mmfs, meshes):
    """Reference assembler: every element adds s_i*s_j*v into each pair
    of meshes it borders, element by element from zero; every mesh
    adds its signed sources in traversal order."""
    n = len(meshes)
    matrix, rhs = np.zeros((n, n)), np.zeros(n)
    for eid, value in zip(element_ids, values):
        members = [(i, sign) for i, mesh in enumerate(meshes) for e, sign in mesh.elements if e == eid]
        for i, si in members:
            for j, sj in members:
                matrix[i, j] += si * sj * value
    for i, mesh in enumerate(meshes):
        for sid, sign in mesh.sources:
            rhs[i] += sign * mmfs[list(source_ids).index(sid)]
    return matrix, rhs


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


class TestCompileTopology:
    def test_double_traversal_rejected_like_the_object_assembler(self):
        twice = [MeshSpec(elements=(("a", +1), ("a", +1)))]
        with pytest.raises(NetworkDefinitionError, match="traverses element 'a' twice"):
            assemble_mesh_system([ReluctanceElement("a", 1.0)], [], twice)
        with pytest.raises(NetworkDefinitionError, match="traverses element 'a' twice"):
            compile_topology(("a",), (), twice)

    def test_duplicate_ids_named(self):
        mesh = [MeshSpec(elements=(("a", +1),), sources=(("s", +1),))]
        with pytest.raises(NetworkDefinitionError, match="duplicate element id 'b'"):
            compile_topology(("a", "b", "b"), ("s",), mesh)
        with pytest.raises(NetworkDefinitionError, match="duplicate source id 's'"):
            compile_topology(("a",), ("s", "t", "s"), mesh)

    def test_stamps_match_the_object_loop_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_elements, n_sources = int(rng.integers(1, 10)), int(rng.integers(0, 4))
            eids = tuple(f"e{k}" for k in range(n_elements))
            sids = tuple(f"s{k}" for k in range(n_sources))
            meshes = []
            for _ in range(int(rng.integers(1, 6))):
                picks = rng.choice(n_elements, size=int(rng.integers(1, n_elements + 1)), replace=False)
                members = tuple((eids[int(k)], int(rng.choice([-1, 1]))) for k in picks)
                feeds = tuple((sid, int(rng.choice([-1, 1]))) for sid in sids if rng.random() < 0.5)
                meshes.append(MeshSpec(elements=members, sources=feeds))
            values = 10.0 ** rng.uniform(-5.0, 5.0, n_elements)
            # Distinct powers of two sum exactly in any order: the
            # right-hand side is a matmul, not an element-order sum.
            mmfs = rng.choice([-1.0, 1.0], n_sources) * 2.0 ** rng.permutation(n_sources)
            matrix, rhs = object_loop_assembly(eids, values, sids, mmfs, meshes)
            stamped, stamped_rhs = compile_topology(eids, sids, meshes).assemble(values, mmfs)
            assert stamped.tobytes() == matrix.tobytes()
            assert stamped_rhs.tobytes() == rhs.tobytes()
            system = assemble_mesh_system(
                [ReluctanceElement(e, float(v)) for e, v in zip(eids, values)],
                [MmfSource(s, float(v)) for s, v in zip(sids, mmfs)],
                meshes,
            )
            assert system.matrix.tobytes() == matrix.tobytes()
            assert system.rhs.tobytes() == rhs.tobytes()

    @pytest.mark.parametrize("stream, threshold", [(0, BASE_THRESHOLD), (1, STRONG_THRESHOLD)])
    def test_motor_stamps_match_the_object_loop_on_audit_samples(self, stream, threshold):
        # The audit's bytes depend on its matrices rounding as the object
        # loop rounds them; a matmul pattern differs on about half.
        rng = np.random.default_rng([DEFAULT_SEED, stream])
        for _ in range(200):
            r, s = sample_regime_case(rng, threshold)
            matrix, rhs = object_loop_assembly(
                ELEMENT_ORDER, element_values(r), SOURCE_ORDER, source_values(s), MESH_SPECS
            )
            stamped, stamped_rhs = TOPOLOGY.assemble(element_values(r), source_values(s))
            assert stamped.tobytes() == matrix.tobytes()
            assert stamped_rhs.tobytes() == rhs.tobytes()
            system = build_network(r, s)
            assert system.matrix.tobytes() == matrix.tobytes()
            assert system.rhs.tobytes() == rhs.tobytes()

    def test_stamping_does_not_depend_on_batch_shape(self):
        # The grid stamps (2, m, n_elements) batches; the audit stamps
        # single systems and a point solve (1, 1) batches.
        rng = np.random.default_rng(12)
        values = 1e6 * 10.0 ** rng.uniform(-5.0, 5.0, (2, 7, len(TOPOLOGY.element_ids)))
        sources = np.array(
            [source_values(SourceSet(f_e=f_e, f_pm=f_pm)) for f_e, f_pm in rng.uniform(0.0, 5e3, (7, 2))]
        )
        matrices, rhs = TOPOLOGY.assemble(values, sources)
        assert matrices.shape == (2, 7, 5, 5) and rhs.shape == (7, 5)
        for k, m in np.ndindex(2, 7):
            alone, alone_rhs = TOPOLOGY.assemble(values[k, m], sources[m])
            assert alone.shape == (5, 5) and alone_rhs.shape == (5,)
            assert alone.tobytes() == matrices[k, m].tobytes()
            assert alone_rhs.tobytes() == rhs[m].tobytes()
            single, single_rhs = TOPOLOGY.assemble(values[None, None, k, m], sources[None, None, m])
            assert single.shape == (1, 1, 5, 5)
            assert single.tobytes() == alone.tobytes()
            assert single_rhs.tobytes() == alone_rhs.tobytes()


def random_stamps(rng, count, decades):
    """Mesh matrices of the motor topology from positive element values
    spread over the given number of decades around 1e6 A/Wb."""
    values = 1e6 * 10.0 ** rng.uniform(-decades / 2, decades / 2, (count, len(TOPOLOGY.element_ids)))
    return TOPOLOGY.assemble(values, np.zeros((count, len(TOPOLOGY.source_ids))))[0]


def normwise_difference(x, reference):
    """Per-column max-norm difference relative to the reference."""
    return np.max(np.abs(x - reference), axis=-2) / np.max(np.abs(reference), axis=-2)


class TestStampedElimination:
    def test_agrees_with_lapack_on_random_stamps(self):
        rng = np.random.default_rng(5)
        for decades in (2, 6, 12):
            matrices = random_stamps(rng, 2000, decades)
            rhs = rng.normal(size=(2000, 5, 3))
            difference = normwise_difference(TOPOLOGY.solve(matrices, rhs), np.linalg.solve(matrices, rhs))
            # Both solves are backward stable, so they differ by rounding
            # amplified at most by the condition number.
            assert np.all(difference <= 1e-15 * np.linalg.cond(matrices)[:, None])
            if decades == 2:
                assert difference.max() <= 1e-14

    def test_broadcast_right_hand_side(self):
        # The grid's final solve: one right-hand side per current,
        # shared by every angle.
        rng = np.random.default_rng(6)
        matrices = random_stamps(rng, 4 * 60, 4).reshape(4, 60, 5, 5)
        rhs = rng.normal(size=(4, 1, 5, 3))
        solved = TOPOLOGY.solve(matrices, rhs)
        assert solved.shape == (4, 60, 5, 3)
        full = np.broadcast_to(rhs, solved.shape)
        assert solved.tobytes() == TOPOLOGY.solve(matrices, full).tobytes()
        assert normwise_difference(solved, np.linalg.solve(matrices, full)).max() <= 1e-13

    def test_each_column_solves_to_the_same_bits_alone(self):
        rng = np.random.default_rng(7)
        matrices = random_stamps(rng, 500, 8)
        rhs = rng.normal(size=(500, 5, 3))
        solved = TOPOLOGY.solve(matrices, rhs)
        for column in range(3):
            alone = TOPOLOGY.solve(matrices, rhs[..., column : column + 1])
            assert alone[..., 0].tobytes() == solved[..., column].tobytes()

    def test_single_system_without_batch_axes(self):
        matrix = random_stamps(np.random.default_rng(8), 1, 3)[0]
        rhs = np.arange(1.0, 6.0)[:, None]
        solved = TOPOLOGY.solve(matrix, rhs)
        assert solved.shape == (5, 1)
        assert normwise_difference(solved, np.linalg.solve(matrix, rhs)).max() <= 1e-14

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_zero_or_non_finite_pivot_spoils_only_its_system(self):
        rng = np.random.default_rng(9)
        matrices = random_stamps(rng, 300, 4)
        rhs = rng.normal(size=(300, 5, 1))
        reference = TOPOLOGY.solve(matrices, rhs)
        broken = matrices.copy()
        broken[7] = 0.0
        # An overflowed element that only mesh 2 traverses: the infinite
        # pivot alone would leave the solution finite.
        broken[100, 2, 2] = np.inf
        broken[200, 1, 1] = np.nan
        solved = TOPOLOGY.solve(broken, rhs)
        spoiled = np.isnan(solved).all(axis=(-2, -1))
        assert np.flatnonzero(spoiled).tolist() == [7, 100, 200]
        assert solved[~spoiled].tobytes() == reference[~spoiled].tobytes()

    def test_refuses_a_topology_with_a_mesh_that_owns_no_element(self):
        # Mesh 1 traverses only the element it shares with mesh 0, so its
        # row has no diagonal margin.
        stamps = compile_topology(
            ("a", "b"), (), [MeshSpec(elements=(("a", +1), ("b", +1))), MeshSpec(elements=(("b", -1),))]
        )
        matrix, _ = stamps.assemble(np.array([1.0, 2.0]), np.zeros(0))
        with pytest.raises(NetworkDefinitionError, match="mesh 1 owns no element of its own"):
            stamps.solve(matrix, np.ones((2, 1)))

    def test_refuses_an_element_bordering_three_meshes(self):
        meshes = [MeshSpec(elements=((own, +1), ("shared", +1))) for own in ("a", "b", "c")]
        stamps = compile_topology(("a", "b", "c", "shared"), (), meshes)
        matrix, _ = stamps.assemble(np.ones(4), np.zeros(0))
        with pytest.raises(NetworkDefinitionError, match="element 'shared' borders 3 meshes"):
            stamps.solve(matrix, np.ones((3, 1)))


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
            expected = solve_exact(a, b).rounded()
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
        with pytest.raises(SolveError, match=r"condition number 1\.000e\+13 exceeds limit 1\.000e\+12"):
            solve_linear(sys_)
        # The same spread passes just inside the limit.
        inside = MeshSystem(matrix=np.diag([1.0, 1e-11]), rhs=np.array([1.0, 1.0]))
        assert solve_linear(inside).values[1] == pytest.approx(1e11)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0.0, 1.0, size=(5, 5))
        a = a + a.T + 10 * np.eye(5)
        b = rng.uniform(-5.0, 5.0, size=5)
        sys_ = MeshSystem(matrix=a, rhs=b)
        first = solve_linear(sys_).values
        second = solve_linear(sys_).values
        assert np.array_equal(first, second)

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            # Well conditioned, but the solution 1e600 overflows to inf.
            (1e-300, 1e300),
            (1.0, float("nan")),
        ],
    )
    def test_solution_without_exact_residual_is_a_named_solve_error(self, matrix, rhs):
        sys_ = MeshSystem(matrix=np.array([[matrix]]), rhs=np.array([rhs]), label="odd net")
        with np.errstate(over="ignore"), pytest.raises(SolveError, match="odd net: exact residual"):
            solve_linear(sys_)


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
        # phi = 1 leaves defect 2.0; normalizer is the 1e-30 floor.
        res = kirchhoff_residual(sys_, MeshFluxes(values=np.ones(1)))
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

    def test_residual_beyond_float_range_is_a_named_solve_error(self):
        sys_ = MeshSystem(matrix=np.array([[1e300]]), rhs=np.array([0.0]), label="huge net")
        with pytest.raises(SolveError, match="huge net: exact residual"):
            kirchhoff_residual(sys_, MeshFluxes(values=np.array([1e300])))



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
    """The exact residual against Fractions, bit for bit."""

    @staticmethod
    def residual(system, values):
        return _exact_residual_vector(system, values)

    def assert_bitwise_equal(self, matrix, rhs, values):
        system = MeshSystem(matrix=np.array(matrix, dtype=float), rhs=np.array(rhs, dtype=float))
        got = self.residual(system, np.array(values, dtype=float))
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
        residual = self.residual(system, np.array([2.0, 1.0]))
        assert residual.tolist() == [0.0, 0.25]
        assert not np.signbit(residual[0])

    def test_negative_zero_terms_give_positive_zero(self):
        # Every product is -0.0 and so is -b: the exact residual is 0,
        # returned as +0.0.
        system = MeshSystem(matrix=np.array([[-1.0, 2.0], [1.0, 1.0]]), rhs=np.array([0.0, 0.0]))
        residual = self.residual(system, np.array([0.0, -0.0]))
        assert residual.tolist() == [0.0, 0.0]
        assert not np.signbit(residual).any()

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
        residual = self.residual(system, np.array(values))
        assert residual.tolist() == [2.0**-60, -(2.0**-60)]

    def test_near_cancelling_random_rows(self):
        # b is the float matvec, so each residual is the rounding the
        # matvec left behind.
        rng = np.random.default_rng(23)
        for _ in range(200):
            matrix = rng.uniform(-1.0, 1.0, size=(4, 4)) * 10.0 ** rng.uniform(-20, 20, size=(4, 4))
            values = rng.uniform(-1.0, 1.0, size=4) * 10.0 ** rng.uniform(-20, 20, size=4)
            self.assert_bitwise_equal(matrix, matrix @ values, values)

    @pytest.mark.parametrize(
        "big",
        [np.nextafter(2.0**996, 0.0), 2.0**996, np.nextafter(2.0**997, 0.0), 2.0**997],
        ids=["under_2**996", "at_2**996", "under_2**997", "at_2**997"],
    )
    def test_factors_near_2_to_the_996(self, big):
        # Large factors beside small ones: a row's integers run to over
        # a thousand bits.
        small = 0.1 * 2.0**-100
        self.assert_bitwise_equal([[big, -3.0], [small, 1.0]], [1.0, -big], [small, 1.0 / 3.0])
        self.assert_bitwise_equal([[small, 1.0], [-small, 7.0]], [2.0, 3.0], [big, 1.0 / 3.0])

    def test_products_near_2_to_the_minus_968(self):
        # Products whose exponents sum to about -1010 to -950; b cancels
        # their rounded parts, so each residual is the sum of their
        # rounding errors, which can fall under the subnormal grain
        # 2**-1074.
        rng = np.random.default_rng(31)
        for _ in range(300):
            exponents = rng.integers(-700, -260, size=2)
            a = (1.0 + rng.random(2)) * 2.0**exponents
            x = (1.0 + rng.random(2)) * 2.0 ** (rng.integers(-1010, -950, size=2) - exponents)
            b = a[0] * x[0] + a[1] * x[1]
            self.assert_bitwise_equal([a, [1.0, 1.0]], [b, 0.0], x)

    @pytest.mark.parametrize(
        "factor", [1.4142135 * 2.0**511, np.nextafter(2.0**512, 0.0)], ids=["under_2**1023", "near_2**1024"]
    )
    def test_products_near_2_to_the_1023(self, factor):
        # The first product lies just under 2**1023, the second just
        # under the end of the float range.
        product = factor * factor
        self.assert_bitwise_equal([[factor, 1.0], [1.0, 1.0]], [product, 0.0], [factor, 1.0])

    def test_running_sum_past_the_float_range(self):
        # Each product is 8e307; their running sum 2.4e308 is beyond the
        # float range, but the exact residual, 8e307, is a float.
        factor, value = 2.0**600, 8e307 / 2.0**600
        self.assert_bitwise_equal(
            [[factor, factor, factor], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [1.6e308, 0.0, 0.0],
            [value, value, value],
        )


class TestResidualInASharedChunk(TestExactResidualVector):
    """The same cases with each system in a chunk beside two others.  A
    chunk's rows share one power of two, so the first companion, which
    holds the smallest subnormal, sets that scale for the system; the
    second has a non-finite input, and its failure must leave the
    system's residual untouched."""

    @staticmethod
    def residual(system, values):
        n, tiny = system.n, 2.0**-1074
        matrices = np.stack([np.eye(n) * tiny, system.matrix, np.eye(n)])
        rhs = np.stack([np.full(n, tiny), system.rhs, np.r_[math.nan, np.ones(n - 1)]])
        residuals, failures = _exact_residuals(matrices, np.stack([np.ones(n), values, np.ones(n)]), rhs)
        assert failures == {2: "exact residual is not a finite float: an input is not finite"}
        assert residuals[0].tobytes() == np.zeros(n).tobytes()
        return residuals[1]


class TestVectorisedResidual:
    def test_random_stack_in_several_chunks(self):
        # 2,000 five-mesh systems residualised as one stack, in several
        # chunks.
        rng = np.random.default_rng(47)

        def draw(shape, decades):
            return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-decades, decades, size=shape)

        matrices, values, rhs = draw((2000, 5, 5), 30), draw((2000, 5), 30), draw((2000, 5), 60)
        got = _exact_residual_vector(MeshSystem(matrices, rhs), values)
        for k in range(2000):
            want = fraction_residual(MeshSystem(matrices[k], rhs[k]), values[k])
            assert got[k].tobytes() == want.tobytes()

    def test_residual_beyond_float_range_names_the_batch_index(self):
        third = 8e307
        good = np.eye(3)
        matrices = np.array([good, [[third, third, third], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], good])
        rhs = np.array([[1.0, 1.0, 1.0], [-third, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(SolveError, match=r"big stack: exact residual is not a finite float: .* at batch index 1$"):
            _exact_residual_vector(MeshSystem(matrices, rhs, "big stack"), np.ones((3, 3)))

    def test_failures_in_a_later_chunk_name_their_batch_indices(self):
        third = 8e307
        m = RESIDUAL_CHUNK + 8
        matrices, rhs = np.tile(np.eye(3), (m, 1, 1)), np.ones((m, 3))
        over, nan = RESIDUAL_CHUNK + 2, RESIDUAL_CHUNK + 5
        matrices[over, 0] = third
        rhs[over, 0] = -third
        rhs[nan, 1] = math.nan
        with pytest.raises(SolveError) as info:
            _exact_residual_vector(MeshSystem(matrices, rhs, "long stack"), np.ones((m, 3)))
        message = str(info.value)
        assert message.count("long stack: exact residual is not a finite float") == 2
        assert sorted(int(k) for k in re.findall(r"at batch index (\d+)", message)) == [over, nan]


def audit_systems(stream, count):
    """count stamped audit systems of one sampling stream."""
    threshold = (BASE_THRESHOLD, STRONG_THRESHOLD)[stream]
    rng = np.random.default_rng([DEFAULT_SEED, stream])
    pairs = [sample_regime_case(rng, threshold) for _ in range(count)]
    matrices = TOPOLOGY.stamp(np.array([element_values(r) for r, _ in pairs]))
    rhs = np.array([source_values(s) for _, s in pairs]) @ TOPOLOGY.rhs_pattern
    return matrices, rhs


class TestStackedSolve:
    @pytest.mark.parametrize("stream", [0, 1])
    def test_stack_equals_batch_of_one_solves(self, stream):
        matrices, rhs = audit_systems(stream, 100)
        stacked = solve_linear(MeshSystem(matrices, rhs, "audit stack")).values
        assert stacked.shape == (100, 5)
        for k in range(100):
            alone = solve_linear(MeshSystem(matrices[k], rhs[k])).values
            assert stacked[k].tobytes() == alone.tobytes()

    def test_three_right_hand_sides_of_one_matrix(self):
        matrices, _ = audit_systems(0, 1)
        parts = SourceSet(f_e=700.0, f_pm=4000.0).parts
        rhs = np.array([source_values(part) for part in parts]) @ TOPOLOGY.rhs_pattern
        stacked = solve_linear(MeshSystem(matrices[0], rhs)).values
        for k in range(3):
            alone = solve_linear(MeshSystem(matrices[0], rhs[k])).values
            assert stacked[k].tobytes() == alone.tobytes()

    def test_every_failing_system_is_named(self):
        matrices, rhs = audit_systems(0, 12)
        matrices[3] = np.diag([1.0, 1.0, 1.0, 1.0, 1e-13])  # ill-conditioned
        matrices[5] = np.nan  # no condition estimate: the stack's fails too
        matrices[7] = np.ones((5, 5))  # singular
        matrices[11] *= 1e-300  # well conditioned, but its solution overflows
        rhs[11] *= 1e300
        with np.errstate(over="ignore"), pytest.raises(SolveError) as info:
            solve_linear(MeshSystem(matrices, rhs, "audit stack"))
        message = str(info.value)
        assert message.startswith("audit stack: condition number")
        assert message.count("audit stack: condition number") == 2
        assert "audit stack: condition estimate failed" in message
        assert "audit stack: exact residual is not a finite float" in message
        named = [int(k) for k in re.findall(r"at batch index (\d+)", message)]
        assert named == [3, 5, 7, 11]

    def test_shared_failure_names_indices_once(self):
        matrix = np.diag([1.0, 1e-13])
        with pytest.raises(SolveError, match=r"^pair: condition number 1\.000e\+13 exceeds limit 1\.000e\+12 at batch indices 0, 1, 2$"):
            solve_linear(MeshSystem(matrix, np.ones((3, 2)), "pair"))
