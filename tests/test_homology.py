
import pytest

import twistlab as tl
from twistlab.errors import RingMismatchError, TwistlabError
from twistlab.homology import (
    ChainMapData,
    FreeComplex,
    free_presentation,
    is_presentation_iso,
    maps_equal_mod,
    torsion_presentation,
    zero_presentation,
)
from twistlab.matrices import Matrix

from conftest import (
    ALL_COMPLEXES,
    load_complex,
    load_subcomplex,
    load_system,
    random_flat_system,
)


def M(rows, ring=tl.Z):
    return Matrix.from_int_rows(ring, rows)


def two_term(ring, d1_rows, shape):
    """Chain complex 0 -> C_1 -> C_0 -> 0 with the given boundary."""
    n0, n1 = shape
    return FreeComplex(
        "test", ring, "chain", {0: n0, 1: n1}, {1: M(d1_rows, ring)} if n1 else {}
    )


def test_homology_of_circle_boundary():
    C = two_term(tl.Z, [[0]], (1, 1))
    assert C.homology(0).group_symbol() == "Z"
    assert C.homology(1).group_symbol() == "Z"
    D = two_term(tl.Z, [[-2]], (1, 1))
    assert D.homology(0).group_symbol() == "Z/2"
    assert D.homology(1).group_symbol() == "0"


def test_homology_out_of_range_is_zero():
    C = two_term(tl.Z, [[0]], (1, 1))
    assert C.homology(5).is_zero
    assert C.homology(-1).is_zero


def test_presentation_divisibility_and_reps():
    # Z^3 / <(2,0,0), (0,6,0)> = Z/2 + Z/6 + Z
    C = FreeComplex(
        "t", tl.Z, "chain", {0: 3, 1: 2}, {1: M([[2, 0], [0, 6], [0, 0]])}
    )
    h = C.homology(0)
    assert h.rank == 1 and h.invariants == (2, 6)
    assert h.representatives.ncols == 3
    # representative classes have the stated orders
    for j, d in enumerate(h.relation_orders()):
        rep = h.representatives.col(j)
        coords = C.class_coordinates(0, Matrix.column(tl.Z, rep)).col(0)
        assert coords[j] == (1 if d == 0 else 1)


def test_class_coordinates_of_boundary_vanish():
    C = FreeComplex("t", tl.Z, "chain", {0: 2, 1: 1}, {1: M([[2], [-2]])})
    coords = C.class_coordinates(0, Matrix.column(tl.Z, [2, -2])).col(0)
    assert all(c == 0 for c in coords)


def test_free_complex_refuses_a_differential_of_the_wrong_shape():
    # The d.d check skips a degree with no target rows, so the shape is
    # checked on its own: a 2x1 boundary between two rank-1 terms.
    with pytest.raises(TwistlabError, match="differential at degree 1 is 2x1, not 1x1"):
        FreeComplex("x", tl.Z, "chain", {0: 1, 1: 1}, {1: M([[1], [1]])})
    with pytest.raises(TwistlabError, match="differential at degree 0 is 1x1, not 0x1"):
        FreeComplex("x", tl.Z, "cochain", {0: 1, 1: 0}, {0: M([[1]])})


def test_free_complex_refuses_a_differential_over_another_ring():
    # Over Z the boundary [[2]] leaves Z/2 in degree 0; read over Q it would
    # leave 0.
    with pytest.raises(RingMismatchError, match="differential at degree 1 is over Q, not Z"):
        FreeComplex("x", tl.Z, "chain", {0: 1, 1: 1}, {1: M([[2]], tl.Q)})


def test_free_complex_refuses_a_differential_at_a_degree_of_rank_zero():
    with pytest.raises(TwistlabError, match="differential at degree 2 is 1x1, not 1x0"):
        FreeComplex("x", tl.Z, "chain", {0: 1, 1: 1}, {1: M([[0]]), 2: M([[1]])})
    with pytest.raises(TwistlabError, match="differential at degree 1 is 1x1, not 1x0"):
        FreeComplex("x", tl.Z, "chain", {0: 1}, {1: M([[1]])})


@pytest.mark.parametrize("name", ALL_COMPLEXES)
def test_class_coordinates_of_representatives_are_the_identity(name, rng):
    K = load_complex(name)
    for ring in (tl.Z, tl.Q, tl.prime_field(5)):
        for G in (tl.constant_system(K, 2, ring), random_flat_system(name, 2, ring, rng)):
            for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
                for k in range(K.dimension + 1):
                    h = C.homology(k)
                    coords = C.class_coordinates(k, h.representatives)
                    assert coords == Matrix.identity(ring, h.generators), (name, k)


def reference_quotient(A, boundaries):
    """ker(A) / span(boundaries) by the route that forms every transform: the
    cycles V[:, r:] of A's SNF, the boundaries' cycle coordinates from V^-1,
    the representatives from the kept columns of U'^-1 of their SNF, and a
    class-coordinates function from V^-1 and the kept rows of U'.  Returns
    the cycles, the representatives and that function."""
    snf = tl.smith_normal_form(A)
    r, n = snf.rank, A.ncols
    cycles = snf.V.select_cols(range(r, n))
    bsnf = tl.smith_normal_form(snf.Vinv.mul(boundaries).select_rows(range(r, n)))
    orders = bsnf.diagonal[:bsnf.rank] + [A.ring.zero()] * (n - r - bsnf.rank)
    kept = [i for i in range(n - r) if orders[i] != 1]
    reps = cycles.mul(bsnf.Uinv.select_cols(kept))

    def coordinates(batch):
        zeta = snf.Vinv.mul(batch).select_rows(range(r, n))
        gamma = bsnf.U.select_rows(kept).mul(zeta)
        return Matrix(A.ring, [[c % orders[i] if orders[i] else c for c in row]
                               for i, row in zip(kept, gamma.rows)]) if kept else gamma

    return cycles, reps, coordinates


@pytest.mark.parametrize("name", ALL_COMPLEXES)
def test_presentations_and_class_coordinates_match_the_formed_transforms(name, rng):
    K = load_complex(name)
    for ring in (tl.Z, tl.Q, tl.prime_field(5)):
        for G in (tl.constant_system(K, 2, ring), random_flat_system(name, 2, ring, rng)):
            for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
                for k in range(-1, K.dimension + 2):
                    into = k + 1 if C.direction == "chain" else k - 1
                    cycles, reps, coordinates = reference_quotient(C.diff(k), C.diff(into))
                    h = C.homology(k)
                    assert repr(h.representatives.rows) == repr(reps.rows), (name, k)
                    assert h.representatives.ncols == reps.ncols
                    batch = cycles.hstack(reps).hstack(C.diff(into))
                    got, want = C.class_coordinates(k, batch), coordinates(batch)
                    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
                    assert repr(got.rows) == repr(want.rows), (name, ring, k)


def test_class_coordinates_reject_a_batch_with_a_non_cycle():
    K = load_complex("circle3")
    C = tl.chain_complex(K, tl.constant_system(K, 1, tl.Z))
    edge_a = Matrix.column(tl.Z, [1, 0, 0])
    batch = C.homology(1).representatives.hstack(edge_a)
    with pytest.raises(TwistlabError, match="not a cycle"):
        C.class_coordinates(1, batch)


@pytest.mark.parametrize("name", ["torus", "rp2"])
def test_homology_runs_at_most_two_snfs_per_degree(name, monkeypatch):
    calls = []
    real = tl.matrices.smith_normal_form

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(tl.matrices, "smith_normal_form", counting)
    monkeypatch.setattr(tl.homology, "smith_normal_form", counting)
    K = load_complex(name)
    for ring in (tl.Z, tl.prime_field(2)):
        C = tl.chain_complex(K, tl.constant_system(K, 1, ring))
        for k in range(K.dimension + 1):
            calls.clear()
            C.homology(k)
            assert len(calls) <= 2, (name, ring, k)


@pytest.mark.parametrize("name", ["torus", "rp2"])
def test_groups_run_one_transform_free_elimination_per_differential(name, monkeypatch):
    snfs, diagonals = [], []
    real_snf, real_diagonal = tl.matrices.smith_normal_form, tl.matrices.smith_diagonal

    def counting_snf(A):
        snfs.append(A)
        return real_snf(A)

    def counting_diagonal(A):
        diagonals.append(A)
        return real_diagonal(A)

    for module in (tl.matrices, tl.homology):
        monkeypatch.setattr(module, "smith_normal_form", counting_snf)
        monkeypatch.setattr(module, "smith_diagonal", counting_diagonal)
    K = load_complex(name)
    degrees = range(-1, K.dimension + 2)
    for ring in (tl.Z, tl.prime_field(2)):
        for build in (tl.chain_complex, tl.cochain_complex):
            C = build(K, tl.constant_system(K, 1, ring))
            snfs.clear()
            diagonals.clear()
            for k in degrees:
                C.group(k)
            assert not C.is_acyclic()
            # degrees -1..dim+1 and their neighbours: one differential each
            assert len(diagonals) <= len(degrees) + 2, (name, ring, C.direction)
            first_pass = len(diagonals)
            for k in degrees:
                C.group(k)
            assert len(diagonals) == first_pass
            assert snfs == []


def test_field_homology_has_no_torsion():
    F5 = tl.prime_field(5)
    C = FreeComplex(
        "t", F5, "chain", {0: 2, 1: 2}, {1: Matrix.from_int_rows(F5, [[5, 1], [0, 5]])}
    )
    h = C.homology(0)
    assert h.invariants == ()
    assert h.rank == 1  # the matrix is rank 1 over F_5


def test_chain_map_sign_verification():
    C = two_term(tl.Z, [[2]], (1, 1))
    mats = {0: M([[1]]), 1: M([[1]])}
    ChainMapData("ok", C, C, mats, 1)
    with pytest.raises(TwistlabError):
        ChainMapData("bad", C, C, {0: M([[1]]), 1: M([[-1]])}, 1)
    ChainMapData("anti", C, C, {0: M([[1]]), 1: M([[-1]])}, -1)


def test_mapping_cone_of_identity_is_acyclic():
    K = load_complex("torus")
    G = tl.constant_system(K, 1, tl.Z)
    C = tl.chain_complex(K, G)
    ident = ChainMapData(
        "id", C, C, {k: Matrix.identity(tl.Z, C.rank(k)) for k in C.degrees()}, 1
    )
    assert tl.is_quasi_iso(ident)


def test_zero_map_is_not_quasi_iso():
    K = load_complex("circle1")
    G = tl.constant_system(K, 1, tl.Z)
    C = tl.chain_complex(K, G)
    zero = ChainMapData(
        "zero", C, C, {k: Matrix.zeros(tl.Z, C.rank(k), C.rank(k)) for k in C.degrees()}, 1
    )
    assert not tl.is_quasi_iso(zero)


def test_quasi_iso_iff_induced_isos(rng):
    # sampled equivalence between the cone verdict and presentation isos
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    f = tl.parse_map(open("fixtures/wrap.map").read(), C3, C1)
    for G in [
        tl.constant_system(C1, 1, tl.Z),
        load_system("minus1.sys", C1),
        tl.constant_system(C1, 2, tl.prime_field(3)),
    ]:
        chains, cochains = tl.induced_chain_map(f, G)
        for F in (chains, cochains):
            qi = tl.is_quasi_iso(F)
            degreewise = all(
                is_presentation_iso(
                    tl.induced_map_on_homology(F, k),
                    F.source.homology(k),
                    F.target.homology(k),
                )
                for k in range(2)
            )
            assert qi == degreewise
            assert qi


def test_cone_direction_cochain():
    K = load_complex("circle1")
    G = load_system("minus1.sys", K)
    D = tl.cochain_complex(K, G)
    ident = ChainMapData(
        "id", D, D, {k: Matrix.identity(tl.Z, D.rank(k)) for k in D.degrees()}, 1
    )
    assert tl.is_quasi_iso(ident)


# -- exactness checking -------------------------------------------------


def test_textbook_exact_sequence():
    # 0 -> Z --x2--> Z -> Z/2 -> 0
    zero = zero_presentation(tl.Z)
    Zp = free_presentation(tl.Z, 1)
    Z2 = torsion_presentation(tl.Z, (2,))
    mods = [zero, Zp, Zp, Z2, zero]
    maps = [
        Matrix.zeros(tl.Z, 1, 0),
        M([[2]]),
        M([[1]]),
        Matrix.zeros(tl.Z, 0, 1),
    ]
    rep = tl.exactness_check(mods, maps)
    assert rep.all_exact


def test_zero_map_sequence_fails_at_both_nodes():
    zero = zero_presentation(tl.Z)
    Zp = free_presentation(tl.Z, 1)
    mods = [zero, Zp, Zp, zero]
    maps = [Matrix.zeros(tl.Z, 1, 0), M([[0]]), Matrix.zeros(tl.Z, 0, 1)]
    rep = tl.exactness_check(mods, maps)
    assert not rep.nodes[1].exact
    assert not rep.nodes[2].exact
    assert rep.nodes[0].exact and rep.nodes[3].exact


def test_exactness_with_torsion_kernels():
    # 0 -> Z/2 --incl--> Z/4 --x2--> Z/4 -> Z/2 -> 0 wait: use
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 with x2 then quotient
    zero = zero_presentation(tl.Z)
    Z2 = torsion_presentation(tl.Z, (2,))
    Z4 = torsion_presentation(tl.Z, (4,))
    mods = [zero, Z2, Z4, Z2, zero]
    maps = [
        Matrix.zeros(tl.Z, 1, 0),
        M([[2]]),  # Z/2 -> Z/4, 1 -> 2
        M([[1]]),  # Z/4 -> Z/2 quotient
        Matrix.zeros(tl.Z, 0, 1),
    ]
    rep = tl.exactness_check(mods, maps)
    assert rep.all_exact


def test_exactness_over_field():
    Qv = free_presentation(tl.Q, 2)
    Q1 = free_presentation(tl.Q, 1)
    zero = zero_presentation(tl.Q)
    inc = Matrix.from_int_rows(tl.Q, [[1], [0]])
    proj = Matrix.from_int_rows(tl.Q, [[0, 1]])
    rep = tl.exactness_check([zero, Q1, Qv, Q1, zero],
                             [Matrix.zeros(tl.Q, 1, 0), inc, proj, Matrix.zeros(tl.Q, 0, 1)])
    assert rep.all_exact


@pytest.mark.parametrize("name", ALL_COMPLEXES)
def test_exactness_of_free_differentials_is_vanishing_homology(name, rng):
    # Read as a sequence of free modules, a complex is exact at a node exactly
    # when its homology there vanishes.
    K = load_complex(name)
    for ring in (tl.Z, tl.Q, tl.prime_field(2)):
        for G in (tl.constant_system(K, 1, ring), random_flat_system(name, 1, ring, rng)):
            for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
                degrees = range(K.dimension + 1)
                if C.direction == "chain":
                    degrees = degrees[::-1]
                modules = [free_presentation(ring, C.rank(k)) for k in degrees]
                report = tl.exactness_check(modules, [C.diff(k) for k in degrees[:-1]])
                verdicts = [node.exact for node in report.nodes]
                assert verdicts == [C.group(k).is_zero for k in degrees], (name, G.name, C.label)


@pytest.mark.parametrize("variant", ["homology", "cohomology"])
def test_exactness_runs_at_most_two_snfs_per_node(variant, monkeypatch):
    K = load_complex("klein")
    P = load_subcomplex("klein_circle.sub", K)
    sequences = [tl.assemble_les(P, tl.constant_system(K, 1, ring), variant)
                 for ring in (tl.Z, tl.prime_field(2))]
    calls = []
    real = tl.matrices.smith_normal_form

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(tl.matrices, "smith_normal_form", counting)
    monkeypatch.setattr(tl.homology, "smith_normal_form", counting)
    for les in sequences:
        calls.clear()
        assert les.exactness().all_exact
        assert 0 < len(calls) <= 2 * len(les.nodes), (variant, les.nodes[0].presentation.ring)


def test_exactness_check_refuses_misuse():
    Zp = free_presentation(tl.Z, 1)
    with pytest.raises(TwistlabError, match="labels"):
        tl.exactness_check([Zp, Zp], [M([[1]])], ["only one"])
    with pytest.raises(RingMismatchError):
        tl.exactness_check([Zp, free_presentation(tl.Q, 1)], [M([[1]])])
    with pytest.raises(RingMismatchError):
        tl.exactness_check([Zp, Zp], [Matrix.identity(tl.Q, 1)])


def test_presentations_refuse_a_negative_rank():
    with pytest.raises(TwistlabError, match="negative rank"):
        tl.ModulePresentation(tl.Z, -1, ())


def test_presentation_iso_detects_non_iso():
    Zp = free_presentation(tl.Z, 1)
    assert is_presentation_iso(M([[1]]), Zp, Zp)
    assert is_presentation_iso(M([[-1]]), Zp, Zp)
    assert not is_presentation_iso(M([[2]]), Zp, Zp)
    Z2 = torsion_presentation(tl.Z, (2,))
    assert not is_presentation_iso(M([[1]]), Zp, Z2)
    assert is_presentation_iso(M([[1]]), Z2, Z2)


def test_maps_equal_mod_torsion():
    Z4 = torsion_presentation(tl.Z, (4,))
    assert maps_equal_mod(Z4, M([[1]]), M([[5]]))
    assert not maps_equal_mod(Z4, M([[1]]), M([[2]]))
