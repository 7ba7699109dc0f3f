"""Named constructions and construction operators."""

import itertools

import pytest

from matroidkit.core import (AxiomViolation, Matroid, bit, elems,
                             is_isomorphic, mask_of, popcount, validate)
from matroidkit.builders import (BadElement, BadParams, NotAFlat,
                                 NotATriangle, NotATriad,
                                 NotCircuitHyperplane, RestrictionMismatch,
                                 delta_wye, fano, graphic, is_modular_flat,
                                 nonfano, parallel_add, parallel_connection,
                                 paving, paving8, paving8_ext,
                                 principal_extension, relax, series_add,
                                 spike, spiked_fano, twisted_cube_matroid,
                                 uniform, wheel, whirl, wye_delta, rim,
                                 modular_cut_extension)
from matroidkit.connectivity import is_3_connected, lambda_
from matroidkit.structures import is_quad, triangles, triads


class TestUniform:
    def test_counts(self):
        assert len(uniform(2, 4).bases) == 6
        assert len(uniform(3, 5).bases) == 10
        assert uniform(0, 3).bases == (0,)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            uniform(5, 4)


class TestPaving:
    def test_fano(self):
        m = fano()
        assert len(m.bases) == 28 and m.rank == 3

    def test_nonfano_by_list(self):
        # dropping one line from the list gives the relaxation
        lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                 (1, 4, 6), (2, 3, 6)]
        m = paving(3, 7, [mask_of(l) for l in lines])
        assert len(m.bases) == 29
        assert is_isomorphic(m, nonfano()) is not None

    def test_paving8_from_its_five_circuits(self):
        m = paving8()
        assert m.rank == 4 and m.n == 8 and len(m.bases) == 70 - 5

    def test_invalid_list_rejected(self):
        # two 3-sets sharing two elements without their union listed
        with pytest.raises(AxiomViolation):
            paving(3, 6, [0b000111, 0b001011])

    def test_wrong_size_circuit(self):
        with pytest.raises(BadParams):
            paving(3, 6, [0b0011])


class TestWheelWhirl:
    def test_wheel3_is_k4(self):
        # oracle: K4 has 16 spanning trees (Cayley's formula 4^2)
        m = wheel(3)
        assert len(m.bases) == 16
        k4 = graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert is_isomorphic(m, k4) is not None

    def test_whirl2_is_u24(self):
        assert is_isomorphic(whirl(2), uniform(2, 4)) is not None

    def test_whirl3_basis_count(self):
        assert len(whirl(3).bases) == 17

    def test_bad_params(self):
        with pytest.raises(BadParams):
            wheel(1)


class TestRelax:
    def test_fano_relaxation(self):
        m = relax(fano(), mask_of((2, 4, 5)))
        assert is_isomorphic(m, nonfano()) is not None

    def test_basis_count_increases_by_one(self):
        w = wheel(3)
        assert len(relax(w, rim(3)).bases) == len(w.bases) + 1

    def test_non_circuit_hyperplane_rejected(self):
        m = fano()
        with pytest.raises(NotCircuitHyperplane):
            relax(m, 0b0001111)   # a 4-element circuit is not a hyperplane
        with pytest.raises(NotCircuitHyperplane):
            relax(m, 0b0000011)


class TestSpike:
    def test_legs_are_triangles_through_tip(self):
        m = spike(3)
        t = m.id_of("t")
        for i in (1, 2, 3):
            leg = m.set_of(["t", f"x{i}", f"y{i}"])
            assert m.rank_of(leg) == 2 and (leg >> t) & 1

    def test_spike4_quads(self):
        m = spike(4)
        for i, j in itertools.combinations(range(1, 5), 2):
            q = m.set_of([f"x{i}", f"y{i}", f"x{j}", f"y{j}"])
            assert is_quad(m, q)

    def test_spike4_shape(self):
        m = spike(4)
        assert m.rank == 4 and m.n == 9

    def test_bad_params(self):
        with pytest.raises(BadParams):
            spike(2)


class TestAddOperators:
    def test_parallel_add_shape(self):
        m = parallel_add(uniform(2, 3), 0, "a2")
        assert m.rank == 2 and m.n == 4
        assert m.rank_of(m.set_of(["a", "a2"])) == 1

    def test_simplify_undoes_parallel_add(self):
        base = fano()
        m = parallel_add(base, 3, "extra")
        s, _ = m.simplify()
        assert is_isomorphic(s, base) is not None

    def test_series_add_then_contract(self):
        base = uniform(2, 4)
        m = series_add(base, 1, "s")
        assert m.contract(bit(m.id_of("s"))) == base

    def test_loop_and_coloop_rejected(self):
        loopy = validate([0b0110, 0b1010, 0b1100], 4)  # element 0 is a loop
        with pytest.raises(BadElement):
            parallel_add(loopy, 0, "x")
        coloopy = loopy.dual()
        with pytest.raises(BadElement):
            series_add(coloopy, 0, "x")


class TestPrincipalExtension:
    def test_free_extension_joins_no_small_circuit(self):
        base = uniform(3, 6)
        m = principal_extension(base, base.full, "z")
        z = m.id_of("z")
        for c in m.circuits():
            if (c >> z) & 1:
                assert popcount(c) == m.rank + 1

    def test_extension_on_fano_line_makes_four_point_line(self):
        base = fano()
        line = base.closure(0b0000011)
        m = principal_extension(base, line, "z")
        grown = line | bit(m.id_of("z"))
        assert m.rank_of(grown) == 2 and popcount(grown) == 4

    def test_not_a_flat_rejected(self):
        base = fano()
        with pytest.raises(NotAFlat):
            principal_extension(base, 0b0000011, "z")   # line minus a point


class TestModularCutExtension:
    def test_single_flat_agrees_with_principal(self):
        base = fano()
        line = base.closure(0b0000011)
        a = principal_extension(base, line, "z")
        b = modular_cut_extension(base, [line], "z")
        assert a == b

    def test_paving8_extension_lies_on_three_lines(self):
        m = paving8_ext()
        z = m.id_of("z")
        for pair in (("t1", "t2"), ("q1", "p1"), ("q2", "p2")):
            line = m.set_of(pair)
            assert m.rank_of(line | bit(z)) == 2

    def test_three_skew_lines_on_u36_define_a_point(self):
        # the generated cut has no modular pairs, hence no forced meets, and
        # the extension is a matroid with the new point on all three lines
        # (the construction succeeds; see the decisions ledger)
        base = uniform(3, 6)
        lines = [0b000011, 0b001100, 0b110000]
        m = modular_cut_extension(base, lines, "z")
        z = m.id_of("z")
        for l in lines:
            assert m.rank_of(l | bit(z)) == 2
        validate(m.bases, m.n)


class TestParallelConnection:
    def test_identity_case(self):
        m = fano()
        t = m.closure(0b0000011)
        rest = m.restrict(t)
        glued = parallel_connection(m, rest, rest.labels)
        assert glued == m

    def test_two_k4_along_triangle(self):
        k1 = wheel(3)
        tri = next(t for t in triangles(k1))
        tl = k1.label_list(tri)
        k2 = graphic(4, [(1, 2), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3)],
                     tl + ["d", "e", "f"])
        tri2 = k2.set_of(tl)
        assert k2.rank_of(tri2) == 2
        glued = parallel_connection(k1, k2, tl)
        assert glued.n == 9 and glued.rank == 4

    def test_restrictions_recovered(self):
        m = twisted_cube_matroid()   # built through parallel_connection
        assert m.n == 12

    def test_restriction_mismatch(self):
        with pytest.raises(RestrictionMismatch):
            parallel_connection(fano(), uniform(2, 4), ["a", "b"])

    def test_shared_labels_listed_in_another_order(self):
        # on both sides T = {a, b, c} is a loop a and two free points; the
        # second side lists T as b, c, a, a 3-cycle of the first's order
        m1 = Matroid(4, [0b0110, 0b1010, 0b1100], ["a", "b", "c", "d"])
        m2 = Matroid(4, [0b0011, 0b1001, 0b1010], ["b", "c", "a", "e"])
        glued = parallel_connection(m1, m2, ["a", "b", "c"])
        assert glued.labels == ("a", "b", "c", "d", "e")
        assert glued.is_loop(0)
        assert glued.delete(1) == uniform(2, 4, ["b", "c", "d", "e"])

    def test_triangle_modular_in_k4_but_not_in_spike(self):
        k4 = wheel(3)
        tri = next(t for t in triangles(k4))
        assert is_modular_flat(k4, tri)
        s = spike(4)
        leg = s.set_of(["t", "x1", "y1"])
        assert not is_modular_flat(s, leg)


class TestDeltaWye:
    def test_round_trip(self):
        for m in (wheel(4), fano()):
            tri = next(t for t in triangles(m))
            once = delta_wye(m, tri)
            back = wye_delta(once, tri)
            assert back == m

    def test_k4_becomes_k23(self):
        m = wheel(3)
        tri = next(t for t in triangles(m))
        dy = delta_wye(m, tri)
        k23 = graphic(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert is_isomorphic(dy, k23) is not None

    def test_wheel_identity(self):
        # with T = {x, y, z}, y the rim element, M/y\z matches M' / z / x
        m = wheel(4)
        tri = next(t for t in triangles(m))
        trds = triads(m)
        y = next(e for e in elems(tri)
                 if sum(1 for td in trds if (td >> e) & 1) == 2)
        x, z = [e for e in elems(tri) if e != y]
        mp = delta_wye(m, tri)
        left = m.minor(bit(y), bit(z))
        assert is_isomorphic(left, mp.contract(bit(z) | bit(x))) is not None

    def test_requires_triangle_or_triad(self):
        m = uniform(3, 6)
        with pytest.raises(NotATriangle):
            delta_wye(m, 0b000111)
        with pytest.raises(NotATriad):
            wye_delta(m, 0b000111)


class TestConstructions:
    def test_every_builder_output_validates(self):
        for m in (uniform(2, 4), uniform(3, 6), wheel(3), wheel(4), whirl(3),
                  fano(), nonfano(), spike(3), spike(4), paving8(),
                  paving8_ext(), twisted_cube_matroid(), spiked_fano(4)):
            validate(m.bases, m.n, m.labels)

    def test_twisted_cube_shape(self):
        m = twisted_cube_matroid()
        assert m.n == 12 and is_3_connected(m)

    def test_spiked_fano_shape(self):
        m = spiked_fano(4)
        assert m.n == 12 and is_3_connected(m)
        spike_part = m.set_of(["x2", "y2", "x3", "y3", "x4", "y4"])
        assert lambda_(m, spike_part) == 2

    def test_spiked_fano_free_variant(self):
        m = spiked_fano(4, free_tip=True)
        assert m.n == 13 and is_3_connected(m)
