import math
import random

import pytest

from chevcalc import rootsys
from chevcalc.chevrep import get_representation
from chevcalc.errors import InvalidType, OppositeRoots, OracleMismatch
from chevcalc.exactring import Ring
from chevcalc.rootsys import (
    build_root_system,
    compute_structure_constants,
    find_unit_sum_decomposition,
)

from wordgen import FractionLieConstants, extracted_comm_coeffs

MANDATORY = [
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("B", 2),
    ("B", 3),
    ("C", 2),
    ("C", 3),
    ("D", 4),
    ("G", 2),
]

EXTRA = [("F", 4), ("E", 6)]

# every system `RootSystem` supports: 8 + 7 + 7 + 6 + 3 + 1 + 1 = 33
SUPPORTED = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in range(6, 9)]
    + [("F", 4), ("G", 2)]
)

ROOT_COUNTS = {
    ("A", 2): 6,
    ("A", 3): 12,
    ("A", 4): 20,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("G", 2): 12,
    ("F", 4): 48,
    ("E", 6): 72,
}

COXETER = {
    ("A", 2): 3,
    ("A", 3): 4,
    ("A", 4): 5,
    ("B", 2): 4,
    ("B", 3): 6,
    ("C", 2): 4,
    ("C", 3): 6,
    ("D", 4): 6,
    ("G", 2): 6,
    ("F", 4): 12,
    ("E", 6): 12,
}


def reflection_closure(rs):
    """Independent oracle: close the simple roots under all reflections."""
    current = set(rs.simple)
    while True:
        new = set(current)
        for a in current:
            for b in current:
                new.add(rs.reflect(a, b))
        if new == current:
            return current
        current = new


@pytest.mark.parametrize("label,rank", MANDATORY + EXTRA)
def test_realization_matches_reflection_closure(label, rank):
    rs = build_root_system(label, rank)
    assert set(rs.roots) == reflection_closure(rs)
    assert len(rs.roots) == ROOT_COUNTS[(label, rank)]


@pytest.mark.parametrize("label,rank", MANDATORY + EXTRA)
def test_heights_and_order(label, rank):
    rs = build_root_system(label, rank)
    assert len(rs.positive_roots) == len(rs.roots) // 2
    assert sum(1 for r in rs.roots if rs.height(r) == 1) == rank
    assert max(rs.height(r) for r in rs.roots) == COXETER[(label, rank)] - 1
    heights = [rs.height(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    for r in rs.positive_roots:
        assert rs.height(rs.neg(r)) == -rs.height(r)
        assert all(c >= 0 for c in rs.coords(r))


def test_cartan_matrices_frozen():
    def cartan(rs):
        return [
            [rs.cartan_int(a, b) for b in rs.simple] for a in rs.simple
        ]

    assert cartan(build_root_system("A", 2)) == [[2, -1], [-1, 2]]
    assert cartan(build_root_system("B", 2)) == [[2, -1], [-2, 2]]
    assert cartan(build_root_system("C", 2)) == [[2, -2], [-1, 2]]
    assert cartan(build_root_system("G", 2)) == [[2, -3], [-1, 2]]


def test_lengths():
    for label, rank, ratio in [("B", 3, 2), ("C", 3, 2), ("F", 4, 2), ("G", 2, 3)]:
        rs = build_root_system(label, rank)
        assert rs.num_lengths() == 2
        assert rs._max_norm == ratio * rs._min_norm
        long_count = sum(1 for r in rs.roots if rs.is_long(r))
        short_count = sum(1 for r in rs.roots if rs.is_short(r))
        assert long_count + short_count == len(rs.roots)
    assert build_root_system("A", 3).num_lengths() == 1
    assert not build_root_system("A", 3).is_short(build_root_system("A", 3).roots[0])


def test_invalid_types():
    with pytest.raises(InvalidType):
        build_root_system("H", 3)
    with pytest.raises(InvalidType):
        build_root_system("B", 1)
    with pytest.raises(InvalidType):
        build_root_system("A", 9)


@pytest.mark.parametrize("label,rank", MANDATORY)
def test_lie_constants_carter_magnitude(label, rank):
    rs = build_root_system(label, rank)
    for a in rs.roots:
        for b in rs.roots:
            if a == b or b == rs.neg(a):
                continue
            s = rs.add(a, b)
            if s is None:
                continue
            n = rs.lie_constant(a, b)
            # Carter's theorem: the magnitude is one more than the chain p.
            assert abs(n) == rs.p_value(a, b) + 1
            assert n == -rs.lie_constant(b, a)
            assert n == -rs.lie_constant(rs.neg(a), rs.neg(b))


@pytest.mark.parametrize("label,rank", [("B", 3), ("G", 2), ("D", 4)])
def test_lie_constants_cyclic_identity(label, rank):
    rs = build_root_system(label, rank)
    for a in rs.roots:
        for b in rs.roots:
            if a == b or b == rs.neg(a):
                continue
            c = rs.neg(tuple(x + y for x, y in zip(a, b)))
            if not rs.contains(c):
                continue
            # N(a,b)/|c|^2 = N(b,c)/|a|^2 = N(c,a)/|b|^2, cleared of fractions.
            assert rs.lie_constant(a, b) * rs.norm2(a) == rs.lie_constant(b, c) * rs.norm2(c)
            assert rs.lie_constant(b, c) * rs.norm2(b) == rs.lie_constant(c, a) * rs.norm2(a)


def test_chain_values():
    rs = build_root_system("G", 2)
    alpha = (1, -1, 0)
    beta = (-2, 1, 1)
    # the alpha-string through beta is beta, ..., beta + 3*alpha
    assert rs.p_value(rs.neg(alpha), beta) == 3
    assert rs.p_value(alpha, beta) == 0
    with pytest.raises(OppositeRoots):
        rs.p_value(alpha, alpha)
    with pytest.raises(OppositeRoots):
        rs.lie_constant(alpha, rs.neg(alpha))


def test_extraspecial_base_positive():
    for label, rank in MANDATORY:
        rs = build_root_system(label, rank)
        for gamma in rs.positive_roots:
            if gamma in rs.simple:
                continue
            eps, eta = rs.extraspecial_pair(gamma)
            assert rs.add(eps, eta) == gamma
            assert rs.lie_constant(eps, eta) == rs.p_value(eps, eta) + 1


@pytest.mark.parametrize("label,rank", SUPPORTED, ids=["%s%d" % s for s in SUPPORTED])
def test_lie_constants_match_fraction_reference(label, rank):
    rs = build_root_system(label, rank)
    ref = FractionLieConstants(rs)
    for a in rs.roots:
        neg_a = tuple(-x for x in a)
        for b in rs.roots:
            assert rs.add(a, b) == ref.add(a, b)
            if b == neg_a:
                continue
            n = ref.lie_constant(a, b)
            assert n.denominator == 1
            assert rs.lie_constant(a, b) == n
    for gamma in rs.positive_roots:
        if gamma in rs.simple:
            with pytest.raises(OppositeRoots):
                rs.extraspecial_pair(gamma)
        else:
            assert rs.extraspecial_pair(gamma) == ref.extraspecial_pair(gamma)


def test_commutator_leading_coefficient_is_lie_constant():
    for label, rank in [("A", 2), ("B", 2), ("C", 2), ("G", 2)]:
        rs = build_root_system(label, rank)
        sc = compute_structure_constants(rs)
        rng = random.Random(11)
        pairs = [
            (a, b)
            for a in rs.roots
            for b in rs.roots
            if a != b and b != rs.neg(a) and rs.add(a, b)
        ]
        for a, b in rng.sample(pairs, min(10, len(pairs))):
            assert sc.c11(a, b) == rs.lie_constant(a, b)


def test_pair_roots_ordering():
    rs = build_root_system("G", 2)
    sc = compute_structure_constants(rs)
    alpha = (1, -1, 0)
    beta = (-2, 1, 1)
    entries = sc.pair_roots(alpha, beta)
    ijs = [ij for ij, _ in entries]
    assert ijs == [(1, 1), (2, 1), (3, 1), (3, 2)]
    with pytest.raises(OppositeRoots):
        sc.comm_coeffs(alpha, alpha)
    with pytest.raises(OppositeRoots):
        sc.comm_coeffs(alpha, rs.neg(alpha))


def test_find_unit_sum_decomposition():
    z = Ring.integers()
    half = Ring.integers().localize_at(2)
    a2 = build_root_system("A", 2)
    sc_a2 = compute_structure_constants(a2)
    got = find_unit_sum_decomposition(sc_a2, (1, 0, -1), z)
    assert got is not None
    beta, gamma, eps = got
    assert a2.add(beta, gamma) == (1, 0, -1)
    assert eps * sc_a2.c11(beta, gamma) == z.one()

    c2 = build_root_system("C", 2)
    sc_c2 = compute_structure_constants(c2)
    # A long root of C2 only decomposes with coefficient +-2.
    assert find_unit_sum_decomposition(sc_c2, (2, 0), z) is None
    got = find_unit_sum_decomposition(sc_c2, (2, 0), half)
    assert got is not None
    beta, gamma, eps = got
    assert eps * sc_c2.c11(beta, gamma) == half.one()


# ----- integer coordinates on every supported system -----

def _root_count(label, n):
    return {
        "A": n * (n + 1),
        "B": 2 * n * n,
        "C": 2 * n * n,
        "D": 2 * n * (n - 1),
        "E": {6: 72, 7: 126, 8: 240}.get(n),
        "F": 48,
        "G": 12,
    }[label]


@pytest.mark.parametrize("label,rank", SUPPORTED, ids=["%s%d" % s for s in SUPPORTED])
def test_coordinates_and_coroots_recover_each_root(label, rank):
    rs = build_root_system(label, rank)
    assert len(rs.roots) == _root_count(label, rank)
    simple_norms = [rs.norm2(a) for a in rs.simple]
    lcm = math.lcm(*simple_norms)
    for r in rs.roots:
        # sum c_i a_i = r
        combo = [0] * rs.ambient_dim
        for c, a in zip(rs.coords(r), rs.simple):
            combo = [x + c * y for x, y in zip(combo, a)]
        assert tuple(combo) == r
        # sum c_i 2a_i/(a_i, a_i) = 2r/(r, r), times lcm * (r, r)
        combo = [0] * rs.ambient_dim
        for c, a, norm in zip(rs.coroot_coords(r), rs.simple, simple_norms):
            combo = [x + c * 2 * (lcm // norm) * y for x, y in zip(combo, a)]
        assert [rs.norm2(r) * x for x in combo] == [2 * lcm * x for x in r]


def test_root_strings_must_reach_exactly_the_given_roots(monkeypatch):
    a2_roots, a2_simple = rootsys._build_a(2)
    builders = {
        # a vector no root string reaches
        "extra": (a2_roots + [(2, -1, -1)], a2_simple),
        # simple roots whose sum is not a root reach only four roots
        "not a base": (a2_roots, [(1, -1, 0), (0, -1, 1)]),
        # (1,-1,0) + (-1,0,1) + ... reaches -(1,-1,0) as a positive root
        "both signs": (a2_roots, [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]),
    }
    for roots, simple in builders.values():
        monkeypatch.setitem(rootsys._BUILDERS, "A", (lambda rank: (roots, simple), 1, 8))
        with pytest.raises(OracleMismatch):
            rootsys.RootSystem("A", 2)


@pytest.mark.parametrize("label,rank", MANDATORY + [("F", 4)])
def test_pairs_commute_exactly_when_their_sum_is_no_root(label, rank):
    rs = build_root_system(label, rank)
    sc = compute_structure_constants(rs)
    for a in rs.roots:
        for b in rs.roots:
            if a != b and b != rs.neg(a):
                coeffs = sc.comm_coeffs(a, b)
                # N(x, y) = +-(p+1) along an unbroken root string, so no
                # coefficient vanishes
                assert all(c != 0 for _, c in coeffs)
                commute = all(c == 0 for _, c in coeffs)
                assert commute == (rs.add(a, b) is None)


# ----- the closed form against coefficients read off adjoint matrices -----


def _assert_closed_form_matches_extraction(rs, pairs):
    sc = compute_structure_constants(rs)
    rep = get_representation(rs, "adjoint")
    for a, b in pairs:
        assert sc.comm_coeffs(a, b) == extracted_comm_coeffs(rep, sc, a, b)


def _pairs(rs):
    return [(a, b) for a in rs.roots for b in rs.roots if a != b and b != rs.neg(a)]


@pytest.mark.parametrize(
    "label,rank",
    [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)],
)
def test_commutator_formula_matches_extraction_on_every_pair(label, rank):
    rs = build_root_system(label, rank)
    _assert_closed_form_matches_extraction(rs, _pairs(rs))


def test_commutator_formula_matches_extraction_on_f4_sample():
    rs = build_root_system("F", 4)
    pairs = random.Random("F4 pairs").sample(_pairs(rs), 300)
    _assert_closed_form_matches_extraction(rs, pairs)
