import json
import random

import pytest

from chevcalc import cli, rewrite
from chevcalc.chevrep import Representation
from chevcalc.errors import (
    BudgetExhausted,
    ConditionViolated,
    CongruenceFailed,
    InvalidType,
    NodeBudgetExceeded,
    NoUnitCombination,
    NotExtendedIdeal,
    NotSplittingIdeal,
    OppositeRoots,
    OracleMismatch,
)
from chevcalc.exactring import IdealSpec, Ring
from chevcalc.gword import (
    EMPTY,
    Comm,
    Conj,
    Gen,
    Inv,
    LevelShape,
    Prod,
    RelConjShape,
    ShapeReport,
    check_shape,
    flatten,
    node_count,
    substitute_word,
    word_from_text,
    word_to_text,
)
from chevcalc.lgp import LocalDatum, PatchProblem, patch
from chevcalc.rewrite import RewriteEngine, unit_from_idempotent_defect
from chevcalc.rootsys import build_root_system

from wordgen import dense_evaluate, random_ring_element, random_word

A, B, C = (1, -1, 0), (0, 1, -1), (1, 0, -1)


def checked_attestations(eng, out, g, shape):
    """The checks `finish` makes, made on a builder's unchecked word: out
    equals g under the engine's oracle and matches shape.  Returns the
    attested count."""
    assert eng.equal(out, g)
    report = check_shape(out, shape, eng.congruence_oracle())
    assert report.ok, report.reason
    return len(report.attested)


def dense_equal(eng, a, b):
    """Do a and b multiply out alike as dense generator products, the
    reference that is independent of the engine's oracle?"""
    return all(
        dense_evaluate(rep, a, eng.ring) == dense_evaluate(rep, b, eng.ring)
        for rep in eng.reps
    )


def ideal_element(spec, rng, terms=2):
    gens = spec.expand()
    ring = spec.ring
    while True:
        el = ring.zero()
        for _ in range(terms):
            el = el + ring.int_(rng.randrange(-4, 5)) * rng.choice(gens)
        if not el.is_zero():
            return el


# ----- commutator expansion -----


def test_expand_matches_structure_constants():
    ring = Ring.integers().extend("p", "q")
    p, q = ring.var("p"), ring.var("q")
    for name in ("A2", "B2", "C3", "G2"):
        eng = RewriteEngine(name, ring)
        rng = random.Random(hash(name) % 1000)
        roots = sorted(eng.rs.roots)
        for _ in range(10):
            beta, gamma = rng.choice(roots), rng.choice(roots)
            if gamma == eng.rs.neg(beta) or gamma == beta:
                continue
            gens = eng._comm_gens(beta, gamma, p, q)
            assert eng.equal(Prod(tuple(gens)), Comm(Gen(beta, p), Gen(gamma, q)))
            expected = [
                (tuple(i * x + j * y for x, y in zip(beta, gamma)), i, j, c)
                for (i, j), c in eng.sc.comm_coeffs(beta, gamma)
                if c
            ]
            assert len(gens) == len(expected)
            for g, (root, i, j, c) in zip(gens, expected):
                assert g.root == root
                assert g.arg == ring.int_(c) * p**i * q**j


def test_expand_same_root_is_empty():
    ring = Ring.integers().extend("p", "q")
    eng = RewriteEngine("A2", ring)
    w = Prod((Comm(Gen(A, ring.var("p")), Gen(A, ring.var("q"))),))
    assert eng.shorten(w) == EMPTY


def test_expand_opposite_roots_raises():
    ring = Ring.integers().extend("p", "q")
    eng = RewriteEngine("A2", ring)
    with pytest.raises(OppositeRoots):
        eng._comm_gens(A, (-1, 1, 0), ring.var("p"), ring.var("q"))


def test_expand_commuting_pair_is_empty():
    # e1-e2 and e1-e3 span no new root in either order
    ring = Ring.integers().extend("p", "q")
    eng = RewriteEngine("A2", ring)
    w = Prod((Comm(Gen(A, ring.var("p")), Gen(C, ring.var("q"))),))
    assert eng.shorten(w) == EMPTY


# ----- shorten -----


def test_shorten_merges_only_across_commuting_generators():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    x = ring.var("t")
    # a and c commute, a and b do not
    w = Prod((Gen(A, 3 * x), Gen(C, 6 * x), Gen(A, 9 * x)))
    assert eng.shorten(w) == Prod((Gen(A, 12 * x), Gen(C, 6 * x)))
    blocked = Prod((Gen(A, 3 * x), Gen(B, 6 * x), Gen(A, 9 * x)))
    assert eng.shorten(blocked) == blocked
    # a merge that cancels leaves the run between
    assert eng.shorten(Prod((Gen(A, 3 * x), Gen(C, x), Gen(A, -3 * x)))) == Prod((Gen(C, x),))


def test_shorten_expands_short_commutators():
    ring = Ring.integers().extend("p", "q")
    p, q = ring.var("p"), ring.var("q")
    eng = RewriteEngine("A2", ring)
    ab = eng._comm_gens(A, B, p, q)
    assert len(ab) == 1
    assert eng.shorten(Prod((Comm(Gen(A, p), Gen(B, q)),))) == Prod(tuple(ab))
    # x_a(-p) * Conj(x_a(p), x_b(q)) is [x_a(p), x_b(q)]
    pair = Prod((Gen(A, -p), Conj(Gen(A, p), Gen(B, q))))
    assert eng.shorten(pair) == Prod(tuple(ab))
    # a pair whose arguments do not cancel is no commutator
    skew = Prod((Gen(A, p), Conj(Gen(A, p), Gen(B, q))))
    assert eng.shorten(skew) == skew
    # equal roots commute; opposite roots have no expansion
    assert eng.shorten(Prod((Comm(Gen(A, p), Gen(A, q)),))) == EMPTY
    opposite = Prod((Comm(Gen(A, p), Gen((-1, 1, 0), q)),))
    assert eng.shorten(opposite) == opposite
    # a G2 commutator with four Chevalley terms is no shorter written out
    g2 = RewriteEngine("G2", ring)
    long_short = Prod((Comm(Gen((-2, 1, 1), p), Gen((1, -1, 0), q)),))
    assert len(g2.sc.comm_coeffs((-2, 1, 1), (1, -1, 0))) == 4
    assert g2.shorten(long_short) == long_short


# ----- the Hall-Witt identity behind move_indeterminate -----


def test_hall_witt_is_group_identity():
    ring = Ring.integers_mod(5).extend("t")
    eng = RewriteEngine("A2", ring)
    rng = random.Random(7)
    for _ in range(15):
        f = random_word(eng.rs, ring, rng, depth=1)
        h = random_word(eng.rs, ring, rng, depth=1)
        k = random_word(eng.rs, ring, rng, depth=1)
        w, pieces = Comm(Comm(f, h), k), Prod(tuple(eng._hw_pieces(f, h, k)))
        assert eng.equal(w, pieces)
        assert node_count(pieces) <= 4 * (node_count(w) + 3)


def test_hall_witt_trivial_cases():
    # [[f,f],k] and [[f,k],1] are the identity, and so are their pieces
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    f, k = Gen(A, ring.var("t")), Gen(B, ring.int_(2))
    for triple in ((f, f, k), (f, k, EMPTY)):
        assert eng.equal(Prod(tuple(eng._hw_pieces(*triple))), EMPTY)


# ----- the absolute split behind split_pieces -----


def absolute_split(eng, w, var):
    """`_absolute_split_parts` under the engine's prepared retraction."""
    retraction = eng.ring.substitution(eng._retraction(var), eng.ring)
    retract, tail = eng._absolute_split_parts(w, retraction)
    return retract, Prod(tuple(tail))


def test_absolute_split_retract_and_tail():
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    w = Prod((Gen(A, t + 2), Gen(B, 3 * t * u + u), Gen(C, t**2)))
    retract, tail = absolute_split(eng, w, "t")
    for g in flatten(retract):
        assert "t" not in g.arg.vars_used()
    spec = IdealSpec.gens(ring, t)
    report = check_shape(tail, LevelShape(spec))
    assert report.ok and not report.attested
    assert eng.equal(Prod((retract, tail)), w)


def test_absolute_split_random_roundtrip():
    ring = Ring.integers_mod(7).extend("t", "u")
    eng = RewriteEngine("A2", ring)
    spec = IdealSpec.gens(ring, ring.var("t"))
    rng = random.Random(11)
    for _ in range(10):
        w = Prod(tuple(random_word(eng.rs, ring, rng, depth=1) for _ in range(3)))
        retract, tail = absolute_split(eng, w, "t")
        for g in flatten(retract):
            assert "t" not in g.arg.vars_used()
        report = check_shape(tail, LevelShape(spec))
        assert report.ok and not report.attested
        assert eng.equal(Prod((retract, tail)), w)


def test_absolute_split_rejects_bad_variables():
    # split_pieces runs the splitting-variable check before it splits
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    three = IdealSpec.gens(ring, 3)
    with pytest.raises(NotSplittingIdeal):
        eng.split_pieces(Gen(A, ring.var("t")), three, "x")
    loc = Ring.integers().extend("t")
    loc = loc.localize_at(loc.var("t"))
    eng2 = RewriteEngine("A2", loc)
    with pytest.raises(NotSplittingIdeal):
        eng2.split_pieces(Gen(A, loc.var("t")), IdealSpec.gens(loc, 3), "t")


# ----- decompose_avoiding_root -----


def test_decompose_avoids_root_a2():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("A2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    rng = random.Random(3)
    fund = I.product(J).product(J)
    for alpha in sorted(eng.rs.roots):
        value = ideal_element(fund, rng)
        out, rec = eng.decompose_avoiding_root(alpha, value, I, J)
        banned = (alpha, eng.rs.neg(alpha))
        for g in flatten(out):
            assert g.root not in banned
        assert rec.attested == 0
        assert rec.details["route"] == "unit-pair"


def test_decompose_zero_is_empty():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("A2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    out, _ = eng.decompose_avoiding_root(A, ring.zero(), I, J)
    assert out == EMPTY


def test_decompose_c2_long_two_length_route():
    base = Ring.integers().extend("t")
    ring = base.localize_at(base.parse("t^2+t"))
    eng = RewriteEngine("C2", ring)
    t = ring.var("t")
    I = IdealSpec.gens(ring, t)
    J = IdealSpec.gens(ring, t**2)
    value = 5 * t**7 - 2 * t**9
    out, rec = eng.decompose_avoiding_root((2, 0), value, I, J)
    assert rec.details["route"] == "length-two-string"
    assert rec.attested == 0
    banned = ((2, 0), (-2, 0))
    for g in flatten(out):
        assert g.root not in banned


def test_decompose_c2_long_doubles_a_mixed_square():
    # with J = (4tu, 6) the witness of 96t^2u^2 in I*J*J^(2) leans on the
    # mixed square 2*(4tu)*6, which x_alpha(2pq) writes as one short-short
    # commutator; found by a seeded search over two-generator J in C2
    base = Ring.integers().extend("t", "u")
    ring = base.localize_at(base.parse("t^2+t"))
    eng = RewriteEngine("C2", ring)
    t, u = ring.var("t"), ring.var("u")
    I = IdealSpec.gens(ring, 1)
    J = IdealSpec.gens(ring, 4 * t * u, 6)
    value = 96 * t**2 * u**2
    out, rec = eng.decompose_avoiding_root((2, 0), value, I, J)
    # the doubled pieces are the conjugates with a short base root
    assert any(
        isinstance(f, Conj) and eng.rs.is_short(f.base.root) for f in out.factors
    )
    assert rec.details["route"] == "length-two-string"
    assert rec.attested == 0
    assert dense_equal(eng, out, Gen((2, 0), value))


def test_decompose_c3_long_over_z():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("C3", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    value = ring.var("u") * ring.var("v") ** 3
    out, rec = eng.decompose_avoiding_root((2, 0, 0), value, I, J)
    assert rec.details["route"] == "length-two-string"
    assert rec.attested == 0


def test_decompose_g2_over_z3():
    ring = Ring.integers_mod(3).extend("u", "v")
    eng = RewriteEngine("G2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    rng = random.Random(5)
    fund = I.product(J).product(J)
    for alpha in sorted(eng.rs.roots)[:4]:
        value = ideal_element(fund, rng)
        out, rec = eng.decompose_avoiding_root(alpha, value, I, J)
        assert rec.attested == 0


def test_decompose_condition_failures():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    I = IdealSpec.gens(ring, t)
    with pytest.raises(ConditionViolated):
        # rank one leaves no roots to avoid
        a1 = RewriteEngine("A1", ring)
        a1.decompose_avoiding_root(sorted(a1.rs.roots)[0], t**3, I, I)
    with pytest.raises(ConditionViolated):
        # C2 over Z[t] has a residue field of two elements
        RewriteEngine("C2", ring).decompose_avoiding_root((2, 0), t**3, I, I)


def test_decompose_unfundable_value():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("A2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    with pytest.raises(BudgetExhausted):
        eng.decompose_avoiding_root(A, ring.var("u"), I, J)


# ----- opposite-root conjugation -----


@pytest.mark.parametrize("r", ["t+1", "0"])
def test_conjugation_normalize_pushes_a_vaserstein_conjugate(r):
    # x_a(s) conjugated by x_{-a}(r): the one funded level decomposes s away
    # from +-a at depth 0, and the pieces peel through x_{-a}(r) unblocked
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    I = IdealSpec.gens(ring, t)
    J = IdealSpec.gens(ring, u)
    v = Conj(Gen(A, 5 * t * u * u), Gen((-1, 1, 0), ring.parse(r)))
    out, stats = eng.conjugation_normalize(v, (I, J))
    assert checked_attestations(eng, out, v, RelConjShape(J, I.product(J))) == 0
    assert [(e["depth"], e["note"]) for e in stats["budget"]] == [(0, "unit-pair")]
    assert dense_equal(eng, out, v)


# ----- unit_from_idempotent_defect -----


def test_unit_combination_found():
    zt = Ring.integers().extend("t")
    rings = [
        Ring.integers_mod(3),
        Ring.integers_mod(9),
        Ring.integers().localize_at(2),
        zt.localize_at(zt.parse("t^2+t")),
    ]
    for ring in rings:
        combo = unit_from_idempotent_defect(ring)
        total = ring.zero()
        for a, r in combo:
            total = total + a * (r * r - r)
        assert total == ring.one()


def test_unit_combination_refused():
    zt = Ring.integers().extend("t")
    for ring in (Ring.integers(), Ring.integers_mod(4), Ring.integers_mod(6), zt):
        with pytest.raises(NoUnitCombination):
            unit_from_idempotent_defect(ring)


# ----- relative_generation_witness -----


def test_relative_generation_a2_plain():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("A2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    rng = random.Random(13)
    for alpha in sorted(eng.rs.roots):
        value = ideal_element(I.product(J), rng)
        out, rec = eng.relative_generation_witness(alpha, value, I, J)
        assert rec.attested == 0
        assert rec.details["defect_terms"] == 0


def test_relative_generation_c2_long_defect_route():
    ring = Ring.integers().localize_at(2).extend("u", "v")
    eng = RewriteEngine("C2", ring)
    u, v = ring.var("u"), ring.var("v")
    I = IdealSpec.gens(ring, u)
    J = IdealSpec.gens(ring, v)
    value = u * u * v + 2 * u * v + u * v * v
    out, rec = eng.relative_generation_witness((2, 0), value, I, J)
    assert rec.attested == 0
    assert rec.details["defect_terms"] >= 1


def test_relative_generation_c2_short_recurses():
    ring = Ring.integers_mod(3).extend("u", "v")
    eng = RewriteEngine("C2", ring)
    u, v = ring.var("u"), ring.var("v")
    I = IdealSpec.gens(ring, u)
    J = IdealSpec.gens(ring, v)
    out, rec = eng.relative_generation_witness((1, 1), u * v, I, J)
    assert rec.attested == 0
    # the short-root correction re-enters through the long-root route
    assert rec.details["plain_terms"] >= 1
    assert rec.details["defect_terms"] + rec.details["double_terms"] >= 1


def test_relative_generation_b2_matches_c2_behavior():
    ring = Ring.integers_mod(3).extend("u", "v")
    eng = RewriteEngine("B2", ring)
    long_root = sorted(r for r in eng.rs.roots if eng.rs.is_long(r))[-1]
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    out, rec = eng.relative_generation_witness(
        long_root, ring.var("u") ** 2 * ring.var("v"), I, J
    )
    assert rec.details["defect_terms"] >= 1


def test_relative_generation_c2_long_doubles_a_mixed_square():
    # over Z/9 the witness of 3t^3u + 3t^2u^2 uses the mixed square
    # 2*(2t)*6 of I^(2), doubled against the plain J side as one
    # [x_delta, x_gamma] commutator; found by a seeded search in C2
    ring = Ring.integers_mod(9).extend("t", "u")
    eng = RewriteEngine("C2", ring)
    t, u = ring.var("t"), ring.var("u")
    I = IdealSpec.gens(ring, 2 * t, 6)
    J = IdealSpec.gens(ring, 4 * t * u)
    value = 3 * t**3 * u + 3 * t**2 * u**2
    out, rec = eng.relative_generation_witness((-2, 0), value, I, J)
    assert rec.details["double_terms"] >= 1
    assert rec.attested == 0
    assert dense_equal(eng, out, Gen((-2, 0), value))


def test_relative_generation_c2_over_z_refused():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("C2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    with pytest.raises(NoUnitCombination):
        eng.relative_generation_witness((2, 0), ring.var("u") ** 2 * ring.var("v"), I, J)


def test_relative_generation_g2_short_refused():
    ring = Ring.integers_mod(3).extend("u", "v")
    eng = RewriteEngine("G2", ring)
    short = sorted(r for r in eng.rs.roots if eng.rs.is_short(r))[0]
    I = IdealSpec.gens(ring, ring.var("u"))
    J = IdealSpec.gens(ring, ring.var("v"))
    with pytest.raises(ConditionViolated):
        eng.relative_generation_witness(short, ring.var("u") * ring.var("v"), I, J)


def test_relative_generation_zero_and_rank():
    ring = Ring.integers().extend("u", "v")
    eng = RewriteEngine("A2", ring)
    I = IdealSpec.gens(ring, ring.var("u"))
    out, _ = eng.relative_generation_witness(A, ring.zero(), I, I)
    assert out == EMPTY
    a1 = RewriteEngine("A1", ring)
    with pytest.raises(ConditionViolated):
        a1.relative_generation_witness(sorted(a1.rs.roots)[0], ring.zero(), I, I)


# ----- conjugation_normalize -----


def test_conjugation_normalize_stays_level_without_blocks():
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    level = IdealSpec.gens(ring, t * u)
    g = Conj(Gen(A, t * u), Prod((Gen(B, ring.int_(2)), Gen(C, u))))
    out, stats = eng.conjugation_normalize(g)
    assert checked_attestations(eng, out, g, LevelShape(level)) == 0
    assert stats["decompositions"] == 0
    assert stats["attest_falls"] == 0


def test_conjugation_normalize_collects_its_output():
    # peeling x_b(1) and then x_b(-1) leaves x_a(t) x_c(t) x_c(-t); collected,
    # the pieces on c cancel
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    g = Conj(Gen(A, t), Prod((Gen(B, ring.int_(1)), Gen(B, ring.int_(-1)))))
    out, _ = eng.conjugation_normalize(g)
    assert out == Prod((Gen(A, t),))
    assert checked_attestations(eng, out, g, LevelShape(IdealSpec.gens(ring, t))) == 0


def test_conjugation_normalize_funds_blocked_peel():
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    I = IdealSpec.gens(ring, t)
    J = IdealSpec.gens(ring, u)
    g = Conj(Gen(A, t * u * u), Gen((-1, 1, 0), ring.int_(3)))
    out, stats = eng.conjugation_normalize(g, (I, J))
    assert stats["decompositions"] == 1
    assert [e["depth"] for e in stats["budget"]] == [0]
    assert checked_attestations(eng, out, g, RelConjShape(J, I.product(J))) == 0


def test_conjugation_normalize_attests_a_peel_the_fund_cannot_pay():
    # t*u lies outside (t)*(u)*(u), so the blocked peel at depth 0 cannot be
    # decomposed and stays a conjugate, certified by the oracle
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    I = IdealSpec.gens(ring, t)
    J = IdealSpec.gens(ring, u)
    g = Conj(Gen(A, t * u), Gen((-1, 1, 0), ring.int_(1)))
    out, stats = eng.conjugation_normalize(g, (I, J))
    assert stats["attest_falls"] == 1
    assert stats["decompositions"] == 0
    assert stats["budget"] == []
    assert checked_attestations(eng, out, g, RelConjShape(J, I.product(J))) == 1
    assert dense_equal(eng, out, g)


def test_conjugation_normalize_budget_exhaustion():
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    g = Conj(Gen(A, t * u * u), Gen((-1, 1, 0), ring.int_(3)))
    with pytest.raises(BudgetExhausted):
        eng.conjugation_normalize(g)


def test_conjugation_normalize_deeper_conjugator():
    # two peels, second one blocked at depth 0, funded by the first level
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    I = IdealSpec.gens(ring, t)
    J = IdealSpec.gens(ring, u)
    g = Conj(Gen(A, t * u * u), Prod((Gen(B, u), Gen((-1, 1, 0), ring.int_(2)))))
    out, stats = eng.conjugation_normalize(g, (I, J))
    assert stats["decompositions"] >= 1
    assert checked_attestations(eng, out, g, RelConjShape(J, I.product(J))) == 0


def test_conjugation_normalize_merges_equal_depth_pieces_between_peels():
    # peeling x_b(1) and x_b(2) leaves x_a(p) x_c(-2p) x_c(-p), p = t*u^2.
    # The two pieces on c share depth 0 and merge into x_c(-3p) before the
    # blocked peel on -c, which then decomposes one piece, not two
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    I, J = IdealSpec.gens(ring, t), IdealSpec.gens(ring, u)
    p = t * u * u
    by = Prod((Gen(B, ring.int_(1)), Gen(B, ring.int_(2)), Gen((-1, 0, 1), ring.int_(1))))
    g = Conj(Gen(A, p), by)
    out, stats = eng.conjugation_normalize(g, (I, J))
    assert stats["decompositions"] == 1
    assert [e["value"] for e in stats["budget"]] == [str(-3 * p)]
    assert stats["attest_falls"] == 0
    assert checked_attestations(eng, out, g, RelConjShape(J, I.product(J))) == 0
    assert len(flatten(out)) == 14
    assert dense_equal(eng, out, g)


def test_conjugation_normalize_keeps_depths_apart():
    # x_-c(p) peeled by x_b(1) and x_a(1): the blocked piece on -a is
    # decomposed, and its first piece x_-c(-t*u) sits at depth 1, one
    # commuting generator away from x_-c(p) at depth 0.  They stay apart,
    # so the blocked peel on c decomposes x_-c(p) and attests x_-c(-t*u)
    ring = Ring.integers().extend("t", "u")
    eng = RewriteEngine("A2", ring)
    t, u = ring.var("t"), ring.var("u")
    I, J = IdealSpec.gens(ring, t), IdealSpec.gens(ring, u)
    p = t * u * u
    one = ring.int_(1)
    cert = RelConjShape(J, I.product(J))
    g = Conj(Gen((-1, 0, 1), p), Prod((Gen(B, one), Gen(A, one))))
    out, _ = eng.conjugation_normalize(g, (I, J))
    assert out.factors[:4] == (
        Gen((-1, 0, 1), p), Gen((0, -1, 1), -p), Gen((-1, 0, 1), -t * u), Gen((0, -1, 1), t * u)
    )
    checked_attestations(eng, out, g, cert)
    g2 = Conj(g.base, Prod(g.by.factors + (Gen(C, one),)))
    out, stats = eng.conjugation_normalize(g2, (I, J))
    assert stats["decompositions"] == 2
    assert [e["depth"] for e in stats["budget"]] == [0, 0]
    assert stats["attest_falls"] == 2
    assert checked_attestations(eng, out, g2, cert) == 2
    assert Conj(Gen((-1, 0, 1), -t * u), Gen(C, one)) in out.factors


# ----- relative_split -----


def test_relative_split_single_commutator_case():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    I = IdealSpec.gens(ring, 3)
    w = Prod((Conj(Gen(A, ring.int_(3)), Gen(B, t)), Gen(A, ring.int_(-3))))
    out, rec = eng.relative_split(w, I, "t")
    assert word_to_text(out) == (
        "(prod (comm (prod (x 0,1,-1 {t})) (inv (x 1,-1,0 {3}))))"
    )
    assert rec.attested == 0


def test_relative_split_conjugates_a_commutator_piece_by_its_prefix():
    # x_b(3) conjugated by x_a(t) comes after the retract generator x_a(3),
    # so its commutator piece [x_a(t), x_b(3)^-1] is conjugated by the
    # inverse of that prefix
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    three = ring.int_(3)
    w = Prod(
        (Gen(A, three), Conj(Gen(B, three), Gen(A, ring.var("t"))), Gen(B, -three), Gen(A, -three))
    )
    out, rec = eng.relative_split(w, IdealSpec.gens(ring, 3), "t")
    assert word_to_text(out) == (
        "(prod (conj (comm (prod (x 1,-1,0 {t})) (inv (x 0,1,-1 {3})))"
        " (inv (prod (x 1,-1,0 {3})))))"
    )
    assert rec.attested == 0
    assert dense_equal(eng, out, w)


def test_relative_split_mixed_word():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    I = IdealSpec.gens(ring, 3)
    w = Prod(
        (
            Conj(Gen(A, 3 * t + 3), Gen(B, t + 1)),
            Inv(Conj(Gen(A, ring.int_(3)), Gen(B, ring.int_(1)))),
        )
    )
    out, rec = eng.relative_split(w, I, "t")
    assert rec.attested == 0
    out2, rec2 = eng.relative_split(Comm(Gen(A, 3 * t), Gen(B, t + 2)), I, "t")
    assert rec2.attested == 0


def test_relative_split_random_telescopes():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    I = IdealSpec.gens(ring, 3)
    rng = random.Random(17)
    zero_map = {"t": ring.zero()}
    for _ in range(8):
        factors = []
        for _ in range(2):
            root = rng.choice(sorted(eng.rs.roots))
            arg = ring.int_(3) * random_ring_element(ring, rng)
            by = random_word(eng.rs, ring, rng, depth=1)
            factors.append(Conj(Gen(root, arg), by))
        u = Prod(tuple(factors))
        # u * retract(u)^-1 is congruent to the identity mod (t)
        w = Prod((u, Inv(substitute_word(u, zero_map, ring))))
        out, rec = eng.relative_split(w, I, "t")


def test_relative_split_errors():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    w = Comm(Gen(A, 3 * t), Gen(B, t))
    with pytest.raises(NotExtendedIdeal):
        eng.relative_split(w, IdealSpec.gens(ring, t), "t")
    with pytest.raises(CongruenceFailed):
        eng.relative_split(Gen(A, ring.int_(3)), IdealSpec.gens(ring, 3), "t")
    # the conjugator carries t, the conjugated generator does not
    with pytest.raises(CongruenceFailed):
        eng.relative_split(Conj(Gen(A, ring.int_(3)), Gen(B, t)), IdealSpec.gens(ring, 3), "t")


# ----- move_indeterminate -----


def test_move_indeterminate_splits_example():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring, node_budget=500000)
    t = ring.var("t")
    J = IdealSpec.gens(ring, t**3)
    K = IdealSpec.gens(ring, 3)
    w = Prod((Comm(Gen(A, t**9), Gen(B, ring.int_(3))), Gen(C, 6 * t**9)))
    level, mixed, rec = eng.move_indeterminate(w, J, K)
    assert rec.details["comm_factors"] == 1
    assert rec.details["level_factors"] == 1
    # a receipt with several shapes names each of them
    assert rec.to_dict()["certificate"] == ["LevelShape", "MixedCommShape"]
    assert node_count(level) == 2
    # [x_a(t^9), x_b(3)] regenerates as [[x_-b(t^6), x_c(t^3)], x_b(3)];
    # x_c commutes with x_b, so the second Hall-Witt piece is left out and
    # the one inner double-commutator side left is an attested congruence
    assert rec.details["trivial_pieces"] == 1
    assert rec.attested == 1


def test_move_indeterminate_flipped_commutator():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring, node_budget=500000)
    t = ring.var("t")
    J = IdealSpec.gens(ring, t**3)
    K = IdealSpec.gens(ring, 3)
    w = Comm(Gen(B, ring.int_(3)), Gen(A, t**9))
    level, mixed, rec = eng.move_indeterminate(w, J, K)
    assert level == EMPTY


def test_move_indeterminate_two_generators_under_a_conjugator():
    # the level side [x_a(t^9) x_c(2t^9)]^(x_b(1)) regenerates as two
    # conjugated commutators, and [D1 D2, v] splits as [D1, v]^D2 [D2, v]
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring, node_budget=500000)
    t = ring.var("t")
    J = IdealSpec.gens(ring, t**3)
    K = IdealSpec.gens(ring, 3)
    left = Conj(Prod((Gen(A, t**9), Gen(C, 2 * t**9))), Gen(B, ring.int_(1)))
    w = Comm(left, Gen(B, ring.int_(3)))
    level, mixed, rec = eng.move_indeterminate(w, J, K)
    assert level == EMPTY
    assert rec.details["witness_terms"] == 2
    assert all(isinstance(f, Conj) for f in mixed.factors)
    assert dense_equal(eng, mixed, w)


def test_move_indeterminate_inverted_and_conjugated_commutators():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring, node_budget=500000)
    t = ring.var("t")
    J = IdealSpec.gens(ring, t**3)
    K = IdealSpec.gens(ring, 3)
    core = Comm(Gen(A, t**9), Gen(B, ring.int_(3)))
    w = Prod((Inv(core), Conj(core, Gen(C, t)), Gen(C, 3 * t**9)))
    level, mixed, rec = eng.move_indeterminate(w, J, K)
    assert rec.details["comm_factors"] == 2
    assert level.factors == (Gen(C, 3 * t**9),)
    assert dense_equal(eng, Prod((level, mixed)), w)


def test_move_indeterminate_level_only():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    J = IdealSpec.gens(ring, t**3)
    K = IdealSpec.gens(ring, 3)
    w = Prod((Gen(A, 3 * t**9), Gen(B, -6 * t**9)))
    level, mixed, rec = eng.move_indeterminate(w, J, K)
    assert mixed == EMPTY
    assert level.factors == w.factors


def test_move_indeterminate_leaves_out_trivial_hall_witt_pieces():
    # three mixed commutators, one with a conjugated two-generator level
    # side; where a regenerated side commutes with the K-side, its
    # Hall-Witt piece is the identity and is not built
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring, node_budget=500000)
    t = ring.var("t")
    J = IdealSpec.gens(ring, t**3)
    K = IdealSpec.gens(ring, 3)
    w = word_from_text(
        "(prod (comm (x 0,-1,1 {t^9}) (x 1,0,-1 {3}))"
        " (comm (conj (prod (x 0,1,-1 {t^9}) (x -1,0,1 {2*t^9})) (x -1,0,1 {1}))"
        " (x -1,0,1 {3})) (comm (x 1,-1,0 {t^9}) (x -1,0,1 {3})))",
        ring,
        eng.rs,
    )
    level, mixed, rec = eng.move_indeterminate(w, J, K)
    assert level == EMPTY
    assert rec.details["comm_factors"] == 3
    assert rec.details["trivial_pieces"] == 5
    assert len(flatten(mixed)) <= 68
    assert rec.attested <= 3
    assert dense_equal(eng, mixed, w)


# ----- commutator levels through the congruence oracle -----


def test_check_commutator_level():
    ring = Ring.integers()
    oracle = RewriteEngine("A2", ring).congruence_oracle()
    g, h = Gen(A, ring.int_(2)), Gen(B, ring.int_(3))
    assert oracle(Comm(g, h), IdealSpec.gens(ring, 6))
    assert not oracle(Comm(g, h), IdealSpec.gens(ring, 12))
    same = Gen(A, ring.int_(5))
    assert oracle(Comm(g, same), IdealSpec.gens(ring, 12))


# ----- receipts, budgets, node limits -----


def test_receipt_serializes_to_json():
    ring = Ring.integers().extend("p", "q")
    eng = RewriteEngine("A2", ring)
    p, q = ring.var("p"), ring.var("q")
    out, rec = eng.relative_split(Comm(Gen(A, 3 * p), Gen(B, q)), IdealSpec.gens(ring, 3), "p")
    blob = json.dumps(rec.to_dict())
    data = json.loads(blob)
    assert data["op"] == "relative_split"
    assert data["oracle_checked"] is True
    assert data["attested"] == 0
    assert data["certificate"] == "BarShape"
    assert data["details"] == {"var": "p"}
    # nested details stay structured: a patch receipt's dilations are records
    base = Ring(0, ("X",))
    data = tuple(
        LocalDatum(s, Prod((Gen(A, base.localize_at(s).parse("3*X")),))) for s in (2, 3)
    )
    _, rec = patch(PatchProblem("A2", base, IdealSpec.gens(base, 3), data, "X"))
    details = json.loads(json.dumps(rec.to_dict()))["details"]
    assert details["cover"] == ["2", "3"]
    assert type(details["exponents"][0]) is int
    assert [type(d) for d in details["dilations"]] == [dict, dict]
    for d in details["dilations"]:
        assert type(d["ninth_power_attested"]) is int
        assert type(d["den_exponents"]) is list


def test_finish_refuses_an_output_that_differs_from_its_target():
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    w = Prod((Gen(A, 3 * ring.var("t")),))
    wrong = Prod((Gen(A, 6 * ring.var("t")),))
    with pytest.raises(OracleMismatch, match="probe output differs from its target") as e:
        eng.finish("probe", w, wrong, [(wrong, LevelShape(IdealSpec.gens(ring, 3)))], w)
    assert e.value.exit_code == 19


def test_finish_refuses_a_failed_certificate():
    # x_a(t) is no level-(3) generator, and it is not congruent to the
    # identity mod 3, so no attestation can place it
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    w = Prod((Gen(A, ring.var("t")),))
    with pytest.raises(OracleMismatch, match="probe certificate failed") as e:
        eng.finish("probe", w, w, [(w, LevelShape(IdealSpec.gens(ring, 3)))], w)
    assert e.value.exit_code == 19


def test_finish_counts_a_gate_report_without_checking_again(monkeypatch):
    # a (word, shape, report) triple is certified by the report a gate
    # already made: finish counts its attestations and checks nothing
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    w = Prod((Gen(A, 3 * ring.var("t")),))
    spec = IdealSpec.gens(ring, 3)
    level = LevelShape(spec)
    checked = []
    monkeypatch.setattr(rewrite, "check_shape", lambda *args: checked.append(args))
    report = ShapeReport(True, "", ((w, spec),) * 2)
    rec = eng.finish("probe", w, w, [(w, level, report)])
    assert checked == []
    assert (rec.certificate, rec.attested) == (level, 2)


@pytest.mark.parametrize("label", ("A", "A2x", ""))
def test_bad_system_labels_are_invalid_types(label):
    ring = Ring.integers()
    with pytest.raises(InvalidType):
        RewriteEngine(label, ring)
    with pytest.raises(InvalidType):
        cli.system_object(label)


def test_node_budget_enforced():
    # the split of x_a(3)^(x_b(t)) * x_a(-3) is the 6-node
    # (prod (comm (prod x_b(t)) (inv x_a(3))))
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring, node_budget=6)
    w = Prod((Conj(Gen(A, ring.int_(3)), Gen(B, ring.var("t"))), Gen(A, ring.int_(-3))))
    three = IdealSpec.gens(ring, 3)
    eng.relative_split(w, three, "t")
    eng.node_budget = 5
    with pytest.raises(NodeBudgetExceeded):
        eng.relative_split(w, three, "t")


# ----- the engine's oracle: evaluation and equality -----


@pytest.fixture
def evaluations(monkeypatch):
    """Record the word of every call to Representation.evaluate_word."""
    seen = []
    original = Representation.evaluate_word

    def counting(rep, w, ring):
        seen.append(w)
        return original(rep, w, ring)

    monkeypatch.setattr(Representation, "evaluate_word", counting)
    return seen


def test_relative_split_never_evaluates_its_input(evaluations):
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    w = Prod((Conj(Gen(A, ring.int_(3)), Gen(B, t)), Gen(A, ring.int_(-3))))
    out, _ = eng.relative_split(w, IdealSpec.gens(ring, 3), "t")
    # the output is the input re-associated: finish's equality check sees
    # the same generators and evaluates nothing.  The variable-free
    # remainder x_a(3)*x_a(-3) collects to the empty word, so its identity
    # check evaluates nothing either
    assert out != w and flatten(out) == flatten(w)
    assert evaluations == []


def test_equal_evaluates_only_where_words_differ(evaluations):
    ring = Ring.integers().extend("t")
    eng = RewriteEngine("A2", ring)
    t = ring.var("t")
    a3t, c2 = Gen(A, 3 * t), Gen(C, ring.int_(2))
    w = Prod((a3t, Gen(B, t + 1), c2))
    # identical generator sequences evaluate nothing: the word itself, one
    # built afresh, one re-associated, and one with an x_a(0) inserted
    for same in (
        w,
        Prod((Gen(A, 3 * t), Gen(B, t + 1), Gen(C, ring.int_(2)))),
        Prod((Prod((a3t, Gen(B, t + 1))), Inv(Inv(c2)))),
        Prod((a3t, Gen(B, t + 1), Gen(C, ring.zero()), c2)),
    ):
        assert eng.equal(w, same) and eng.equal(same, w)
    assert evaluations == []
    # one middle generator differs: only the two middles are evaluated, and
    # the adjoint representation already tells them apart
    for mid in (Gen(B, t + 2), Gen(C, t + 1)):
        w2 = Prod((a3t, mid, c2))
        assert not eng.equal(w, w2)
        assert not eng.equal(w2, w)
        middles = [Prod((Gen(B, t + 1),)), Prod((mid,))]
        assert evaluations == middles + middles[::-1]
        evaluations.clear()
    # a and c commute: the swapped middles are equal in both representations
    swapped = Prod((a3t, Gen(B, t + 1), Gen(C, t), Gen(A, ring.int_(5)), c2))
    twin = Prod((a3t, Gen(B, t + 1), Gen(A, ring.int_(5)), Gen(C, t), c2))
    assert eng.equal(swapped, twin)
    m1 = Prod((Gen(C, t), Gen(A, ring.int_(5))))
    m2 = Prod((Gen(A, ring.int_(5)), Gen(C, t)))
    assert evaluations == [m1, m2, m1, m2]
    # evaluate is a function of the word alone: two engines give equal matrices
    assert RewriteEngine("A2", ring).evaluate(swapped) == eng.evaluate(swapped)

