import random

import pytest

from chevcalc.chevrep import get_representation
from chevcalc.errors import ParseError
from chevcalc.exactring import IdealSpec, Ring
from chevcalc.gword import (
    EMPTY,
    BarShape,
    Comm,
    Conj,
    Gen,
    Inv,
    LevelShape,
    MixedCommShape,
    Prod,
    RelConjShape,
    YShape,
    check_shape,
    collect,
    flatten,
    inv_word,
    is_word,
    node_count,
    substitute_word,
    unwrap,
    word_from_text,
    word_to_text,
)
from chevcalc.rootsys import build_root_system

from wordgen import (
    dense_evaluate,
    generator_matrix,
    identity_matrix,
    is_identity,
    matmul,
    random_ring_element,
    random_word,
)

A2 = build_root_system("A", 2)
A, B = (1, -1, 0), (0, 1, -1)


def eval_gens(rep, gens, ring):
    m = identity_matrix(ring, rep.dim)
    for g in gens:
        m = matmul(m, generator_matrix(rep, g.root, g.arg))
    return m


def test_flatten_and_inverse_against_matrices():
    rep = get_representation(A2, "defining")
    ring = Ring.integers().extend("t")
    rng = random.Random(20260815)
    for _ in range(12):
        w = random_word(A2, ring, rng, depth=3)
        direct = rep.evaluate_word(w, ring)
        assert direct == eval_gens(rep, flatten(w), ring)
        assert is_identity(matmul(direct, rep.evaluate_word(inv_word(w), ring)))
        assert rep.evaluate_word(Inv(w), ring) == rep.evaluate_word(inv_word(w), ring)


def _flatten_by_concatenation(w):
    """flatten's earlier definition, quadratic in the word length: the
    reference for the one-pass version."""
    if isinstance(w, Gen):
        return (w,)
    if isinstance(w, Inv):
        return _flatten_by_concatenation(inv_word(w.word))
    if isinstance(w, Prod):
        out = ()
        for f in w.factors:
            out += _flatten_by_concatenation(f)
        return out
    if isinstance(w, Conj):
        by = _flatten_by_concatenation(w.by)
        return (
            _flatten_by_concatenation(inv_word(Prod(by)))
            + _flatten_by_concatenation(w.base)
            + by
        )
    return (
        _flatten_by_concatenation(inv_word(w.left))
        + _flatten_by_concatenation(inv_word(w.right))
        + _flatten_by_concatenation(w.left)
        + _flatten_by_concatenation(w.right)
    )


def test_flatten_matches_the_concatenating_definition():
    ring = Ring.integers().extend("t")
    rng = random.Random("flatten")
    words = [random_word(A2, ring, rng, depth=6) for _ in range(40)]
    # deep chains of conjugates and commutators, inverted on the way down
    w = Gen(A2.roots[0], ring.var("t"))
    for i in range(12):
        other = Gen(rng.choice(A2.roots), ring.int_(i + 2))
        w = (Conj(w, other), Comm(other, w), Inv(Conj(other, Inv(w))))[i % 3]
        words.append(w)
    for w in words:
        got = flatten(w)
        assert isinstance(got, tuple)
        assert got == _flatten_by_concatenation(w)


def _free_reduce(w):
    """The free reduction of w: `collect` of its flattened word."""
    return collect(Prod(flatten(w)))


def test_free_reduce():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    a = (1, -1, 0)
    b = (0, 1, -1)
    w = Prod((Gen(a, t), Gen(a, t + 1), Gen(b, t), Gen(b, -t)))
    red = _free_reduce(w)
    assert red == Prod((Gen(a, 2 * t + 1),))
    # Cancelling the middle pair exposes the outer pair.
    w2 = Prod((Gen(a, t), Gen(b, t), Gen(b, -t), Gen(a, -t)))
    assert _free_reduce(w2) == EMPTY
    rep = get_representation(A2, "defining")
    rng = random.Random(5)
    for _ in range(8):
        w = random_word(A2, ring, rng, depth=3)
        assert rep.evaluate_word(w, ring) == rep.evaluate_word(_free_reduce(w), ring)


# ----- collect: one test per rule -----


def _collect_ring():
    ring = Ring.integers().extend("t")
    return ring, ring.var("t"), ring.zero()


def test_collect_drops_zero_generators_inside_and_outside_conjugators():
    ring, t, zero = _collect_ring()
    by = Prod((Gen(B, zero), Gen(A, t), Gen(B, zero)))
    w = Prod((Gen(A, zero), Conj(Gen(B, t), by), Gen(B, zero)))
    assert collect(w) == Prod((Conj(Gen(B, t), Gen(A, t)),))
    assert collect(Gen(A, zero)) == EMPTY


def test_collect_drops_nodes_around_nothing():
    ring, t, zero = _collect_ring()
    x = Gen(A, t)
    nothing = Prod((Gen(B, zero),))
    w = Prod((Conj(nothing, x), Inv(nothing), Comm(x, nothing), Comm(nothing, x), x))
    assert collect(w) == Prod((x,))


def test_collect_conjugate_by_nothing_is_its_base():
    ring, t, zero = _collect_ring()
    base = Comm(Gen(A, t), Gen(B, t))
    w = Prod((Conj(base, Prod((Gen(A, t), Gen(A, -t)))),))
    assert collect(w) == Prod((base,))


def test_collect_merges_adjacent_generators_and_refolds():
    ring, t, zero = _collect_ring()
    w = Prod((Gen(A, t), Gen(A, t + 1), Gen(B, t)))
    assert collect(w) == Prod((Gen(A, 2 * t + 1), Gen(B, t)))
    # cancelling the middle pair exposes the outer pair, inside a conjugator too
    inner = Prod((Gen(A, t), Gen(B, t), Gen(B, -t), Gen(A, 2 * t)))
    w = Prod((Conj(Gen(B, t), inner), Gen(A, t), Gen(B, t), Gen(B, -t), Gen(A, -t)))
    assert collect(w) == Prod((Conj(Gen(B, t), Gen(A, 3 * t)),))


def test_collect_merges_conjugates_sharing_a_conjugator():
    ring, t, zero = _collect_ring()
    c = Prod((Gen(B, t), Gen(A, 1 + t)))
    w = Prod((Conj(Gen(A, t), c), Conj(Gen(A, 2 * t), c), Gen(B, t)))
    assert collect(w) == Prod((Conj(Gen(A, 3 * t), c), Gen(B, t)))
    w = Prod((Gen(B, t), Conj(Gen(A, t), c), Conj(Gen(A, -t), c), Gen(B, -t)))
    assert collect(w) == EMPTY
    # different conjugators or roots stay apart
    d = Prod((Gen(B, 2 * t), Gen(A, 1 + t)))
    w = Prod((Conj(Gen(A, t), c), Conj(Gen(A, t), d), Conj(Gen(B, t), d)))
    assert collect(w) == w


def test_collect_never_flattens_conj_comm_or_inv():
    ring, t, zero = _collect_ring()
    x, y = Gen(A, t), Gen(B, t)
    w = Prod((Conj(x, y), Conj(Inv(x), y), Inv(Prod((x, y))), Comm(x, y), Prod((x, y))))
    got = collect(w)
    assert got == w
    assert [type(f) for f in got.factors] == [Conj, Conj, Inv, Comm, Prod]
    # a one-factor product inside the word is its factor
    assert collect(Prod((Conj(x, Prod((y,))),))) == Prod((Conj(x, y),))
    assert collect(Inv(Prod((x,)))) == Inv(x)


def test_collect_is_idempotent_and_free_reduce_is_collect_of_flatten():
    ring, t, zero = _collect_ring()
    rng = random.Random(7)
    args = [zero, t, -t, ring.int_(1), ring.int_(-1)]
    for _ in range(30):
        w = random_word(A2, ring, rng, depth=3, args=args)
        once = collect(w)
        assert collect(once) == once
        assert node_count(once) <= node_count(w)
        # collect of the flattened word is freely reduced: generators only,
        # no zero argument, no two neighbours on one root
        red = _free_reduce(w).factors
        assert all(isinstance(g, Gen) and not g.arg.is_zero() for g in red)
        assert all(g.root != h.root for g, h in zip(red, red[1:]))


def test_unwrap_through_inv_and_one_factor_products():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    rep = get_representation(A2, "adjoint")
    core = Comm(Gen(A, ring.int_(2)), Gen(B, t))
    by = Gen((1, 0, -1), ring.int_(1))
    for w, inverted in (
        (Inv(core), True),
        (Prod((core,)), False),
        (Conj(Prod((Inv(Prod((core,))),)), by), True),
        (Inv(Conj(Inv(core), by)), False),
    ):
        got, inv, conj_by = unwrap(w)
        assert got == core and inv == inverted
        rebuilt = Inv(got) if inv else got
        if conj_by is not None:
            rebuilt = Conj(rebuilt, conj_by)
        assert dense_evaluate(rep, rebuilt, ring) == dense_evaluate(rep, w, ring)


def test_counts():
    ring = Ring.integers()
    g = Gen((1, -1, 0), ring.one())
    h = Gen((0, 1, -1), ring.one())
    assert node_count(g) == 1
    assert node_count(Comm(g, h)) == 3
    assert node_count(Prod((g, Inv(h)))) == 4
    assert flatten(EMPTY) == ()
    assert is_word(g) and is_word(EMPTY) and not is_word("x")


def test_serialization_round_trip():
    ring = Ring.integers().extend("t")
    rng = random.Random(99)
    for _ in range(15):
        w = random_word(A2, ring, rng, depth=3)
        assert word_from_text(word_to_text(w), ring, A2) == w
    loc = Ring.integers().extend("t").localize_at(2)
    arg = loc.parse("(t + 3)/s^2")
    w = Conj(Gen((1, -1, 0), arg), Gen((-1, 1, 0), loc.int_(4)))
    assert word_from_text(word_to_text(w), loc, A2) == w


def test_parse_errors():
    ring = Ring.integers().extend("t")
    for text in [
        "(x 9,9,9 {t})",
        "(foo)",
        "(x 1,-1,0 {t}",
        "(prod) (prod)",
        "(x 1,-1,0 {t)",
        "(inv)",
        "x 1,-1,0",
    ]:
        with pytest.raises(ParseError):
            word_from_text(text, ring, A2)


def test_substitute_word():
    ring = Ring.integers().extend("t")
    target = Ring.integers().extend("u")
    u = target.var("u")
    w = Comm(Gen((1, -1, 0), ring.var("t")), Gen((0, 1, -1), ring.int_(3)))
    out = substitute_word(w, {"t": u * u}, target)
    assert [g.arg for g in flatten(out)] == [-u * u, target.int_(-3), u * u, target.int_(3)]


def test_shape_level():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    two = IdealSpec.gens(ring, ring.int_(2))
    w = Prod((Gen((1, -1, 0), 2 * t), Gen((0, 1, -1), ring.int_(-4))))
    assert check_shape(w, LevelShape(two))
    # The level grammar is the relative one: conjugates of level generators
    # by arbitrary elementary words stay inside.
    conj = Conj(Gen((1, -1, 0), 2 * t), Prod((Gen((0, 1, -1), t + 1), Gen((1, 0, -1), t))))
    assert check_shape(Prod((w, conj)), LevelShape(two))
    bad = Prod((Gen((1, -1, 0), t),))
    assert not check_shape(bad, LevelShape(two))
    assert "outside" in check_shape(bad, LevelShape(two)).reason


def test_shape_rel_conj():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    two = IdealSpec.gens(ring, ring.int_(2))
    tee = IdealSpec.gens(ring, t)
    a = (1, -1, 0)
    b = (0, 1, -1)
    good = Prod(
        (
            Conj(Gen(a, 2 * t), Prod((Gen(b, t), Gen(a, ring.one())))),
            Gen(b, ring.int_(2)),
            Inv(Conj(Gen(b, ring.int_(6)), Gen(a, t))),
        )
    )
    assert check_shape(good, RelConjShape(None, two))
    # The conjugator grammar tightens when an ideal is given.
    assert not check_shape(good, RelConjShape(tee, two))
    tight = Conj(Gen(a, 2 * t), Gen(b, 3 * t))
    assert check_shape(tight, RelConjShape(tee, two))
    assert not check_shape(Conj(Prod((Gen(a, 2 * t),)), Gen(b, t)), RelConjShape(None, two))
    assert not check_shape(Conj(Gen(a, t), Gen(b, t)), RelConjShape(None, two))


def test_shape_y():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    two = IdealSpec.gens(ring, ring.int_(2))
    tee = IdealSpec.gens(ring, t)
    avoid = (1, 0, -1)
    a = (1, -1, 0)
    b = (0, 1, -1)
    nb = (0, -1, 1)
    good = Prod((Conj(Gen(a, 2 * t), Gen(b, t)), Inv(Gen(nb, ring.int_(2)))))
    assert check_shape(good, YShape(avoid, tee, two))
    # Any factor touching the avoided pair is rejected.
    assert not check_shape(Conj(Gen(avoid, 2 * t), Gen(b, t)), YShape(avoid, tee, two))
    assert not check_shape(Conj(Gen(a, 2 * t), Gen((-1, 0, 1), t)), YShape(avoid, tee, two))
    assert not check_shape(Gen(avoid, ring.int_(2)), YShape(avoid, tee, two))
    # Argument levels are enforced on both slots.
    assert not check_shape(Conj(Gen(a, 2 * t), Gen(b, ring.one())), YShape(avoid, tee, two))
    assert not check_shape(Conj(Gen(a, t), Gen(b, t)), YShape(avoid, tee, two))


def test_shape_mixed_comm():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    two = IdealSpec.gens(ring, ring.int_(2))
    tee = IdealSpec.gens(ring, t)
    a = (1, -1, 0)
    b = (0, 1, -1)
    fac = Comm(Gen(a, ring.int_(2)), Gen(b, t))
    assert check_shape(fac, MixedCommShape(two, tee))
    # Either orientation of the two levels is accepted.
    assert check_shape(Comm(Gen(b, t), Gen(a, ring.int_(2))), MixedCommShape(two, tee))
    assert check_shape(Prod((fac, Inv(Conj(fac, Gen(b, ring.one()))))), MixedCommShape(two, tee))
    # Conjugated and commutator-wrapped sides stay inside the closure.
    deep = Comm(Conj(Gen(a, ring.int_(4)), Gen(b, t + 1)), Comm(Gen(b, t), Gen(a, ring.one())))
    assert check_shape(deep, MixedCommShape(two, tee))
    assert not check_shape(Comm(Gen(a, ring.one()), Gen(b, t)), MixedCommShape(two, tee))
    assert not check_shape(Gen(a, 2 * t), MixedCommShape(two, tee))


def test_shape_bar_and_attested():
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    two = IdealSpec.gens(ring, ring.int_(2))
    tee = IdealSpec.gens(ring, t)
    a = (1, -1, 0)
    b = (0, 1, -1)
    comm_fac = Comm(Gen(a, ring.int_(2)), Gen(b, t))
    # 2t lies in the product ideal (2)(t), so this factor needs no oracle.
    prod_fac = Conj(Gen(a, 2 * t), Gen(b, ring.one()))
    stray = Gen(a, t)
    w = Prod((comm_fac, prod_fac, stray))
    # The stray factor needs attestation, so the check fails closed.
    rep = check_shape(w, BarShape(two, tee))
    assert not rep and "oracle" in rep.reason
    seen = []

    def oracle(sub, spec):
        seen.append((sub, spec.describe()))
        return True

    rep = check_shape(w, BarShape(two, tee), oracle)
    assert rep and len(rep.attested) == 1
    assert seen and seen[0][0] == stray
    assert not check_shape(w, BarShape(two, tee), lambda sub, spec: False)
