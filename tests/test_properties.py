"""Property tests of word evaluation on random A2, C2 and G2 words: the
kernel against the dense product, inverses and the Hall–Witt identity;
and of `gword.collect` on `wordgen` words: it keeps the element, is
idempotent, never grows a word and keeps LevelShape and RelConjShape
certificates with no more attestations; and of
`RewriteEngine.conjugation_normalize` under the budget that
`lgp.for_dilation` builds: every blocked peel is either charged to the
budget or falls back to an attestation; and of `RewriteEngine.equal`,
which evaluates only what lies between two words' shared prefix and
suffix, against full evaluation; and of `RewriteEngine._hw_pieces`,
which leaves out exactly the Hall–Witt pieces whose inner commutator
the commutator formula makes trivial; and of
`RewriteEngine.trivial_at_zero` against the congruence oracle modulo
(X) and the matrices' entries at X = 0.

Words are nested Inv/Conj/Comm/Prod trees over c*t^e arguments (divided
by a power of s over a localized ring).  Examples are derandomized and
bounded so that the suite stays deterministic and fast.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chevcalc.chevrep import congruence_check, get_representation
from chevcalc.errors import UndecidableIdealClass
from chevcalc.exactring import IdealSpec, Ring
from chevcalc.gword import (
    Comm,
    Conj,
    Gen,
    Inv,
    LevelShape,
    Prod,
    RelConjShape,
    check_shape,
    collect,
    flatten,
    node_count,
    substitute_word,
)
from chevcalc.rewrite import RewriteEngine
from chevcalc.rootsys import _vneg, _vsum, build_root_system

from wordgen import (
    dense_evaluate,
    is_identity,
    random_level_word,
    random_ring_element,
    random_word,
)

SYSTEMS = ("A2", "C2", "G2")
RINGS = {
    "Z[t]": Ring.integers().extend("t"),
    "Z[1/2][t]": Ring.integers().extend("t").localize_at(2),
    "Z/9[t]": Ring.integers_mod(9).extend("t"),
}
PROPERTY = settings(derandomize=True, max_examples=12, deadline=None, database=None)


def _setup(label, ring_name):
    rs = build_root_system(label[0], int(label[1:]))
    return rs, get_representation(rs, "adjoint"), RINGS[ring_name]


def _args(ring, coeffs=st.integers(-6, 6)):
    t = ring.var("t")
    den = st.integers(0, 2) if ring.loc_num is not None else st.just(0)
    return st.builds(
        lambda c, e, k: ring.int_(c) * t**e * ring.s_power(k),
        coeffs,
        st.integers(0, 2),
        den,
    )


def _words(rs, ring, max_leaves=6):
    gen = st.builds(Gen, st.sampled_from(rs.roots), _args(ring))
    return st.recursive(
        gen,
        lambda inner: st.one_of(
            st.builds(Inv, inner),
            st.builds(Conj, inner, inner),
            st.builds(Comm, inner, inner),
            st.lists(inner, max_size=3).map(lambda fs: Prod(tuple(fs))),
        ),
        max_leaves=max_leaves,
    )


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("label", SYSTEMS)
@PROPERTY
@given(data=st.data())
def test_kernel_equals_dense_product(label, ring_name, data):
    rs, rep, ring = _setup(label, ring_name)
    w = data.draw(_words(rs, ring))
    assert rep.evaluate_word(w, ring) == dense_evaluate(rep, w, ring)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("label", SYSTEMS)
@PROPERTY
@given(data=st.data())
def test_word_times_inverse_is_identity(label, ring_name, data):
    rs, rep, ring = _setup(label, ring_name)
    w = data.draw(_words(rs, ring))
    assert is_identity(rep.evaluate_word(Prod((w, Inv(w))), ring))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("label", SYSTEMS)
@settings(PROPERTY, max_examples=6)
@given(data=st.data())
def test_hall_witt_identity(label, ring_name, data):
    # [[x, y^-1], z]^y [[y, z^-1], x]^z [[z, x^-1], y]^x = 1, with
    # [a, b] = a^-1 b^-1 a b and a^b = Conj(a, b) = b^-1 a b
    rs, rep, ring = _setup(label, ring_name)
    x, y, z = (data.draw(_words(rs, ring, max_leaves=2)) for _ in range(3))
    w = Prod(
        tuple(
            Conj(Comm(Comm(a, Inv(b)), c), b)
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y))
        )
    )
    assert is_identity(rep.evaluate_word(w, ring))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("label", SYSTEMS)
@settings(PROPERTY, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1))
def test_collect_keeps_the_element_and_the_shape(label, ring_name, seed):
    rs, _, ring = _setup(label, ring_name)
    eng = RewriteEngine(rs, ring)
    oracle = eng.congruence_oracle()
    rng = random.Random(seed)
    t = ring.var("t")
    # few roots and small arguments, zero among them, so that merges,
    # cancellations and empty nodes are common
    roots = (rs.roots[0], _vneg(rs.roots[0]), rs.roots[1])
    args = [ring.zero(), t, -t, ring.one(), 2 * t]
    if ring.loc_num is not None:
        args.append(t * ring.s_power(1))
    level_args = [3 * a for a in args]
    ideal = IdealSpec.gens(ring, 3)

    def level_word():
        return random_level_word(rs, ring, rng, level_args, args, depth=2, roots=roots)

    level_w = level_word()
    rel_w = Prod(tuple(level_word() for _ in range(4)))
    any_w = random_word(rs, ring, rng, depth=3, args=args, roots=roots)
    for w in (level_w, rel_w, any_w):
        got = collect(w)
        assert eng.equal(got, w)
        assert collect(got) == got
        assert node_count(got) <= node_count(w)
    for w, shape in ((level_w, LevelShape(ideal)), (rel_w, RelConjShape(None, ideal))):
        before = check_shape(w, shape, oracle)
        assert before.ok
        after = check_shape(collect(w), shape, oracle)
        assert after.ok and len(after.attested) <= len(before.attested)


@pytest.mark.parametrize("label", ("A2", "A3", "C2", "G2"))
def test_conjugation_normalize_under_the_dilation_budget(label):
    # x_a(c*t*u^2) conjugated by 1-3 generators drawn from -a and two
    # other roots, about 40 % of them on -a, normalized with the fund
    # ((t), (u)): a blocked peel at depth 0 is decomposed, a blocked peel
    # one level deeper falls back to an attestation.  Repeated roots leave
    # same-root pieces that the state merges between peels.
    ring = Ring.integers().extend("t", "u")
    if label in ("C2", "G2"):
        # the doubly-laced decompositions need a ring with no residue
        # field of two elements
        ring = ring.localize_at(2)
    t, u = ring.var("t"), ring.var("u")
    I, J = IdealSpec.gens(ring, t), IdealSpec.gens(ring, u)
    level = IdealSpec.gens(ring, t * u * u)
    eng = RewriteEngine(label, ring)
    roots = sorted(eng.rs.roots)
    coeffs = [ring.int_(c) for c in (1, -1, 2, 3)]
    falls = []
    repeats = []

    @settings(PROPERTY, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        a = rng.choice(roots)
        others = rng.sample([r for r in roots if r != _vneg(a)], 2)
        by = tuple(
            Gen(
                _vneg(a) if rng.random() < 0.4 else rng.choice(others),
                rng.choice(coeffs) * rng.choice((ring.one(), u)),
            )
            for _ in range(rng.randint(1, 3))
        )
        g = Conj(Gen(a, rng.choice(coeffs) * t * u * u), Prod(by))
        out, stats = eng.conjugation_normalize(g, (I, J))
        assert eng.equal(out, g)
        blocked = stats["decompositions"] or stats["attest_falls"]
        cert = RelConjShape(J, I.product(J)) if blocked else LevelShape(level)
        assert check_shape(out, cert, eng.congruence_oracle()).ok
        spent = stats["budget"]
        assert [e["depth"] for e in spent] == [0] * stats["decompositions"]
        falls.append(stats["attest_falls"])
        repeats.append(len({p.root for p in by}) < len(by))

    check()
    assert any(n > 0 for n in falls)
    assert any(repeats)


# Z/9 localized at 2 stores equal elements apart, so equality there
# subtracts; the other two compare stored forms
EQUAL_RINGS = {
    "Z[t]": RINGS["Z[t]"],
    "Z[1/2][t]": RINGS["Z[1/2][t]"],
    "Z/9[t] at 2": Ring.integers_mod(9).extend("t").localize_at(2),
}
# (kind, whether the two words are equal)
PAIR_KINDS = (
    ("swap", True),
    ("conj", True),
    ("inv", True),
    ("zero", True),
    ("arg", False),
    ("edge", False),
    ("repeat", False),
)


def _pair(rs, ring, data):
    """Two words that share a drawn prefix p and suffix s around a drawn
    middle, and whether they are equal.

    swap: x_a(q) x_b(r) against x_b(r) x_a(q), with a + b not a root;
    conj: Conj(x, y) against y^-1 x y, re-associated across p and s;
    inv: (x y)^-1 against y^-1 x^-1;
    zero: x_c(0) inserted into the middle;
    arg: one middle argument changed;
    edge: p ends and s starts on the root whose argument changes between
    them, so the change sits at the edge of both shared runs;
    repeat: x_c(d) against x_c(d) x_c(d), so that the shared runs could
    overlap on the longer word and one middle is empty.
    """
    words = _words(rs, ring, max_leaves=4)
    p, s, x, y = (data.draw(words) for _ in range(4))
    kind, same = data.draw(st.sampled_from(PAIR_KINDS))
    c = data.draw(st.sampled_from(rs.roots))
    q = data.draw(_args(ring))
    # a nonzero change of an argument, in every ring above
    d = data.draw(_args(ring, st.sampled_from((-4, -2, -1, 1, 2, 4))))
    if kind == "swap":
        a, b = data.draw(st.sampled_from([
            (a, b) for a in rs.roots for b in rs.roots
            if a != b and a != _vneg(b) and _vsum(a, b) not in rs.index
        ]))
        r = data.draw(_args(ring))
        u, v = Prod((Gen(a, q), Gen(b, r))), Prod((Gen(b, r), Gen(a, q)))
    elif kind == "conj":
        return Prod((p, Conj(x, y), s)), Prod((Prod((p, Inv(y))), x, Prod((y, s)))), same
    elif kind == "inv":
        u, v = Inv(Prod((x, y))), Prod((Inv(y), Inv(x)))
    elif kind == "zero":
        u, v = Prod((x, y)), Prod((x, Gen(c, ring.zero()), y))
    elif kind == "arg":
        u, v = Prod((x, Gen(c, q), y)), Prod((x, Gen(c, q + d), y))
    elif kind == "edge":
        p, s = Prod((p, Gen(c, data.draw(_args(ring))))), Prod((Gen(c, q), s))
        u, v = Gen(c, q), Gen(c, q + d)
    else:
        u, v = Gen(c, d), Prod((Gen(c, d), Gen(c, d)))
    return Prod((p, u, s)), Prod((p, v, s)), same


@pytest.mark.parametrize("ring_name", sorted(EQUAL_RINGS))
@pytest.mark.parametrize("label", ("A2", "C2"))
@settings(PROPERTY, max_examples=35)
@given(data=st.data())
def test_equal_matches_full_evaluation(label, ring_name, data):
    # RewriteEngine.equal evaluates only the middles between the shared
    # generator runs; full evaluation in every representation is the
    # reference (A2 and C2 each have an adjoint and a defining model)
    rs = build_root_system(label[0], int(label[1:]))
    ring = EQUAL_RINGS[ring_name]
    eng = RewriteEngine(rs, ring)
    left, right, same = _pair(rs, ring, data)
    full = all(rep.words_equal(left, right, ring) for rep in eng.reps)
    assert full == same
    assert eng.equal(left, right) == full
    assert eng.equal(right, left) == full


def _roots_commute(rs, a, b):
    """The reference for commuting root subgroups, read off the root
    system alone: a = b, or b != -a with a + b no root."""
    return a == b or (b != _vneg(a) and _vsum(a, b) not in rs.index)


# (whether f commutes with v, whether h commutes with v)
HW_KINDS = ((False, False), (True, False), (False, True), (True, True))


@pytest.mark.parametrize("kind", HW_KINDS, ids=["none", "fv", "hv", "both"])
@pytest.mark.parametrize("label", ("A2", "A3", "C2", "G2"))
@settings(PROPERTY, max_examples=4)
@given(data=st.data())
def test_hall_witt_pieces_omit_exactly_the_trivial_ones(label, kind, data):
    # [[f, h], v] for generators f, h, v over Z[t]: the pieces multiply to
    # it, every piece kept has an inner commutator whose sides do not
    # commute, and a piece is left out only when its sides commute
    rs = build_root_system(label[0], int(label[1:]))
    ring = RINGS["Z[t]"]
    eng = RewriteEngine(rs, ring)
    args = _args(ring, st.sampled_from((-3, -2, -1, 1, 2, 3)))
    a = data.draw(st.sampled_from(rs.roots))
    v = Gen(a, data.draw(args))
    f, h = (
        Gen(
            data.draw(st.sampled_from(
                [b for b in rs.roots if _roots_commute(rs, a, b) == want]
            )),
            data.draw(args),
        )
        for want in kind
    )
    pieces = eng._hw_pieces(f, h, v)
    target = Comm(Comm(f, h), v)
    for rep in eng.reps:
        assert dense_evaluate(rep, Prod(tuple(pieces)), ring) == dense_evaluate(
            rep, target, ring
        )

    def sides_commute(inner):
        return all(
            _roots_commute(rs, x.root, y.root)
            for x in flatten(inner.left)
            for y in flatten(inner.right)
        )

    for p in pieces:
        assert not sides_commute(p.base.right)
    # the two cores of the identity, in order
    cores = (Comm(Inv(h), Comm(v, Inv(f))), Comm(f, Comm(Inv(h), Inv(v))))
    kept = [p.base for p in pieces]
    for core in cores:
        if core not in kept:
            assert sides_commute(core.right)
    assert len(pieces) == 2 - sum(kind)


_ZTX = Ring.integers().extend("t", "X")
AT_ZERO_RINGS = {
    "Z[X]_2": Ring.integers().extend("X").localize_at(2),
    # Z/12[1/2] is Z/3, so elements are stored mod 3 and 6 is stored as 0
    "Z/12[X]_2": Ring.integers_mod(12).extend("X").localize_at(2),
    # 2 is nilpotent, so the localization is the zero ring, stored mod 1:
    # every element and every matrix is 0
    "Z/4[X]_2": Ring.integers_mod(4).extend("X").localize_at(2),
    "Z/9[X]": Ring.integers_mod(9).extend("X"),
    "Z[t,X]_(t+3)": _ZTX.localize_at(_ZTX.parse("t + 3")),
}


@pytest.mark.parametrize("ring_name", sorted(AT_ZERO_RINGS))
def test_trivial_at_zero_matches_the_congruence_oracle(ring_name):
    # RewriteEngine.trivial_at_zero maps a word through var -> 0; the
    # congruence oracle modulo (X) is the reference wherever it decides,
    # and the matrices' own entries at X = 0 are the reference everywhere.
    # Half the words are multiplied by the inverse of their image at X = 0,
    # which makes them trivial there.
    ring = AT_ZERO_RINGS[ring_name]
    eng = RewriteEngine("A2", ring)
    spec = IdealSpec.gens(ring, ring.var("X"))
    at_zero = {n: ring.zero() if n == "X" else ring.var(n) for n in ring.var_names}
    undecided = []

    def arg(rng):
        # mostly with a constant term, so that the image at 0 is not trivial
        a = random_ring_element(ring, rng, max_deg=1) + ring.int_(rng.randrange(-3, 4))
        if ring.loc_num is not None:
            a = a * ring.s_power(rng.randrange(3))
        return a

    @settings(PROPERTY, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        args = [arg(rng) for _ in range(4)]
        w = Prod(
            tuple(random_word(eng.rs, ring, rng, depth=2, args=args) for _ in range(2))
        )
        made_trivial = rng.random() < 0.5
        if made_trivial:
            w = Prod((w, Inv(substitute_word(w, at_zero, ring))))
        got = eng.trivial_at_zero(w, "X")
        assert got or not made_trivial
        # the oracle's own loop, run on the matrices that the reference reads
        ref, old = True, True
        for rep in eng.reps:
            m = rep.evaluate_word(w, ring)
            ref = ref and all(
                v.substitute(at_zero, ring).is_zero()
                for _, v in m.entries_minus_identity()
            )
            try:
                old = old and congruence_check(m, spec)
            except UndecidableIdealClass:
                old = None
        assert got == ref
        if old is None:
            undecided.append(seed)
        else:
            assert old == got

    check()
    # over Z[t,X]_(t+3) too: s = t + 3 is free of X with content 1, so it
    # divides no zero modulo (X) and the witnesses modulo (X) decide
    assert not undecided
