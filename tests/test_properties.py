"""Property tests of word evaluation on random A2, C2 and G2 words: the
kernel against the dense product, inverses and the Hall–Witt identity;
and of `gword.collect` on `wordgen` words: it keeps the element, is
idempotent, never grows a word and keeps LevelShape and RelConjShape
certificates with no more attestations; and of
`RewriteEngine.conjugation_normalize` under the budget that
`lgp.for_dilation` builds: every blocked peel is either charged to the
budget or falls back to an attestation.

Words are nested Inv/Conj/Comm/Prod trees over c*t^e arguments (divided
by a power of s over a localized ring).  Examples are derandomized and
bounded so that the suite stays deterministic and fast.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chevcalc.chevrep import get_representation
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
    node_count,
)
from chevcalc.rewrite import Budget, RewriteEngine
from chevcalc.rootsys import _vneg, build_root_system

from wordgen import dense_evaluate, is_identity, random_level_word, random_word

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


def _words(rs, ring, max_leaves=6):
    t = ring.var("t")
    den = st.integers(0, 2) if ring.loc_num is not None else st.just(0)
    arg = st.builds(
        lambda c, e, k: ring.int_(c) * t**e * ring.s_power(k),
        st.integers(-6, 6),
        st.integers(0, 2),
        den,
    )
    gen = st.builds(Gen, st.sampled_from(rs.roots), arg)
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


@pytest.mark.parametrize("label", ("A2", "A3"))
def test_conjugation_normalize_under_the_dilation_budget(label):
    # x_a(c*t*u^2) conjugated by 1-3 generators, about 40 % of them on -a,
    # normalized under Budget([((t), (u))], allow_attest=True): a blocked
    # peel at depth 0 is funded by the level, a blocked peel one level
    # deeper falls back to an attestation
    ring = Ring.integers().extend("t", "u")
    t, u = ring.var("t"), ring.var("u")
    I, J = IdealSpec.gens(ring, t), IdealSpec.gens(ring, u)
    level = IdealSpec.gens(ring, t * u * u)
    eng = RewriteEngine(label, ring)
    roots = sorted(eng.rs.roots)
    coeffs = [ring.int_(c) for c in (1, -1, 2, 3)]
    falls = []

    @settings(PROPERTY, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        a = rng.choice(roots)
        others = [r for r in roots if r != _vneg(a)]
        by = tuple(
            Gen(
                _vneg(a) if rng.random() < 0.4 else rng.choice(others),
                rng.choice(coeffs) * rng.choice((ring.one(), u)),
            )
            for _ in range(rng.randint(1, 3))
        )
        g = Conj(Gen(a, rng.choice(coeffs) * t * u * u), Prod(by))
        budget = Budget([(I, J)], allow_attest=True)
        _, rec = eng.conjugation_normalize(g, level, budget)
        assert len(budget.spent) == rec.details["decompositions"]
        falls.append(rec.details["attest_falls"])

    check()
    assert any(n > 0 for n in falls)
