"""Property tests of word evaluation on random A2, C2 and G2 words: the
kernel against the dense product, inverses and the Hall–Witt identity.

Words are nested Inv/Conj/Comm/Prod trees over c*t^e arguments (divided
by a power of s over a localized ring).  Examples are derandomized and
bounded so that the suite stays deterministic and fast.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chevcalc.chevrep import get_representation
from chevcalc.exactring import Ring
from chevcalc.gword import Comm, Conj, Gen, Inv, Prod
from chevcalc.rootsys import build_root_system

from wordgen import dense_evaluate

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
    assert rep.evaluate_word(Prod((w, Inv(w))), ring).is_identity()


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
    assert rep.evaluate_word(w, ring).is_identity()
