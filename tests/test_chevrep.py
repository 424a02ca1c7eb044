import random

import pytest

from chevcalc.chevrep import congruence_check, get_representation
from chevcalc.errors import InvalidType
from chevcalc.exactring import IdealSpec, Ring
from chevcalc.gword import Comm, Gen, Prod, inv_word
from chevcalc.rootsys import build_root_system, compute_structure_constants

from wordgen import (
    dense_evaluate,
    generator_matrix,
    identity_matrix,
    is_identity,
    matmul,
    random_ring_element,
)


def test_adjoint_bracket_homomorphism():
    # [X_a, X_b] must land on N(a,b) X_{a+b}, on the coroot for b = -a,
    # or vanish when a+b is neither zero nor a root.
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = build_root_system(label, rank)
        rep = get_representation(rs, "adjoint")
        rng = random.Random(rank * 100 + ord(label))
        pairs = [(a, b) for a in rs.roots for b in rs.roots if a != b]
        for a, b in rng.sample(pairs, min(25, len(pairs))):
            xa = rep.powers[a][1]
            xb = rep.powers[b][1]
            bracket = {}
            for (i, j), v in xa.items():
                for (jj, k), w in xb.items():
                    if j == jj:
                        bracket[(i, k)] = bracket.get((i, k), 0) + v * w
            for (i, j), v in xb.items():
                for (jj, k), w in xa.items():
                    if j == jj:
                        bracket[(i, k)] = bracket.get((i, k), 0) - v * w
            bracket = {k: v for k, v in bracket.items() if v}
            if b == rs.neg(a):
                # The result is the coroot element h_a, nonzero and diagonal.
                assert bracket
                assert all(i == j for (i, j) in bracket)
                continue
            s = rs.add(a, b)
            if s is None:
                assert bracket == {}
            else:
                n = rs.lie_constant(a, b)
                expected = {k: n * v for k, v in rep.powers[s][1].items()}
                assert bracket == expected


def test_defining_dimensions_and_nilpotency():
    a3 = get_representation(build_root_system("A", 3), "defining")
    assert a3.dim == 4
    c3 = get_representation(build_root_system("C", 3), "defining")
    assert c3.dim == 6
    # In the defining representation every root element squares to zero,
    # so the divided-power table stops at k = 1.
    for rep in (a3, c3):
        for root, powers in rep.powers.items():
            assert max(powers) == 1
    adj = get_representation(build_root_system("G", 2), "adjoint")
    assert max(max(p) for p in adj.powers.values()) == 3
    adj2 = get_representation(build_root_system("A", 2), "adjoint")
    assert max(max(p) for p in adj2.powers.values()) == 2


def test_defining_unavailable():
    with pytest.raises(InvalidType):
        get_representation(build_root_system("G", 2), "defining")
    with pytest.raises(InvalidType):
        get_representation(build_root_system("B", 3), "defining")
    with pytest.raises(InvalidType):
        get_representation(build_root_system("A", 2), "nonsense")


def test_representation_cache():
    rs = build_root_system("A", 2)
    assert get_representation(rs, "adjoint") is get_representation(rs, "adjoint")


@pytest.mark.parametrize(
    "label,rank,kind",
    [
        ("A", 2, "adjoint"),
        ("A", 2, "defining"),
        ("C", 2, "defining"),
        ("G", 2, "adjoint"),
    ],
)
def test_steinberg_additivity(label, rank, kind):
    rs = build_root_system(label, rank)
    rep = get_representation(rs, kind)
    for ring in (Ring.integers().extend("t"), Ring.integers_mod(5).extend("t")):
        rng = random.Random(20260815)
        for _ in range(8):
            root = rng.choice(rs.roots)
            r = random_ring_element(ring, rng)
            s = random_ring_element(ring, rng)
            lhs = matmul(generator_matrix(rep, root, r), generator_matrix(rep, root, s))
            assert lhs == generator_matrix(rep, root, r + s)
            prod = matmul(generator_matrix(rep, root, r), generator_matrix(rep, root, -r))
            assert is_identity(prod)


@pytest.mark.parametrize("label,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_commutator_formula_on_matrices(label, rank):
    # [x_a(r), x_b(s)] equals the ordered product of x_{ia+jb} over the
    # tabulated coefficients, evaluated in the adjoint representation.
    rs = build_root_system(label, rank)
    sc = compute_structure_constants(rs)
    rep = get_representation(rs, "adjoint")
    ring = Ring.integers().extend("u", "v")
    r = ring.var("u")
    s = ring.var("v")
    rng = random.Random(7)
    pairs = [
        (a, b)
        for a in rs.roots
        for b in rs.roots
        if a != b and b != rs.neg(a)
    ]
    for a, b in rng.sample(pairs, 10):
        word = Comm(Gen(a, r), Gen(b, s))
        lhs = rep.evaluate_word(word, ring)
        rhs = identity_matrix(ring, rep.dim)
        coeffs = dict(sc.comm_coeffs(a, b))
        for (i, j), delta in sc.pair_roots(a, b):
            c = coeffs.get((i, j), 0)
            if c:
                rhs = matmul(rhs, generator_matrix(rep, delta, r**i * s**j * ring.int_(c)))
        assert lhs == rhs


def test_evaluate_word_inverse():
    rs = build_root_system("A", 2)
    rep = get_representation(rs, "defining")
    ring = Ring.integers().extend("t")
    rng = random.Random(3)
    gens = [
        Gen(rng.choice(rs.roots), random_ring_element(ring, rng)) for _ in range(5)
    ]
    w = Prod(tuple(gens))
    m = rep.evaluate_word(Prod((w, inv_word(w))), ring)
    assert is_identity(m)
    assert rep.words_equal(w, w, ring)


def test_congruence_check():
    rs = build_root_system("A", 2)
    rep = get_representation(rs, "defining")
    ring = Ring.integers().extend("t")
    t = ring.var("t")
    spec = IdealSpec.gens(ring, ring.int_(2) * t)
    w = Prod((Gen((1, -1, 0), 2 * t), Gen((0, 1, -1), -4 * t)))
    m = rep.evaluate_word(w, ring)
    assert congruence_check(m, spec)
    bad_spec = IdealSpec.gens(ring, ring.int_(4))
    assert not congruence_check(m, bad_spec)
    assert congruence_check(identity_matrix(ring, rep.dim), bad_spec)


# ----- the sparse evaluation against the dense reference -----


def _oracle_rings():
    zt = Ring.integers().extend("t")
    return (
        zt,
        zt.localize_at(2),
        Ring.integers_mod(9).extend("t"),
        zt.localize_at(zt.var("t") + 3),
        Ring.integers_mod(9).extend("t").localize_at(2),
        Ring.integers_mod(4).extend("t").localize_at(2),
        # the doubled ring that `lgp.dilate` evaluates over
        Ring.integers().extend("X", "Xp").localize_at(3),
    )


def _random_arg(ring, rng):
    el = random_ring_element(ring, rng)
    if ring.loc_num is not None:
        el = el * ring.s_power(rng.randrange(3))
    return el


def _raw(m):
    return {pos: (v.num, v.den) for pos, v in m.entries.items()}


@pytest.mark.parametrize(
    "label,rank,kind,length",
    [
        ("A", 2, "adjoint", 8),
        ("C", 2, "adjoint", 8),
        ("G", 2, "adjoint", 8),
        ("F", 4, "adjoint", 4),
        ("A", 3, "defining", 10),
        ("C", 3, "defining", 10),
    ],
)
def test_sparse_evaluation_matches_dense_product(label, rank, kind, length):
    rs = build_root_system(label, rank)
    rep = get_representation(rs, kind)
    for n, ring in enumerate(_oracle_rings()):
        rng = random.Random(1000 * rank + 10 * n + ord(label))
        for _ in range(3):
            w = Prod(
                tuple(
                    Gen(rng.choice(rs.roots), _random_arg(ring, rng))
                    for _ in range(length)
                )
            )
            _assert_matches_dense(rep, w, ring)


def _assert_matches_dense(rep, w, ring):
    m = rep.evaluate_word(w, ring)
    ref = dense_evaluate(rep, w, ring)
    assert m == ref
    if ring.base_mod == 0 or ring.loc_num is None:
        # one normal form per element: the stored data agree as well
        assert _raw(m) == _raw(ref)


def _degree_40_args(ring, rng):
    """Arguments whose every variable reaches degree 40."""
    top = ring.one()
    for name in ring.var_names:
        top = top * ring.var(name) ** 40
    out = [top, ring.int_(rng.randrange(2, 9)) * top - ring.one()]
    if ring.loc_num is not None:
        out.append(top * ring.s_power(1))
    return out


@pytest.mark.parametrize(
    "label,rank,kind", [("A", 2, "adjoint"), ("G", 2, "adjoint"), ("C", 3, "defining")]
)
def test_packed_fields_hold_degree_40_arguments(label, rank, kind):
    # x_a(r) x_-a(r) reaches the exponent bound: X_-a^k X_a^k has nonzero
    # entries, so a field one bit too narrow loses the top exponent
    rs = build_root_system(label, rank)
    rep = get_representation(rs, kind)
    for n, ring in enumerate(_oracle_rings()):
        rng = random.Random("deg40/%s%d/%d" % (label, rank, n))
        args = _degree_40_args(ring, rng)
        a = rs.roots[0]
        for r in args:
            _assert_matches_dense(rep, Prod((Gen(a, r), Gen(rs.neg(a), r))), ring)
        w = Prod(tuple(Gen(rng.choice(rs.roots), rng.choice(args)) for _ in range(4)))
        _assert_matches_dense(rep, w, ring)
