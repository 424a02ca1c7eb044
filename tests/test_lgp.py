import collections
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chevcalc import cli, lgp, rewrite
from chevcalc.chevrep import Representation, RepMatrix
from chevcalc.errors import (
    CongruenceFailed,
    ConditionViolated,
    InconsistentData,
    LocalizationMismatch,
    NodeBudgetExceeded,
    NotSplittingIdeal,
    NotUnimodular,
    OracleMismatch,
    SubstitutionMismatch,
    UndecidableIdealClass,
    UnsupportedRing,
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
    check_shape,
    collect,
    flatten,
    node_count,
    substitute_word,
    word_args,
    word_from_text,
    word_to_text,
)
from chevcalc.lgp import (
    LocalDatum,
    PatchProblem,
    dilate,
    for_dilation,
    ninth_power_rewrite,
    patch,
    pullback,
    torsion_exponent,
    unimodular_combination,
)
from chevcalc.rewrite import RewriteEngine

from wordgen import dense_evaluate, random_level_word, random_word

A, B, C = (1, -1, 0), (0, 1, -1), (1, 0, -1)
INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def lift(word, target):
    ring = word_args(word)[0].ring
    return substitute_word(word, {n: target.var(n) for n in ring.var_names}, target)


def _substitution_error_cases():
    zt = Ring(0, ("t",))
    zv = Ring(0, ("v",))
    return [
        (Ring(6, ("t",)).parse("t + 2"), {"t": zt.var("t")}, zt,
         "no ring map from base Z/6 into Z[t]"),
        (zt.parse("t + 1"), {"t": zv.var("v"), "nope": zv.var("v")}, zv,
         "mapping names unknown variable 'nope'"),
        (zt.parse("t + 1"), {}, zv, "mapping misses ['t']"),
        (zt.localize_at(2).parse("t/s"), {"t": zv.var("v")}, zv,
         "cannot resolve denominator image 2 in Z[v]"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_substitution_errors_keep_their_types_and_messages(case):
    el, mapping, dst, message = _substitution_error_cases()[case]
    sub = el.ring.substitution(mapping, dst)
    calls = [
        lambda: el.substitute(mapping, dst),
        lambda: substitute_word(Prod((Gen(A, el),)), mapping, dst),
        lambda: lgp._mat_substitute(RepMatrix(el.ring, 3, {(0, 1): el}), sub),
        # a prepared map raises on every element it fails on
        lambda: sub(el),
        lambda: sub(el),
    ]
    for call in calls:
        with pytest.raises(SubstitutionMismatch) as info:
            call()
        assert str(info.value) == message
    # errors are raised on the first element the map is applied to
    assert substitute_word(EMPTY, mapping, dst) == EMPTY
    assert lgp._mat_substitute(RepMatrix(el.ring, 3, {}), sub).entries == {}


# ----- torsion_exponent -----


def test_torsion_exponent_kills_nilpotent_tail():
    # over Z/4 the entries of x_a(2t) die under t -> 2t but not before
    ring = Ring(4, ("t",))
    eng = RewriteEngine("A2", ring)
    rep = eng.reps[0]
    g = rep.evaluate_word(Gen(A, ring.parse("2*t")), ring)
    ident = rep.evaluate_word(EMPTY, ring)
    assert torsion_exponent([g], [ident], 2, "t", 0, 2) == 1


def test_torsion_exponent_equal_is_zero():
    ring = Ring(4, ("t",))
    eng = RewriteEngine("A2", ring)
    g = eng.reps[0].evaluate_word(Gen(A, ring.parse("2*t")), ring)
    assert torsion_exponent([g], [g], 2, "t", 0, 2) == 0


def test_torsion_exponent_agrees_with_direct_scan():
    ring = Ring(8, ("t",))
    eng = RewriteEngine("A2", ring)
    ident = [rep.evaluate_word(EMPTY, ring) for rep in eng.reps]
    rng = random.Random(41)
    for _ in range(10):
        c = rng.choice((2, 4, 6))
        w = Gen(rng.choice((A, B, C)), ring.int_(c) * ring.var("t"))
        gs = [rep.evaluate_word(w, ring) for rep in eng.reps]
        m = torsion_exponent(gs, ident, 2, "t", 0, 3)
        scan = 0
        while True:
            dil = {"t": ring.int_(2) ** scan * ring.var("t")}
            entries = [v.substitute(dil, ring) for g in gs for _, v in g.entries_minus_identity()]
            if all(v.is_zero() for v in entries):
                break
            scan += 1
        assert m == scan
        # from a later start the scan returns the start or the least exponent
        assert torsion_exponent(gs, ident, 2, "t", 1, 3) == max(1, scan)


def test_torsion_exponent_rejects_persistent_difference():
    ring = Ring(0, ("t",))
    eng = RewriteEngine("A2", ring)
    rep = eng.reps[0]
    g = rep.evaluate_word(Gen(A, ring.var("t")), ring)
    ident = rep.evaluate_word(EMPTY, ring)
    # over Z nothing divides t away
    with pytest.raises(OracleMismatch, match="at every exponent in 0..3"):
        torsion_exponent([g], [ident], 2, "t", 0, 3)


def test_torsion_exponent_rejects_constant_difference():
    ring = Ring(4, ("t",))
    eng = RewriteEngine("A2", ring)
    rep = eng.reps[0]
    g = rep.evaluate_word(Gen(A, ring.int_(2)), ring)
    ident = rep.evaluate_word(EMPTY, ring)
    with pytest.raises(OracleMismatch):
        torsion_exponent([g], [ident], 2, "t", 0, 2)


def test_torsion_exponent_input_checks():
    ring = Ring(4, ("t",))
    other = Ring(4, ("u",))
    eng = RewriteEngine("A2", ring)
    g = eng.reps[0].evaluate_word(Gen(A, ring.parse("2*t")), ring)
    ident = eng.reps[0].evaluate_word(EMPTY, ring)
    h = RewriteEngine("A2", other).reps[0].evaluate_word(Gen(A, other.parse("2*u")), other)
    with pytest.raises(UnsupportedRing, match="no variable 't' in Z/4\\[u\\]"):
        torsion_exponent([g], [h], 2, "u", 0, 2)
    with pytest.raises(UnsupportedRing, match="no variable 'x'"):
        torsion_exponent([g], [ident], 2, "x", 0, 2)


def test_torsion_exponent_passes_over_exponents_that_keep_a_denominator():
    # x_a(t/s^3) over Z[t][1/2] maps into Z[t] from t -> 8t on
    loc = Ring(0, ("t",)).localize_at(2)
    base = loc.delocalized()
    g = RewriteEngine("A2", loc).reps[0].evaluate_word(Gen(A, loc.parse("t/s^3")), loc)
    h = RewriteEngine("A2", base).reps[0].evaluate_word(Gen(A, base.var("t")), base)
    assert torsion_exponent([g], [h], 2, "t", 3, 5) == 3
    # no exponent maps the input: the last failed map is raised
    with pytest.raises(SubstitutionMismatch, match="cannot resolve denominator image 2"):
        torsion_exponent([g], [h], 2, "t", 0, 2)
    # some exponent maps it but none matches: an oracle refusal
    with pytest.raises(OracleMismatch, match="at every exponent in 2..4"):
        torsion_exponent([g], [h], 2, "t", 2, 4)


# ----- unimodular_combination -----


def test_unimodular_combination_integers():
    ring = Ring.integers()
    combo = unimodular_combination(ring, [2, 3])
    assert [str(c) for c in combo] == ["-1", "1"]
    total = ring.zero()
    for c, v in zip(combo, (ring.int_(2), ring.int_(3))):
        total = total + c * v
    assert total == ring.one()


def test_unimodular_combination_rejects_common_divisor():
    with pytest.raises(NotUnimodular):
        unimodular_combination(Ring.integers(), [2, 4])
    with pytest.raises(NotUnimodular):
        unimodular_combination(Ring.integers(), [])


def test_unimodular_combination_polynomials():
    ring = Ring(0, ("X",))
    X = ring.var("X")
    combo = unimodular_combination(ring, [X, ring.one() - X])
    assert [str(c) for c in combo] == ["1", "1"]
    combo = unimodular_combination(ring, [X, ring.int_(2) * X + ring.one()])
    assert [str(c) for c in combo] == ["-2", "1"]


def test_unimodular_combination_beyond_pool_is_undecided():
    ring = Ring(0, ("X",))
    X = ring.var("X")
    with pytest.raises(UndecidableIdealClass):
        unimodular_combination(ring, [X * X, X * X + X**4])


def test_unimodular_combination_search_is_capped():
    # a 6-element cover over Z[t,u] would need 15^6 pool tuples
    ring = Ring(0, ("t", "u"))
    v = ring.parse("t*u + 2")
    start = time.perf_counter()
    with pytest.raises(UndecidableIdealClass, match="coefficient tuples"):
        unimodular_combination(ring, [v] * 6)
    assert time.perf_counter() - start < 1.0


# ----- for_dilation -----


def ninth_splitting(ring):
    t = ring.var("t")
    return Prod((
        Gen(A, ring.int_(3) * t**9),
        Conj(Gen(B, ring.int_(6) * t**9), Gen(C, ring.int_(5))),
        Comm(Gen(A, ring.int_(3) * t), Gen(B, ring.int_(2) * t**9)),
    ))


def test_for_dilation_normalizes_ninth_power_splitting():
    ring = Ring(0, ("t",))
    eng = RewriteEngine("A2", ring)
    K = IdealSpec.gens(ring, 3)
    w = ninth_splitting(ring)
    out, rec = for_dilation(eng, w, K, "t")
    # the commutator regenerates as [[x_-a(-2t^6), x_c(t^3)], x_a(3t)];
    # x_c commutes with x_a, so its second Hall-Witt piece is left out
    assert rec.attested == 1
    assert rec.details["level_factors"] == 2
    assert rec.details["mixed_factors"] == 1
    assert rec.details["trivial_pieces"] == 1
    assert rec.details["kept_factors"] == 0
    assert rec.details["condition_falls"] == 0
    assert rec.details["budget"] == ()
    assert rec.nodes_out == 15
    for rep in eng.reps:
        assert rep.words_equal(out, w, ring)
    t_spec = IdealSpec.gens(ring, ring.var("t"))
    report = check_shape(out, RelConjShape(t_spec, K.product(t_spec)), eng.congruence_oracle())
    assert report.ok and len(report.attested) == 1


def test_for_dilation_keeps_unroutable_factors_whole():
    ring = Ring(0, ("t",))
    eng = RewriteEngine("C2", ring)
    K = IdealSpec.gens(ring, 3)
    t = ring.var("t")
    short, long_ = (1, -1), (0, 2)
    w = Prod((
        Gen(long_, ring.int_(3) * t**9),
        Conj(Gen(short, ring.int_(3) * t**9), Gen(long_, ring.int_(5))),
        Comm(Gen(short, ring.int_(3) * t), Gen(long_, ring.int_(2) * t**9)),
    ))
    out, rec = for_dilation(eng, w, K, "t")
    # the commutator has no move route over Z; it rides as one attestation
    assert rec.details["kept_factors"] == 1
    assert rec.details["level_factors"] == 2
    assert rec.attested == 1
    for rep in eng.reps:
        assert rep.words_equal(out, w, ring)


def test_for_dilation_normalizes_an_inverted_level_factor():
    # the inverse of x_a(3t^9) conjugated by x_{-a}(2) is normalized as
    # x_a(-3t^9) conjugated by it: the blocked peel decomposes -3t^9
    ring = Ring(0, ("t",))
    eng = RewriteEngine("A2", ring)
    K = IdealSpec.gens(ring, 3)
    t = ring.var("t")
    w = Prod((Inv(Conj(Gen(A, ring.int_(3) * t**9), Gen((-1, 1, 0), ring.int_(2)))),))
    out, rec = for_dilation(eng, w, K, "t")
    assert rec.details["level_factors"] == 1
    assert rec.details["decompositions"] == 1
    assert [e["value"] for e in rec.details["budget"]] == ["-3*t^9"]
    assert rec.attested == 0
    for rep in eng.reps:
        assert rep.words_equal(out, w, ring)


def test_for_dilation_keeps_a_level_factor_with_no_generator_core():
    # a conjugated product of two generators has no generator to peel; it
    # is kept whole and attested
    ring = Ring(0, ("t",))
    eng = RewriteEngine("A2", ring)
    K = IdealSpec.gens(ring, 3)
    t = ring.var("t")
    pair = Prod((Gen(A, ring.int_(3) * t**9), Gen(C, ring.int_(6) * t**9)))
    w = Prod((Conj(pair, Gen(B, ring.int_(5))), Gen(A, ring.int_(3) * t**9)))
    out, rec = for_dilation(eng, w, K, "t")
    assert rec.details["kept_factors"] == 1
    assert rec.details["level_factors"] == 1
    assert rec.attested == 1
    for rep in eng.reps:
        assert rep.words_equal(out, w, ring)


def test_for_dilation_keeps_a_factor_whose_blocked_peel_has_no_route():
    # C2 over Z has a residue field of two elements, so the blocked peel
    # of x_a(3t^9) by x_{-a}(1) raises ConditionViolated and the factor
    # stays whole
    ring = Ring(0, ("t",))
    eng = RewriteEngine("C2", ring)
    K = IdealSpec.gens(ring, 3)
    t = ring.var("t")
    short = (1, -1)
    w = Prod((Conj(Gen(short, ring.int_(3) * t**9), Gen((-1, 1), ring.int_(1))),))
    out, rec = for_dilation(eng, w, K, "t")
    assert rec.details["condition_falls"] == 1
    assert rec.details["level_factors"] == 0
    assert rec.details["budget"] == ()
    assert rec.attested == 1
    for rep in eng.reps:
        assert rep.words_equal(out, w, ring)


def test_for_dilation_rejects_shallow_splitting():
    ring = Ring(0, ("t",))
    eng = RewriteEngine("A2", ring)
    w = Prod((Gen(A, ring.parse("3*t^8")),))
    with pytest.raises(ConditionViolated):
        for_dilation(eng, w, IdealSpec.gens(ring, 3), "t")


# ----- dilate -----


def test_dilate_clears_denominators():
    loc = Ring(0, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    I = IdealSpec.gens(loc, 3)
    w = Prod((Gen(A, loc.parse("3*t/s")), Gen(C, loc.parse("3*t"))))
    l, h, rec = dilate(eng, w, I)
    assert l == 9
    assert rec.details["den_exponents"] == [1]
    assert rec.details["clear_m"] == 1
    assert rec.details["n"] == 9
    assert rec.details["torsion_k"] == 0
    assert rec.details["ninth_power_attested"] == 0
    assert rec.nodes_out == 3
    base = loc.delocalized()
    assert all(a.den == 0 for a in word_args(h))
    assert all(a.ring == base for a in word_args(h))
    # h evaluates to w with t dilated by 2^9, checked over the localization
    dil = {"t": loc.int_(2) ** l * loc.var("t")}
    w_dil = substitute_word(w, dil, loc)
    for rep in eng.reps:
        assert rep.words_equal(lift(h, loc), w_dil, loc)
    report = check_shape(h, LevelShape(IdealSpec.gens(base, 3)), RewriteEngine("A2", base).congruence_oracle())
    assert report.ok and not report.attested


def test_dilate_exponent_floor_covers_denominators():
    loc = Ring(0, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    I = IdealSpec.gens(loc, 3)
    w = Prod((Gen(A, loc.parse("3*t/s")), Gen(C, loc.parse("3*t"))))
    l, _, rec = dilate(eng, w, I)
    assert rec.details["n"] >= 9 * max(rec.details["den_exponents"])
    assert l == 9


def test_dilate_peels_level_conjugators():
    loc = Ring(0, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    I = IdealSpec.gens(loc, 3)
    w = Prod((Conj(Gen(A, loc.parse("3*t/s")), Gen(B, loc.int_(5))), Gen(C, loc.parse("3*t"))))
    l, h, rec = dilate(eng, w, I)
    assert l == 9
    assert rec.details["ninth_power_attested"] == 0
    dil = {"t": loc.int_(2) ** l * loc.var("t")}
    for rep in eng.reps:
        assert rep.words_equal(lift(h, loc), substitute_word(w, dil, loc), loc)


def test_dilate_maps_deep_entry_denominators_at_the_clearing_exponent():
    # every argument is 3X/2, so the word clears at m = 1 and 9m = 9.  An
    # adjoint entry stores 2^10 in its denominator, but each term c*X^d
    # of an entry has at most 2^d times the powers of 2 in c below it, so
    # X -> 2X already maps every entry into Z[X], and so does X -> 2^9 X:
    # the least exponent from 9 is 9 itself
    loc = Ring(0, ("X",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    x = loc.parse("3*X/s")
    w = Prod(tuple(Gen(r, x) for r in (A, _neg(A), A, _neg(A), A)))
    assert max(v.den for m in eng.evaluate(w) for _, v in m.entries_minus_identity()) == 10
    l, h, rec = dilate(eng, w, IdealSpec.gens(loc, 3))
    assert rec.details["clear_m"] == 1
    assert rec.details["n"] == l == 9
    assert rec.details["torsion_k"] == 0
    w_dil = substitute_word(w, {"X": loc.int_(2) ** l * loc.var("X")}, loc)
    for rep in eng.reps:
        assert dense_evaluate(rep, lift(h, loc), loc) == dense_evaluate(rep, w_dil, loc)


def test_dilate_zero_divisor_base_pins_by_torsion():
    # Z/4 localized at 2 is the zero ring, so the cleared word is empty,
    # and the exponent is the torsion bound T = 2, from which s^l kills
    # the whole of Z/4 at positive t-degrees
    loc = Ring(4, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    w = Prod((Gen(A, loc.parse("2*t")),))
    l, h, rec = dilate(eng, w, IdealSpec.gens(loc, 2))
    assert l == loc.torsion_bound() == 2
    assert h == EMPTY
    assert rec.details["n"] == 0
    assert rec.details["torsion_k"] == 2


def test_dilate_divides_by_a_zero_divisor_image_of_s():
    # 2 is no unit mod 12, but Z/12[1/2] is Z/3, where 6t/s is 0 and the
    # word is the identity, so the output is empty.  The scan starts at
    # the torsion bound T = 2 of s = 2 on Z/12
    loc = Ring(12, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    w = Prod((Gen(A, loc.parse("6*t/s")),))
    assert w.factors[0].arg.is_zero()
    l, h, rec = dilate(eng, w, IdealSpec.gens(loc, 3))
    assert (l, h) == (2, EMPTY)
    assert (rec.details["n"], rec.details["torsion_k"]) == (0, 2)
    w_dil = substitute_word(w, {"t": loc.int_(2) ** l * loc.var("t")}, loc)
    for rep in eng.reps:
        assert dense_evaluate(rep, w_dil, loc) == dense_evaluate(rep, EMPTY, loc)


def _counting_evaluate(monkeypatch):
    calls = []
    evaluate = RewriteEngine.evaluate

    def counted(self, w):
        calls.append(w)
        return evaluate(self, w)

    monkeypatch.setattr(RewriteEngine, "evaluate", counted)
    return calls


@pytest.mark.parametrize("mod, text, out", [
    (4, "(prod (x 1,-1,0 {2*t}))", "(prod)"),
    (12, "(prod (x -1,1,0 {8*t^2}) (x 1,-1,0 {6*t}))", "(prod (x -1,1,0 {8*t^2}))"),
])
def test_dilate_shifts_the_scanned_matrices_at_positive_torsion_k(monkeypatch, mod, text, out):
    # at torsion_k > 0 the output is the cleared word under t -> 2^k * t,
    # an endomorphism of the unlocalized base, so its matrices are the
    # scanned ones shifted entrywise: the input and the cleared word,
    # shifted to the torsion bound T = 2 where the scan starts, are
    # evaluated, and nothing else is
    loc = Ring(mod, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    w = word_from_text(text, loc, eng.rs)
    calls = _counting_evaluate(monkeypatch)
    l, h, rec = dilate(eng, w, IdealSpec.gens(loc, 2))
    assert len(calls) == 2
    assert (l, word_to_text(h)) == (2, out)
    assert rec.to_dict() == {
        "op": "dilate", "oracle_checked": True, "nodes_in": text.count("(x") + 1,
        "nodes_out": out.count("(x") + 1, "attested": 0,
        "details": {"s": "2", "var": "t", "aux_var": "tp", "den_exponents": [],
                    "clear_m": 0, "n": 0, "torsion_k": 2, "l": 2,
                    "ninth_power_attested": 0},
        # the input prints as stored, mod 1 and mod 3
        "input": word_to_text(w), "output": out, "certificate": "LevelShape",
    }


def test_dilate_scans_once_and_maps_each_input_matrix_once(monkeypatch):
    # on the word of instances/dilate_a2.json the least exponent is n: one
    # scan, one map of each model's input matrix and none of its outputs
    inst = json.loads((INSTANCES / "dilate_a2.json").read_text())
    loc = cli.ring_from_text(inst["ring"])
    eng = RewriteEngine(inst["system"], loc)
    w = word_from_text(inst["word"], loc, eng.rs)
    scans, mapped = [], []
    scan, mat_substitute = lgp.torsion_exponent, lgp._mat_substitute

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    def counted_map(m, sub):
        mapped.append(m.ring)
        return mat_substitute(m, sub)

    monkeypatch.setattr(lgp, "torsion_exponent", counted_scan)
    monkeypatch.setattr(lgp, "_mat_substitute", counted_map)
    l, _, rec = dilate(eng, w, cli.ideal_from_texts(loc, inst["ideal"]), var=inst["var"])
    assert l == rec.details["n"] == 9
    assert len(scans) == 1
    assert mapped == [loc] * len(eng.reps)


def _seeded_dilation_word(loc, rng, level):
    """Three A2 generators x_r(level*c*X/s^j), c in {1, 5, 7}, j in 0..2."""
    roots = sorted(RewriteEngine("A2", loc).rs.roots)
    x = loc.var("X")
    return Prod(tuple(
        Gen(rng.choice(roots), loc.int_(level * rng.choice((1, 5, 7))) * x * loc.s_power(rng.randrange(3)))
        for _ in range(3)
    ))


# four of the seeded words below, integral ones, with l = 2, n = 0
GLUING_TORSION_WORDS = [
    (12, "(prod (x -1,0,1 {t}) (x 0,-1,1 {3*t}) (x 0,1,-1 {5*t}) (x 1,-1,0 {t}))"),
    (12, "(prod (x 1,0,-1 {5*t}) (x -1,1,0 {5*t}) (x 0,1,-1 {3*t}) (x 0,-1,1 {3*t}))"),
    (4, "(prod (x -1,0,1 {t}) (x 0,-1,1 {3*t}) (x 0,1,-1 {t}) (x 1,-1,0 {t}))"),
    (4, "(prod (x 1,0,-1 {t}) (x -1,1,0 {t}) (x 0,1,-1 {3*t}) (x 0,-1,1 {3*t}))"),
]


def _shortened(monkeypatch):
    """The words every engine returns from `shorten`, with its ring; the
    last one over dilate's base is its cleared word."""
    out = []
    shorten = RewriteEngine.shorten

    def spy(self, word):
        short = shorten(self, word)
        out.append((self.ring, short))
        return short

    monkeypatch.setattr(RewriteEngine, "shorten", spy)
    return out


def _check_least_exponent(shortened, loc, w, level):
    """dilate's output equals w dilated by s^l over the base in every model,
    by dense products; l is at least lo = max(n, T), T the torsion bound,
    and when l > lo the same comparison at l - 1 fails."""
    base = loc.delocalized()
    var = loc.var_names[-1]
    eng = RewriteEngine("A2", loc)
    l, h, rec = dilate(eng, w, IdealSpec.gens(loc, level))
    n = rec.details["n"]
    lo = max(n, loc.torsion_bound())
    assert rec.details["torsion_k"] == l - n and l >= lo
    cleared = [word for ring, word in shortened if ring == base]
    s_base = loc.loc_element().substitute({var: base.var(var)}, base)

    def dilation(e):
        return {var: s_base ** e * base.var(var)}

    def agrees(e):
        out = substitute_word(cleared[-1], dilation(e - n), base)
        try:
            at_e = loc.substitution(dilation(e), base)
            return all(
                lgp._mat_substitute(dense_evaluate(rep, w, loc), at_e) == dense_evaluate(rep, out, base)
                for rep in eng.reps
            )
        except SubstitutionMismatch:
            return False

    assert h == substitute_word(cleared[-1], dilation(l - n), base)
    assert agrees(l)
    if l > lo:
        assert not agrees(l - 1)
    return l, n


@pytest.mark.parametrize("s, level", [(2, 3), (3, 2)])
def test_dilate_returns_the_least_exponent_on_seeded_words(monkeypatch, s, level):
    loc = Ring(0, ("X",)).localize_at(s)
    rng = random.Random(s)
    shortened = _shortened(monkeypatch)
    for _ in range(3):
        _check_least_exponent(shortened, loc, _seeded_dilation_word(loc, rng, level), level)


@pytest.mark.parametrize("mod, text", GLUING_TORSION_WORDS)
def test_dilate_returns_the_least_exponent_over_a_torsion_base(monkeypatch, mod, text):
    loc = Ring(mod, ("t",)).localize_at(2)
    w = word_from_text(text, loc, RewriteEngine("A2", loc).rs)
    assert _check_least_exponent(_shortened(monkeypatch), loc, w, 1) == (2, 0)


def _seeded_torsion_words(loc):
    """12 words of 4 A2 generators x_r(c*t/s^j), drawn in that order with
    random.Random(5): r a root, c in {1, 3, 5}, j in 0..2."""
    roots = sorted(RewriteEngine("A2", loc).rs.roots)
    rng = random.Random(5)
    words = []
    for _ in range(12):
        gens = []
        for _ in range(4):
            root, c, j = rng.choice(roots), rng.choice((1, 3, 5)), rng.randrange(3)
            gens.append(Gen(root, loc.int_(c) * loc.var("t") * loc.s_power(j)))
        words.append(Prod(tuple(gens)))
    return words


@pytest.mark.parametrize("mod", (12, 4))
def test_dilate_glues_every_seeded_word_over_localized_z_mod_m(mod):
    # Z/12[1/2] is Z/3 and Z/4[1/2] the zero ring.  Every word dilates at
    # l = T = 2; read over R_s, the output is w(s^l * t), and over the base
    # it is L of that, 1 on the factor Z/4 of Z/12 and on all of Z/4
    loc = Ring(mod, ("t",)).localize_at(2)
    base = loc.delocalized()
    eng = RewriteEngine("A2", loc)
    for w in _seeded_torsion_words(loc):
        l, h, _ = dilate(eng, w, IdealSpec.gens(loc, 1))
        assert l == 2
        w_dil = substitute_word(w, {"t": loc.int_(2) ** l * loc.var("t")}, loc)
        at_l = loc.substitution({"t": base.int_(2) ** l * base.var("t")}, base)
        for rep in eng.reps:
            h_loc = substitute_word(h, {"t": loc.var("t")}, loc)
            assert dense_evaluate(rep, h_loc, loc) == dense_evaluate(rep, w_dil, loc)
            lifted = lgp._mat_substitute(dense_evaluate(rep, w, loc), at_l)
            assert lifted == dense_evaluate(rep, h, base)


@pytest.mark.parametrize("mod", (12, 20, 4))
def test_a_word_mapped_out_of_localized_z_mod_m_evaluates_to_l_of_its_matrix(mod):
    # Z/m[t][1/2] is Z/m'[t], and the map into Z/m[t] is iota(c) = c*e,
    # e = 1 mod m' and 0 mod m/m': 4 over Z/12, 16 over Z/20, 0 over the
    # zero ring Z/4[1/2].  iota(1) = e, so the word mapped by iota
    # evaluates to L(M) = 1 + iota(M - 1), which `_mat_substitute` returns;
    # the packed kernel and dense products agree on it
    loc = Ring(mod, ("t",)).localize_at(2)
    base = loc.delocalized()
    eng = RewriteEngine("A2", loc)
    rng = random.Random("iota/%d" % mod)
    args = [loc.int_(c) * loc.var("t") ** k * loc.s_power(j)
            for c in (1, 3, 5) for k in (0, 1) for j in (0, 1)]
    maps = [{"t": base.var("t")}, {"t": base.int_(4) * base.var("t")}]
    for mapping in maps:
        sub = loc.substitution(mapping, base)
        assert sub.one_image % loc.mod == 1 % loc.mod and sub.one_image % (mod // loc.mod) == 0
        for _ in range(6):
            w = random_word(eng.rs, loc, rng, depth=3, args=args)
            w_base = substitute_word(w, mapping, base)
            for rep in eng.reps:
                want = dense_evaluate(rep, w_base, base)
                assert rep.evaluate_word(w_base, base) == want
                assert lgp._mat_substitute(rep.evaluate_word(w, loc), sub) == want
                assert lgp._mat_substitute(dense_evaluate(rep, w, loc), sub) == want


def test_dilate_gates_a_non_level_word_before_its_unlocalized_return():
    # over Z[X] as over Z[X][1/2], x_a(X) is no level word at (3)
    base = Ring(0, ("X",))
    for ring in (base, base.localize_at(2)):
        with pytest.raises(ConditionViolated, match="input is not a level word"):
            dilate(RewriteEngine("A2", ring), Prod((Gen(A, ring.var("X")),)), IdealSpec.gens(ring, 3))


def test_dilate_checks_level_once_over_an_unlocalized_ring(monkeypatch):
    # the gate's report certifies the unlocalized return, so the word's
    # LevelShape is checked once, and the receipt is the one a second
    # check gave
    ring = Ring(0, ("t",))
    w = Prod((Gen(A, ring.parse("3*t")),))
    checked = []

    def counted(word, shape, oracle):
        checked.append((word, shape))
        return check_shape(word, shape, oracle)

    monkeypatch.setattr(rewrite, "check_shape", counted)
    l, h, rec = dilate(RewriteEngine("A2", ring), w, IdealSpec.gens(ring, 3))
    assert (l, h) == (0, w)
    assert [word for word, _ in checked] == [w]
    assert rec.to_dict() == {
        "op": "dilate",
        "oracle_checked": True,
        "nodes_in": 2,
        "nodes_out": 2,
        "attested": 0,
        "details": {"l": 0, "n": 0, "clear_m": 0, "torsion_k": 0, "den_exponents": []},
        "input": "(prod (x 1,-1,0 {3*t}))",
        "output": "(prod (x 1,-1,0 {3*t}))",
        "certificate": "LevelShape",
    }


def test_dilate_trivial_cases():
    ring = Ring(0, ("t",))
    eng = RewriteEngine("A2", ring)
    w = Prod((Gen(A, ring.parse("3*t")),))
    l, h, rec = dilate(eng, w, IdealSpec.gens(ring, 3))
    assert (l, h) == (0, w)
    assert rec.details["l"] == 0
    loc = ring.localize_at(2)
    l, h, rec = dilate(RewriteEngine("A2", loc), EMPTY, IdealSpec.gens(loc, 3))
    assert (l, h) == (0, EMPTY)
    # the empty word takes the path of every other word, so its receipt
    # carries the same details
    _, _, full = dilate(RewriteEngine("A2", loc), Prod((Gen(A, loc.parse("3*t/s")),)),
                        IdealSpec.gens(loc, 3))
    assert rec.details.keys() == full.details.keys()
    assert rec.details["den_exponents"] == []
    assert (rec.details["clear_m"], rec.details["n"], rec.details["torsion_k"]) == (0, 0, 0)
    assert rec.details["ninth_power_attested"] == 0


def test_dilate_refuses_a_faulty_split(monkeypatch):
    # the split is composed unchecked: a builder that loses a factor gets
    # through for_dilation, whose checks compare against the faulty split,
    # and dilate's torsion scan against the dilated input refuses it
    split = RewriteEngine.split_pieces

    def dropping(self, w, i_spec, var):
        return Prod(split(self, w, i_spec, var).factors[:-1])

    monkeypatch.setattr(RewriteEngine, "split_pieces", dropping)
    loc = Ring(0, ("t",)).localize_at(2)
    w = Prod((Gen(A, loc.parse("3*t/s")), Gen(C, loc.parse("3*t"))))
    with pytest.raises(OracleMismatch, match="dilate output differs from the dilated input") as e:
        dilate(RewriteEngine("A2", loc), w, IdealSpec.gens(loc, 3))
    assert e.value.exit_code == 19


def test_dilate_input_checks():
    loc = Ring(0, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", loc)
    I = IdealSpec.gens(loc, 3)
    with pytest.raises(ConditionViolated):
        dilate(eng, Prod((Gen(A, loc.parse("2*t")),)), I)
    with pytest.raises(CongruenceFailed):
        dilate(eng, Prod((Gen(A, loc.int_(3)),)), I)
    with pytest.raises(CongruenceFailed):
        dilate(eng, Prod((Gen(A, loc.parse("3 + 3*t")),)), I)
    flat = Ring.integers().localize_at(2)
    with pytest.raises(NotSplittingIdeal):
        dilate(RewriteEngine("A2", flat), Prod((Gen(A, flat.int_(3)),)), IdealSpec.gens(flat, 3))


@pytest.mark.parametrize("label, b, l", [("G2", (2, -1, -1), 9), ("C2", (2, 0), 27)])
def test_dilate_refuses_a_denominator_the_clearing_leaves_standing(label, b, l):
    # Conj(x_b(3X), x_-b(1/s)) at level (3): over Z[X][1/3] the rewrite
    # keeps a localized argument that var' -> 3^m cannot clear, and over
    # Z[X][1/2] the same word glues.  Z[1/3] has the residue field F2,
    # outside the paper's hypothesis for C2 and G2, so this refusal is
    # expected to become a ConditionViolated that names it.
    def word(loc):
        neg_b = tuple(-x for x in b)
        return Prod((Conj(Gen(b, loc.parse("3*X")), Gen(neg_b, loc.s_power(1))),))

    loc = Ring(0, ("X",)).localize_at(3)
    with pytest.raises(SubstitutionMismatch, match="clearing") as e:
        dilate(RewriteEngine(label, loc), word(loc), IdealSpec.gens(loc, 3))
    assert e.value.exit_code == 6
    loc = Ring(0, ("X",)).localize_at(2)
    got, _, _ = dilate(RewriteEngine(label, loc), word(loc), IdealSpec.gens(loc, 3))
    assert got == l


# ----- patch -----


def crafted_problem(interleaved=False):
    # x_a(3X) x_c(3X) over R_2 and R_3; a and c commute.  Interleaved, the
    # factors that carry denominators are not adjacent, so no collection
    # clears them and both dilations stay real.
    base = Ring(0, ("X",))
    l2, l3 = base.localize_at(2), base.localize_at(3)
    a2, c2 = Gen(A, l2.parse("3*X/s")), Gen(C, l2.parse("3*X"))
    a3 = Gen(A, l3.parse("3*X"))
    c6, c21 = Gen(C, l3.parse("6*X/s^2")), Gen(C, l3.parse("21*X/s^2"))
    if interleaved:
        d1, d2 = Prod((a2, c2, a2)), Prod((c6, a3, c21))
    else:
        d1, d2 = Prod((a2, a2, c2)), Prod((a3, c6, c21))
    prob = PatchProblem("A2", base, IdealSpec.gens(base, 3),
                        (LocalDatum(2, d1), LocalDatum(3, d2)), "X")
    g_word = Prod((Gen(A, base.parse("3*X")), Gen(C, base.parse("3*X"))))
    return base, prob, g_word


def _check_glued(base, prob, g_word, out, rec):
    assert rec.details["cover"] == ["2", "3"]
    assert rec.details["gluing_vars"] == ["u1", "u2"]
    assert rec.attested == 0
    eng = RewriteEngine("A2", base)
    for rep in eng.reps:
        assert rep.words_equal(out, g_word, base)
    report = check_shape(out, LevelShape(prob.ideal), eng.congruence_oracle())
    assert report.ok


def test_patch_glues_crafted_cover():
    base, prob, g_word = crafted_problem()
    out, rec = patch(prob)
    # collection merges x_a(3X/2)^2 into x_a(3X): the data are integral
    assert rec.details["exponents"] == [0, 0]
    assert rec.details["coefficients"] == ["0", "1"]
    assert out == g_word
    _check_glued(base, prob, g_word, out, rec)


def test_patch_glues_interleaved_crafted_cover():
    base, prob, g_word = crafted_problem(interleaved=True)
    out, rec = patch(prob)
    assert rec.details["exponents"] == [9, 9]
    assert rec.details["coefficients"] == ["-7804", "203"]
    # the coefficients really partition 1 across the powered cover
    assert -7804 * 2**9 + 203 * 3**9 == 1
    # the pinned words alternate x_a and x_c, which commute, so every
    # x_a merges into the first one and every x_c into the first x_c
    assert out == g_word
    _check_glued(base, prob, g_word, out, rec)


def ladder_problem(n):
    # the first n generators of the A2 word a, b, a, b, -a, -b with
    # arguments 3c*X, c = 1, 5, 7, 11, 5, 7, lifted to R_2 and R_3
    base = Ring(0, ("X",))
    x = base.var("X")
    roots = (A, B, A, B, tuple(-v for v in A), tuple(-v for v in B))
    g_word = Prod(tuple(
        Gen(r, base.int_(3 * c) * x) for r, c in zip(roots[:n], (1, 5, 7, 11, 5, 7))
    ))
    data = tuple(LocalDatum(s, lift(g_word, base.localize_at(s))) for s in (2, 3))
    return base, PatchProblem("A2", base, IdealSpec.gens(base, 3), data, "X"), g_word


def test_patch_glues_the_length_five_ladder_word_to_five_generators():
    # the pinned words write x_d(p) as the pair x_b(-q) * Conj(x_b(q), x_c(1))
    # with b + c = d; written as its Chevalley expansion the pair is one
    # generator again (with collection alone the glued word had 14)
    base, prob, g_word = ladder_problem(5)
    out, rec = patch(prob)
    assert len(flatten(out)) <= 5
    _check_glued(base, prob, g_word, out, rec)


def test_patch_keeps_the_ninth_power_rewrite_of_the_length_five_word_short(monkeypatch):
    # conjugation_normalize shortens its state between peels, so the second
    # dilation's ninth-power rewrite returns 61 generators; with the state
    # collected only after the last peel it returned 152
    base, prob, g_word = ladder_problem(5)
    sizes = []

    def spy(eng, w, k_spec, var):
        out, shapes, details = ninth_power_rewrite(eng, w, k_spec, var)
        sizes.append(len(flatten(out)))
        return out, shapes, details

    monkeypatch.setattr(lgp, "ninth_power_rewrite", spy)
    out, rec = patch(prob)
    assert len(sizes) == 2
    assert sizes[1] <= 80
    _check_glued(base, prob, g_word, out, rec)


def test_patch_collects_the_overlap_word_at_the_seam(monkeypatch):
    # the A2 chain a, a, b, -a with c = 1, 5, 7, 11, lifted to R_2 and R_3.
    # The u2 overlap word ends the inverted datum at x_a(-3X*u1) and starts
    # the datum at x_a(3X*(u1 + u2)); they merge into x_a(3X*u2).
    base = Ring(0, ("X",))
    x = base.var("X")
    roots = (A, A, B, tuple(-v for v in A))
    g_word = Prod(tuple(Gen(r, base.int_(3 * c) * x) for r, c in zip(roots, (1, 5, 7, 11))))
    data = tuple(LocalDatum(s, lift(g_word, base.localize_at(s))) for s in (2, 3))
    prob = PatchProblem("A2", base, IdealSpec.gens(base, 3), data, "X")
    seen = {}

    def spy(eng, w, i_spec, var):
        seen[var] = w
        return pullback(eng, w, i_spec, var)

    monkeypatch.setattr(lgp, "pullback", spy)
    out, rec = patch(prob)
    overlap = seen["u2"].factors
    assert all(isinstance(f, Gen) for f in overlap)
    assert all(f.root != g.root for f, g in zip(overlap, overlap[1:]))
    eng = RewriteEngine("A2", base)
    for rep in eng.reps:
        assert rep.words_equal(out, g_word, base)
    assert check_shape(out, LevelShape(prob.ideal), eng.congruence_oracle()).ok
    # with the seam pair left as two generators the glued word had 13
    assert len(flatten(out)) < 13


def test_patch_collects_the_first_datum(monkeypatch):
    # the R_2 datum writes x_a(9X) as x_a(3X) * x_a(6X); the first dilation
    # receives them merged into x_a(9X*u1)
    base = Ring(0, ("X",))
    l2, l3 = base.localize_at(2), base.localize_at(3)
    d1 = Prod((Gen(A, l2.parse("3*X")), Gen(A, l2.parse("6*X")), Gen(C, l2.parse("3*X"))))
    d2 = Prod((Gen(A, l3.parse("9*X")), Gen(C, l3.parse("3*X"))))
    prob = PatchProblem("A2", base, IdealSpec.gens(base, 3),
                        (LocalDatum(2, d1), LocalDatum(3, d2)), "X")
    g_word = Prod((Gen(A, base.parse("9*X")), Gen(C, base.parse("3*X"))))
    seen = {}

    def spy(eng, w, i_spec, var):
        seen[var] = w
        return pullback(eng, w, i_spec, var)

    monkeypatch.setattr(lgp, "pullback", spy)
    out, rec = patch(prob)
    first = seen["u1"]
    loc = first.factors[0].arg.ring
    assert first == Prod((Gen(A, loc.parse("9*X*u1")), Gen(C, loc.parse("3*X*u1"))))
    _check_glued(base, prob, g_word, out, rec)


@pytest.mark.parametrize("interleaved", [False, True])
def test_patch_runs_no_congruence_check(monkeypatch, interleaved):
    # patch tests each datum at X = 0 through the retraction X -> 0, and
    # every generator of the crafted data vanishes there, so no congruence
    # check runs; the dilations and their splits add none of their own.
    # patch composes the unchecked dilation builder, so `finish` runs once
    # in patch and once per dilation, on its ninth-power rewrite
    calls = []
    original = rewrite.congruence_check
    ops = collections.Counter()
    finish = RewriteEngine.finish

    def counting(m, spec):
        calls.append(spec)
        return original(m, spec)

    def finishing(self, op, *args, **kwargs):
        ops[op] += 1
        return finish(self, op, *args, **kwargs)

    monkeypatch.setattr(rewrite, "congruence_check", counting)
    monkeypatch.setattr(RewriteEngine, "finish", finishing)
    patch(crafted_problem(interleaved)[1])
    assert calls == []
    assert ops == {"patch": 1, "for_dilation": 2}


@pytest.mark.parametrize("interleaved", [False, True])
def test_patch_checks_each_shape_once(monkeypatch, interleaved):
    # over k = 2 data: each datum's LevelShape gate and the RelConjShape of
    # its dilation's ninth-power rewrite, then the glued word's LevelShape;
    # the dilations gate nothing, since each word they receive is a ring-map
    # image of a gated datum
    shapes = []

    def counted(word, shape, oracle):
        shapes.append(type(shape).__name__)
        return check_shape(word, shape, oracle)

    monkeypatch.setattr(rewrite, "check_shape", counted)
    patch(crafted_problem(interleaved)[1])
    assert shapes == ["LevelShape"] * 2 + ["RelConjShape"] * 2 + ["LevelShape"]


def test_patch_reproduces_random_integral_words():
    rng = random.Random(11)
    base = Ring(0, ("X",))
    roots = [A, B, C, tuple(-x for x in A), tuple(-x for x in B), tuple(-x for x in C)]
    eng = RewriteEngine("A2", base)
    for _ in range(3):
        factors = []
        for _ in range(2):
            c = rng.randrange(-3, 4)
            arg = base.int_(3) * base.var("X")
            factors.append(Gen(rng.choice(roots), arg * base.int_(c) if c else arg))
        g_word = Prod(tuple(factors))
        data = []
        for s in (2, 3):
            loc = base.localize_at(s)
            data.append(LocalDatum(s, lift(g_word, loc)))
        out, rec = patch(PatchProblem("A2", base, IdealSpec.gens(base, 3), tuple(data), "X"))
        for rep in eng.reps:
            assert rep.words_equal(out, g_word, base)


def test_patch_single_chart_at_unit():
    base = Ring(0, ("X",))
    loc = base.localize_at(1)
    d = Prod((Gen(A, loc.parse("3*X")),))
    out, rec = patch(PatchProblem("A2", base, IdealSpec.gens(base, 3), (LocalDatum(1, d),), "X"))
    assert rec.details["exponents"] == [0]
    g = Prod((Gen(A, base.parse("3*X")),))
    for rep in RewriteEngine("A2", base).reps:
        assert rep.words_equal(out, g, base)


def test_patch_surfaces_inconsistent_data():
    # the data disagree over Z[X][1/6], so they are the images of no one
    # element; the overlap gate refuses them before any dilation
    base = Ring(0, ("X",))
    l2, l3 = base.localize_at(2), base.localize_at(3)
    prob = PatchProblem("A2", base, IdealSpec.gens(base, 3), (
        LocalDatum(2, Prod((Gen(A, l2.parse("3*X")),))),
        LocalDatum(3, Prod((Gen(A, l3.parse("6*X")),))),
    ), "X")
    over_6 = r"local data 1 and 2 disagree over Z\[X\]\[1/\(6\)\]"
    with pytest.raises(InconsistentData, match=over_6) as e:
        patch(prob)
    assert e.value.exit_code == 20
    # the first pair that disagrees is named
    with pytest.raises(InconsistentData, match="local data 1 and 3 disagree"):
        patch(_single_root_data(base, (2, 3, 5), (A, A, B)))


def _single_root_data(base, cover, roots):
    data = []
    for s, root in zip(cover, roots):
        loc = base.localize_at(s)
        data.append(LocalDatum(s, Prod((Gen(root, loc.parse("3*X")),))))
    return PatchProblem("A2", base, IdealSpec.gens(base, 3), tuple(data), "X")


def test_patch_skips_an_overlap_that_is_the_zero_ring():
    # over Z/6, 2 * 3 = 0: Z/6[X][1/2] and Z/6[X][1/3] have no common
    # localization to compare in, and the pair agrees there trivially
    out, _ = patch(_single_root_data(Ring(6, ("X",)), (2, 3), (A, A)))
    assert out == Prod((Gen(A, Ring(6, ("X",)).parse("3*X")),))


@pytest.mark.parametrize("mod, cover, roots, exponents, glued", [
    (9, (2, 3), (A, A), [0, 2], "(prod (x 1,-1,0 {3*X}))"),
    (4, (3, 2), (A, A), [0, 2], "(prod (x 1,-1,0 {3*X}))"),
    (10, (2, 5), (A, B), [1, 1], "(prod (x 1,-1,0 {8*X}) (x 0,1,-1 {5*X}))"),
])
def test_patch_glues_when_a_cover_element_divides_zero(mod, cover, roots, exponents, glued):
    # Z/9[1/3] and Z/4[1/2] are zero rings, and Z/10 is Z/5 x Z/2 with
    # x_a(3X) on the first factor and x_b(3X) on the second (the CRT
    # word x_a(8X) x_b(5X)).  Each pullback is pinned at its torsion bound
    # or above, so a powered cover element vanishes on the factor its
    # localization kills, and the unit combination weighs each datum
    # where it lives
    base = Ring(mod, ("X",))
    out, rec = patch(_single_root_data(base, cover, roots))
    assert (word_to_text(out), rec.details["exponents"]) == (glued, exponents)
    assert [base.localize_at(s).torsion_bound() for s in cover] == exponents


def test_the_overlap_gate_evaluates_nothing_on_lifts_of_one_word(monkeypatch):
    # data lifted from one global word map to the same word over each
    # overlap, so `equal` decides the pair without the oracle
    evaluated = []
    evaluate = Representation.evaluate_word
    gate = lgp._check_overlaps

    def counting(self, w, ring):
        evaluated.append(w)
        return evaluate(self, w, ring)

    def counted_gate(*args):
        with monkeypatch.context() as m:
            m.setattr(Representation, "evaluate_word", counting)
            gate(*args)

    monkeypatch.setattr(lgp, "_check_overlaps", counted_gate)
    base = Ring(0, ("X",))
    g_word = Prod((Gen(A, base.parse("3*X")), Gen(C, base.parse("-3*X"))))
    data = tuple(LocalDatum(s, lift(g_word, base.localize_at(s))) for s in (2, 3))
    patch(PatchProblem("A2", base, IdealSpec.gens(base, 3), data, "X"))
    assert evaluated == []
    # the crafted data are different words, so their pair is evaluated
    patch(crafted_problem()[1])
    assert evaluated


def test_patch_rejections():
    base, prob, _ = crafted_problem()
    l2 = base.localize_at(2)
    I3 = IdealSpec.gens(base, 3)
    with pytest.raises(NotUnimodular):
        patch(PatchProblem("A2", base, I3, (), "X"))
    with pytest.raises(LocalizationMismatch):
        patch(PatchProblem("A2", l2, IdealSpec.gens(l2, 3),
                           (LocalDatum(2, Prod((Gen(A, l2.parse("3*X")),))),), "X"))
    with pytest.raises(NotUnimodular):
        patch(PatchProblem("A2", base, I3, (
            LocalDatum(2, Prod((Gen(A, l2.parse("3*X")),))),
            LocalDatum(4, Prod((Gen(A, base.localize_at(4).parse("3*X")),))),
        ), "X"))
    with pytest.raises(NodeBudgetExceeded):
        patch(prob, node_budget=2)
    # every step is checked; the keyword stays only to accept verify=True
    with pytest.raises(ValueError):
        patch(prob, verify=False)
    with pytest.raises(CongruenceFailed):
        patch(PatchProblem("A2", base, I3, (LocalDatum(2, Prod((Gen(A, l2.int_(3)),))),), "X"))
    # a second datum's overlap word is trivial at u2 = 0 whatever the datum,
    # so only patch's own check refuses it
    with pytest.raises(CongruenceFailed):
        patch(PatchProblem("A2", base, I3, (
            LocalDatum(2, Prod((Gen(A, l2.parse("3*X")),))),
            LocalDatum(3, Prod((Gen(A, base.localize_at(3).parse("3*X + 3")),))),
        ), "X"))
    with pytest.raises(ConditionViolated):
        patch(PatchProblem("A2", base, I3, (LocalDatum(2, Prod((Gen(A, l2.parse("X")),))),), "X"))
    with pytest.raises(LocalizationMismatch):
        patch(PatchProblem("A2", base, I3, (LocalDatum(2, Prod((Gen(A, base.parse("3*X")),))),), "X"))
    with pytest.raises(NotSplittingIdeal):
        patch(PatchProblem("A2", base, I3, (LocalDatum(2, Prod((Gen(A, l2.parse("3*X")),))),), "Y"))
    # X -> 0 is no retraction of a ring localized at an element involving X
    s_x = base.parse("X + 1")
    lx = base.localize_at(s_x)
    with pytest.raises(NotSplittingIdeal):
        patch(PatchProblem("A2", base, I3, (LocalDatum(s_x, Prod((Gen(A, lx.parse("3*X")),))),), "X"))
    other = Ring(0, ("Y",))
    with pytest.raises(SubstitutionMismatch):
        patch(PatchProblem("A2", base, IdealSpec.gens(other, 3),
                           (LocalDatum(2, Prod((Gen(A, l2.parse("3*X")),))),), "X"))
    z = Ring.integers()
    with pytest.raises(NotSplittingIdeal, match="no variable to glue along"):
        patch(PatchProblem("A2", z, IdealSpec.gens(z, 3), (LocalDatum(1, EMPTY),)))


# ----- shorten -----


SHORTEN_RINGS = {
    "Z[t]": Ring.integers().extend("t"),
    "Z[1/2][t]": Ring.integers().extend("t").localize_at(2),
    "Z/9[t]": Ring.integers_mod(9).extend("t"),
}


def _neg(r):
    return tuple(-x for x in r)


def planted_level_word(eng, rng, level_args, args):
    """A product at the level of `level_args` that plants what `shorten`
    rewrites among wordgen level words: written-out pairs
    x_b(p) * Conj(x_b(-p), x_c(u)), Comm nodes of two generators in either
    orientation, and runs x_a x_b x_a, with a and b commuting half of the
    time.  The roots b and c are drawn freely, so c = b and c = -b occur
    too."""
    rs = eng.rs
    roots = sorted(rs.roots)
    commuting = [
        (a, b) for a in roots for b in roots
        if a != b and b != _neg(a) and not eng.sc.comm_coeffs(a, b)
    ]
    factors = []
    for _ in range(4):
        kind = rng.randrange(4)
        b, c = rng.choice(roots), rng.choice(roots)
        p, u = rng.choice(level_args), rng.choice(args)
        if kind == 0:
            factors.append(random_level_word(rs, eng.ring, rng, level_args, args,
                                             depth=2, roots=roots[:3]))
        elif kind == 1:
            factors += [Gen(b, p), Conj(Gen(b, -p), Gen(c, u))]
        elif kind == 2:
            pair = (Gen(b, p), Gen(c, u))
            factors.append(Comm(*pair) if rng.random() < 0.5 else Comm(*reversed(pair)))
        else:
            a = c
            if rng.random() < 0.5:
                a, b = rng.choice(commuting)
            factors += [Gen(a, p), Gen(b, rng.choice(level_args)), Gen(a, rng.choice(level_args))]
    return Prod(tuple(factors))


@pytest.mark.parametrize("ring_name", sorted(SHORTEN_RINGS))
@pytest.mark.parametrize("label", ("A2", "C2", "G2", "B3"))
def test_shorten_keeps_the_element_and_the_level_shape(label, ring_name):
    ring = SHORTEN_RINGS[ring_name]
    eng = RewriteEngine(label, ring)
    oracle = eng.congruence_oracle()
    ideal = IdealSpec.gens(ring, 3)
    t = ring.var("t")
    args = [ring.zero(), t, -t, ring.one(), 2 * t]
    if ring.loc_num is not None:
        args.append(t * ring.s_power(1))
    level_args = [3 * a for a in args]
    fell = []

    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        w = planted_level_word(eng, random.Random(seed), level_args, args)
        assert check_shape(w, LevelShape(ideal), oracle).ok
        out = eng.shorten(w)
        assert eng.equal(out, w)
        for rep in eng.reps:
            assert dense_evaluate(rep, out, ring) == rep.evaluate_word(w, ring)
        assert len(flatten(out)) <= len(flatten(w))
        assert node_count(out) <= node_count(w)
        assert eng.shorten(out) == out
        assert check_shape(out, LevelShape(ideal), oracle).ok
        fell.append(len(flatten(out)) < len(flatten(collect(w))))

    check()
    # the planted pairs, commutators and runs do shorten beyond collect
    assert any(fell)
