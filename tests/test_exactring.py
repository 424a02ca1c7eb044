import collections
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from chevcalc import exactring
from chevcalc.chevrep import RepMatrix
from chevcalc.errors import (
    NotInIdeal,
    OracleMismatch,
    ParseError,
    SubstitutionMismatch,
    UndecidableIdealClass,
    UnsupportedRing,
)
from chevcalc.exactring import (
    IdealSpec,
    Ring,
    _poly_add,
    _poly_divide,
    _poly_mul,
)


def witnessed(spec, x):
    """Does spec.witness(x) return pairs whose sum, through element_for_tag,
    is x?"""
    total = spec.ring.zero()
    for coeff, tag in spec.witness(x):
        total = total + coeff * spec.element_for_tag(tag)
    return total == spec.ring.coerce(x)


def random_element(ring, rng, max_deg=3, terms=4, coeff=9):
    nvars = len(ring.var_names)
    el = ring.zero()
    for _ in range(rng.randrange(terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        c = rng.randrange(-coeff, coeff + 1)
        mono = ring.int_(c)
        for name, k in zip(ring.var_names, e):
            mono = mono * ring.var(name) ** k
        el = el + mono
    return el


def test_basic_arithmetic():
    ring = Ring.integers().extend("t", "u")
    t, u = ring.var("t"), ring.var("u")
    p = (t + u) * (t - u)
    assert p == t * t - u * u
    assert str(t**2 - u**2 + 1) == "t^2 - u^2 + 1"
    assert (2 * t + 3) - (2 * t + 3) == 0
    assert ring.int_(0).is_zero()
    assert not (t * 0 + 5).is_zero()
    assert (t + 1) ** 3 == t**3 + 3 * t**2 + 3 * t + 1


def test_mod_reduction():
    ring = Ring.integers_mod(6).extend("t")
    t = ring.var("t")
    assert 3 * t + 3 * t == 0
    assert (2 * t + 5) * 3 == 3
    assert str(ring.int_(-1)) == "5"


def test_ring_axioms_random():
    rng = random.Random(20260815)
    for base in (0, 6, 9):
        ring = Ring(base).extend("t", "u")
        for _ in range(40):
            a = random_element(ring, rng)
            b = random_element(ring, rng)
            c = random_element(ring, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a - a == 0


def test_parse_round_trip():
    rng = random.Random(7)
    ring = Ring.integers_mod(11).extend("t", "u")
    for _ in range(30):
        el = random_element(ring, rng)
        assert ring.parse(str(el)) == el
    assert ring.parse("(t + u)^2 - t^2 - u^2") == 2 * ring.var("t") * ring.var("u")
    assert ring.parse("-3*t*u^2") == -3 * ring.var("t") * ring.var("u") ** 2
    with pytest.raises(ParseError):
        ring.parse("t +")
    with pytest.raises(ParseError):
        ring.parse("t ? u")
    with pytest.raises(UnsupportedRing):
        ring.parse("w + 1")


def test_localization_stripping_over_z():
    ring = Ring.integers().extend("t").localize_at(2)
    t = ring.var("t")
    half = ring.s_power(1)
    assert (2 * t) * half == t
    assert (t * half) * 2 == t
    # 1/2 + 1/2 = 1 with the denominator cancelled
    assert half + half == ring.one()
    assert str(t * half) == "t/s"
    assert ring.parse("t/s") == t * half
    assert ring.parse("(t + 1)/s^2") * 4 == t + 1


@pytest.mark.parametrize("text, twice", [
    ("3*X - 3*X/s", "3*X"),
    ("1 - 1/s", "1"),
    ("2 - 1/s", "3"),
    ("X/s - X", "-X"),
    ("-3*X/s + 3*X", "3*X"),
    ("X^2/s^2*4 + 1", "2*X^2 + 2"),
])
def test_parse_divides_terms_by_s(text, twice):
    # over Z[X][1/2], / s divides the term it ends, not the whole text
    ring = Ring.integers().extend("X").localize_at(2)
    assert ring.parse(text) * 2 == ring.parse(twice)


@pytest.mark.parametrize("mod, var_names, s_text", [
    (0, ("t", "X"), "2"),
    (0, ("t", "X"), "t + 1"),
    (0, ("t",), "2"),
    (9, ("t",), "2"),
])
def test_parse_of_divided_terms_matches_sympy(mod, var_names, s_text):
    # a shuffled sum of terms, each with its own /s^k, parses to the element
    # that ring arithmetic builds; sympy reads the same text with s
    # substituted, and its difference from the parse vanishes mod m (2 is
    # a unit mod 9, so the numerator must)
    base = Ring(mod, var_names)
    ring = base.localize_at(base.parse(s_text))
    syms = dict(zip(var_names, sympy.symbols(var_names)))
    s_sym = sympy.sympify(s_text, locals=syms)
    rng = random.Random(len(var_names) * 100 + mod + len(s_text))
    for _ in range(30):
        terms, want = [], ring.zero()
        for _ in range(rng.randrange(1, 5)):
            c, k = rng.randrange(-9, 10), rng.randrange(3)
            exps = [rng.randrange(3) for _ in var_names]
            text = "*".join(["%d" % abs(c)] + ["%s^%d" % (v, e) for v, e in zip(var_names, exps) if e])
            if k:
                text += "/s^%d" % k if k > 1 else "/s"
            terms.append(("-" if c < 0 else "+", text))
            term = ring.int_(c) * ring.s_power(k)
            for v, e in zip(var_names, exps):
                term = term * ring.var(v) ** e
            want = want + term
        rng.shuffle(terms)
        text = " ".join("%s %s" % pair for pair in terms).lstrip("+ ")
        got = ring.parse(text)
        assert got == want
        ref = sympy.sympify(text.replace("^", "**"), locals=dict(syms, s=s_sym))
        ours = sum(
            (c * sympy.Mul(*(syms[v] ** e for v, e in zip(var_names, exp)))
             for exp, c in got.num.items()),
            sympy.Integer(0),
        ) / s_sym ** got.den
        numer = sympy.fraction(sympy.together(ref - ours))[0]
        coeffs = sympy.Poly(numer, *syms.values()).coeffs() if numer != 0 else []
        assert all(int(c) % mod == 0 if mod else c == 0 for c in coeffs)


@pytest.mark.parametrize("localized, text", [
    (True, "X/2"), (True, "X/X"), (True, "X/(s)"), (True, "X/s^"), (True, "X/"),
    (False, "X/s"),
])
def test_parse_divisor_is_s_or_a_power_of_s(localized, text):
    ring = Ring.integers().extend("X")
    with pytest.raises(ParseError):
        (ring.localize_at(2) if localized else ring).parse(text)


def test_zero_ring_when_s_nilpotent():
    ring = Ring.integers_mod(4).localize_at(2)
    # 2 is nilpotent mod 4, so inverting it collapses everything.
    assert ring.one() == ring.zero()
    assert ring.torsion_bound() == 2


def test_mod_m_localization_needs_an_integer_element():
    # equality over Z/m localized at s needs a torsion bound, which only an
    # integer s has; the ring is refused when it is built
    base = Ring(4, ("t",))
    with pytest.raises(UnsupportedRing, match="torsion bound"):
        base.localize_at(base.var("t"))
    loc = base.localize_at(3)
    assert loc.var("t") != loc.one()


def test_localize_at_builds_one_ring_per_element():
    base = Ring(0, ("t",))
    loc = base.localize_at(2)
    assert base.localize_at(base.int_(2)) is loc
    at_t = base.localize_at(base.parse("t + 3"))
    assert base.localize_at(base.var("t") + 3) is at_t
    assert at_t is not loc and at_t != loc
    assert base.localize_at(3) != loc
    # an equal base keeps its own localizations, equal to these
    other = Ring(0, ("t",))
    assert other.localize_at(2) is not loc and other.localize_at(2) == loc
    assert Ring(0, ("u",)).localize_at(2) != loc
    assert Ring(5, ("t",)).localize_at(2) != loc
    # a ring built directly with the same parameters is the same ring
    direct = Ring(0, ("t",), {(0,): 2})
    assert direct == loc and hash(direct) == hash(loc)
    x = direct.parse("3*t/s") + loc.parse("t/s")
    assert x == loc.parse("2*t") and loc.parse("2*t") == x
    assert x.ring == direct
    assert (direct.var("t") * loc.s_power(1)) * 2 == loc.var("t")


def test_torsion_equality_against_brute_scan():
    rng = random.Random(99)
    base = Ring.integers_mod(12).extend("t")
    ring = base.localize_at(2)
    bound = ring.torsion_bound()
    assert bound == 2
    s = ring.loc_element()
    for _ in range(60):
        a = random_element(ring, rng, max_deg=2, coeff=11)
        b = random_element(ring, rng, max_deg=2, coeff=11)
        d = a - b
        brute = False
        power = d
        for _ in range(9):
            if not power.num:
                brute = True
                break
            power = power * s
        assert (a == b) == brute
        assert (d.is_zero()) == brute


def test_invertibility():
    cases = [
        (Ring.integers(), 2, False),
        (Ring.integers(), -1, True),
        (Ring.integers().localize_at(6), 4, True),
        (Ring.integers().localize_at(6), 5, False),
        (Ring.integers_mod(9), 2, True),
        (Ring.integers_mod(9), 3, False),
        (Ring.integers_mod(12).localize_at(2), 8, True),
        (Ring.integers_mod(12).localize_at(2), 3, False),
        (Ring.integers().extend("t").localize_at(Ring.integers().extend("t").parse("2*t")), 4, True),
    ]
    for ring, n, expected in cases:
        assert ring.n_invertible(n) == expected, (ring, n)
        if expected:
            assert ring.inverse_of_int(n) * n == ring.one()
        else:
            with pytest.raises(UnsupportedRing):
                ring.inverse_of_int(n)


def test_no_f2_residue():
    zt = Ring.integers().extend("t")
    assert not Ring.integers().no_f2_residue()
    assert Ring.integers_mod(3).no_f2_residue()
    assert not Ring.integers_mod(6).no_f2_residue()
    assert Ring.integers().localize_at(2).no_f2_residue()
    assert Ring.integers_mod(4).localize_at(2).no_f2_residue()
    assert not zt.localize_at(zt.var("t")).no_f2_residue()
    # t^2 + t vanishes at every F2 point, so no F2 residue survives.
    assert zt.localize_at(zt.parse("t^2 + t")).no_f2_residue()
    assert not zt.localize_at(zt.parse("t^2 + t + 3")).no_f2_residue()


def test_divide_exact_random():
    rng = random.Random(5)
    ring = Ring.integers().extend("t", "u")
    found = 0
    for _ in range(60):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        if b.is_zero():
            continue
        q = (a * b).divide_exact(b)
        assert q == a
        if not a.is_zero() and any(any(e) for e in b.num):
            assert (a * b + 1).divide_exact(b) is None
            found += 1
    assert found > 20


def test_substitution_composes_with_evaluation():
    rng = random.Random(13)
    src = Ring.integers().extend("t", "u")
    dst = Ring.integers().extend("v")
    plain = Ring.integers()
    for _ in range(25):
        el = random_element(src, rng)
        p = random_element(dst, rng)
        q = random_element(dst, rng)
        via_dst = el.substitute({"t": p, "u": q}, dst)
        x0 = rng.randrange(-4, 5)
        lhs = via_dst.substitute({"v": plain.int_(x0)}, plain)
        rhs = el.substitute(
            {
                "t": p.substitute({"v": plain.int_(x0)}, plain),
                "u": q.substitute({"v": plain.int_(x0)}, plain),
            },
            plain,
        )
        assert lhs == rhs


def test_substitution_base_change_and_errors():
    src = Ring.integers().extend("t")
    dst = Ring.integers_mod(6).extend("t")
    el = src.parse("7*t + 8")
    assert el.substitute({"t": dst.var("t")}, dst) == dst.parse("t + 2")
    with pytest.raises(SubstitutionMismatch):
        el.substitute({}, dst)
    with pytest.raises(SubstitutionMismatch):
        el.substitute({"nope": dst.var("t")}, dst)
    modsrc = Ring.integers_mod(6)
    with pytest.raises(SubstitutionMismatch):
        modsrc.int_(2).substitute({}, Ring.integers())
    with pytest.raises(SubstitutionMismatch):
        modsrc.int_(2).substitute({}, Ring.integers_mod(4))
    assert modsrc.int_(5).substitute({}, Ring.integers_mod(3)) == 2


def test_substitution_clears_denominators():
    ring = Ring.integers().extend("t").localize_at(2)
    x = ring.parse("t/s")
    dst = Ring.integers().extend("v")
    assert x.substitute({"t": 2 * dst.var("v")}, dst) == dst.var("v")
    with pytest.raises(SubstitutionMismatch):
        x.substitute({"t": dst.var("v")}, dst)
    # Same localization on the target keeps the denominator.
    same = Ring.integers().extend("v").localize_at(2)
    img = x.substitute({"t": same.var("v")}, same)
    assert img * 2 == same.var("v")
    inv_target = Ring.integers_mod(9)
    assert x.substitute({"t": inv_target.int_(1)}, inv_target) == inv_target.int_(5)
    # 2 is no image of s in Z[t][1/6], but it is invertible there: t/s
    # becomes 3t/s
    sixth = Ring.integers().extend("t").localize_at(6)
    img = x.substitute({"t": sixth.var("t")}, sixth)
    assert img == sixth.parse("3*t/s")
    assert img * 2 == sixth.var("t")


@pytest.mark.parametrize(
    "image, error",
    [(Ring.integers().extend("u").var("u"), SubstitutionMismatch), (0.5, TypeError)],
    ids=["foreign-ring", "float"],
)
def test_prepared_substitution_stores_a_bad_image_error(image, error):
    # preparing keeps the coercion error; applying the map raises it on
    # every element, and not before
    src = Ring.integers().extend("t")
    sub = src.substitution({"t": image}, src)
    for el in (src.var("t"), src.int_(3)):
        with pytest.raises(error):
            sub(el)


def test_ideal_membership_frozen_cases():
    zt = Ring.integers().extend("t")
    t = zt.var("t")
    spec = IdealSpec.gens(zt, 2 * t, t**2)
    assert not spec.contains(t)
    assert spec.contains(2 * t + t**3)
    assert witnessed(spec, 2 * t + t**3)

    z = Ring.integers()
    assert IdealSpec.gens(z, 2, 3).contains(1)
    assert IdealSpec.gens(z, 4, 6).contains(2)
    assert not IdealSpec.gens(z, 4, 6).contains(1)

    spec2 = IdealSpec.gens(zt, 2, t)
    assert spec2.contains(t + 4)
    assert not spec2.contains(zt.one())

    principal = IdealSpec.gens(zt, t**2 + 1)
    assert principal.contains((t**2 + 1) * (t - 3))
    assert not principal.contains(t**4)
    assert witnessed(principal, (t**2 + 1) * (t - 3))

    with pytest.raises(UndecidableIdealClass):
        IdealSpec.gens(zt, t + 1, t - 1).contains(2)
    with pytest.raises(NotInIdeal):
        spec2.witness(zt.one())


def test_ideal_membership_saturation():
    loc = Ring.integers().extend("t").localize_at(2)
    t = loc.var("t")
    spec = IdealSpec.gens(loc, 2 * t)
    assert spec.contains(t)
    assert witnessed(spec, t)

    mod = Ring.integers_mod(12).extend("t").localize_at(2)
    tm = mod.var("t")
    spec_m = IdealSpec.gens(mod, 3 * tm)
    assert spec_m.contains(6 * tm)
    assert witnessed(spec_m, 6 * tm)
    assert not spec_m.contains(tm)
    assert not spec_m.contains(4 * tm)

    # Saturation through a monomial localization element.
    loct = Ring.integers().extend("t", "u").localize_at(
        Ring.integers().extend("t", "u").parse("2*t")
    )
    tt, uu = loct.var("t"), loct.var("u")
    spec_t = IdealSpec.gens(loct, 4 * tt**2 * uu)
    assert spec_t.contains(uu)
    assert witnessed(spec_t, uu)
    assert not spec_t.contains(3)


def test_ideal_membership_torsion():
    # Mod 12 with 2 inverted behaves like Z/3.
    mod = Ring.integers_mod(12).localize_at(2)
    spec = IdealSpec.gens(mod, 3)
    assert spec.contains(9)
    assert spec.contains(4 * 3)
    assert not spec.contains(2)
    assert witnessed(spec, 6)


def test_ideal_closure_under_random_combinations():
    rng = random.Random(31)
    ring = Ring.integers_mod(8).extend("t", "u")
    t, u = ring.var("t"), ring.var("u")
    spec = IdealSpec.gens(ring, 2 * t, u**2, 4)
    for _ in range(40):
        combo = ring.zero()
        for g in spec.expand():
            combo = combo + random_element(ring, rng, max_deg=2) * g
        assert spec.contains(combo)
        assert witnessed(spec, combo)


def test_sym_power_and_products():
    ring = Ring.integers().extend("x", "y")
    x, y = ring.var("x"), ring.var("y")
    j = IdealSpec.gens(ring, x, y)
    sq = j.sym_power(2)
    gens = sq.expand()
    assert [str(g) for g in gens] == ["x^2", "y^2", "2*x*y"]
    assert sq.contains(x**2 + 2 * x * y)
    assert not sq.contains(x * y)
    # Squares of arbitrary members of J land in the expansion.
    rng = random.Random(3)
    for _ in range(20):
        a = random_element(ring, rng, max_deg=2)
        b = random_element(ring, rng, max_deg=2)
        member = (a * x + b * y) ** 2
        assert sq.contains(member)
        assert witnessed(sq, member)

    i = IdealSpec.gens(ring, 2)
    prod = i.product(j)
    assert prod.contains(6 * y)
    assert not prod.contains(x)
    assert witnessed(prod, 6 * y + 2 * x)
    with pytest.raises(UnsupportedRing):
        j.sym_power(3)


def test_ideal_substitute_keeps_structure():
    ring = Ring.integers().extend("t")
    spec = IdealSpec.gens(ring, 3).product(IdealSpec.gens(ring, ring.var("t")))
    dst = Ring.integers().extend("u")
    moved = spec.substitute({"t": dst.var("u") ** 2}, dst)
    assert moved.kind == "product"
    assert [str(g) for g in moved.expand()] == ["3*u^2"]


# ----- contains against its reference -----


_ZT = Ring(0, ("t",))
CONTAINS_RINGS = {
    "Z[t]": _ZT,
    "Z[1/2][t]": _ZT.localize_at(2),
    "Z/9[t]": Ring(9, ("t",)),
    "Z[t][1/(t+3)]": _ZT.localize_at(_ZT.parse("t + 3")),
}


def _contains_ideals(ring):
    """Single-term generator sets (with products, squares and sums of
    them), principal ideals and a two-generator class with no complete
    test."""

    def gens(*texts):
        return IdealSpec.gens(ring, *(ring.parse(x) for x in texts))

    return (
        gens("3"),
        gens("t"),
        gens("2*t"),
        gens("3", "t^2"),
        gens("6*t", "9"),
        gens("3").product(gens("t")),
        gens("3", "t").sym_power(2),
        gens("3").sum_with(gens("t^2")),
        gens("t + 1"),
        gens("3*t + 3"),
        gens("t^2 + 2"),
        gens("t + 1", "3"),
    )


def _by_witness(spec, x):
    """The reference: witness x, then rebuild it from the witness; a
    refusal is False, an undecidable class is the error type."""
    try:
        rebuilt = witnessed(spec, x)
    except NotInIdeal:
        return False
    except UndecidableIdealClass:
        return UndecidableIdealClass
    assert rebuilt
    return True


def _by_contains(spec, x):
    try:
        return spec.contains(x)
    except UndecidableIdealClass:
        return UndecidableIdealClass


def _witness_form(spec, x):
    """spec.witness(x) as comparable data: the exception type, or the
    pairs in order as (tag, coefficient num, coefficient den)."""
    try:
        pairs = spec.witness(x)
    except (NotInIdeal, UndecidableIdealClass) as e:
        return type(e)
    return [(t, c.num, c.den) for c, t in pairs]


@pytest.mark.parametrize("ring_name", sorted(CONTAINS_RINGS))
def test_contains_matches_witness_then_reconstruction(ring_name):
    # x is a random element, or a combination of the ideal's generators
    # so that members are common; denominators over the localized rings
    ring = CONTAINS_RINGS[ring_name]
    ideals = _contains_ideals(ring)
    t = ring.var("t")
    den = st.integers(0, 2) if ring.loc_num is not None else st.just(0)
    term = st.builds(
        lambda c, e, k: ring.int_(c) * t**e * ring.s_power(k),
        st.integers(-9, 9),
        st.integers(0, 3),
        den,
    )
    poly = st.lists(term, max_size=3).map(lambda ts: sum(ts, ring.zero()))
    seen = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        spec = ideals[data.draw(st.integers(0, len(ideals) - 1))]
        if data.draw(st.booleans()):
            x = data.draw(poly)
        else:
            x = ring.zero()
            for g in spec.expand():
                x = x + data.draw(poly) * g
        want = _by_witness(spec, x)
        assert _by_contains(spec, x) == want
        seen.add(want)
        # every spec reused across examples keeps its prepared membership
        # data; a newly built equal spec must give the same witness of x
        for warm, fresh in zip(ideals, _contains_ideals(ring)):
            assert fresh._membership is None
            assert _witness_form(warm, x) == _witness_form(fresh, x)
            assert warm._membership is not None

    check()
    # over the multi-term s = t + 3 the single-term classes (3), (t) and
    # (2t) are decided, since s divides no zero modulo them
    assert seen == {True, False, UndecidableIdealClass}


def _sympy_member(g, x):
    """Does the one-term g divide the numerator of x in Z[t]?  sympy's
    division over QQ leaves no remainder and an integral quotient."""
    if not x.num:
        return True
    t = sympy.Symbol("t")
    (q,), r = sympy.reduced(_sym_poly(x.num, (t,)), [_sym_poly(g.num, (t,))], t, domain=sympy.QQ)
    return r == 0 and all(c.is_integer for c in sympy.Poly(q, t).coeffs())


def test_contains_over_a_multi_term_s_matches_sympy():
    # over Z[t] localized at s = t + 3, s divides no zero modulo (3), (t)
    # or (2t): s at t = 0 is 3, prime to 1 and 2, and (3) has no variable.
    # So x = num/s^k lies in the ideal exactly when num does, in Z[t],
    # and contains decides, True or False.  Modulo (3, t^2) the prime
    # (3, t) holds s and t*s = t^2 + 3t is in the ideal, so t = t*s/s is
    # a member that the per-term test on t misses: that class stays
    # undecided
    ring = CONTAINS_RINGS["Z[t][1/(t+3)]"]
    rng = random.Random("multi-term-s")
    verdicts = collections.Counter()
    for text in ("3", "t", "2*t"):
        spec = IdealSpec.gens(ring, ring.parse(text))
        [g] = spec.expand()
        for _ in range(40):
            x = random_element(ring, rng, terms=2) * g ** rng.randrange(2)
            x = x * ring.s_power(rng.randrange(3))
            want = _sympy_member(g, x)
            assert spec.contains(x) == want, (text, x)
            verdicts[want] += 1
    assert verdicts[True] and verdicts[False]
    spec = IdealSpec.gens(ring, ring.parse("3"), ring.parse("t^2"))
    assert ring.parse("(t^2 + 3*t)/s") == ring.var("t")
    with pytest.raises(UndecidableIdealClass):
        spec.contains(ring.var("t"))


@pytest.mark.parametrize("ring", [
    _ZT,
    _ZT.localize_at(2),
    Ring(9, ("t",)),
    Ring(12, ("t",)).localize_at(2),
], ids=str)
def test_a_wrong_witness_fails_its_reconstruction(monkeypatch, ring):
    # the sum c*g over a witness is checked against x in ring arithmetic,
    # independently of how the coefficients were found: a witness with
    # one coefficient doubled is refused, and contains does not read the
    # refusal as a verdict
    spec = IdealSpec.gens(ring, ring.parse("3"), ring.parse("t^2"))
    x = ring.parse("3*t + t^3")
    assert spec.contains(x)
    build = IdealSpec._witness_single_terms

    def doubled(self, x, singles):
        (c, t), *rest = build(self, x, singles)
        return ((c * 2, t), *rest)

    monkeypatch.setattr(IdealSpec, "_witness_single_terms", doubled)
    with pytest.raises(OracleMismatch, match="witness reconstruction failed"):
        spec.witness(x)
    with pytest.raises(OracleMismatch, match="witness reconstruction failed"):
        spec.contains(x)


def test_element_for_tag_reads_every_expanded_tag():
    # zero generators keep their tags, though no witness names them; an
    # unknown tag is a KeyError before and after a membership test
    ring = Ring(0, ("t",))
    spec = IdealSpec.gens(ring, 3, 0).product(IdealSpec.gens(ring, ring.var("t")))
    for used in (False, True):
        if used:
            assert spec.contains(ring.parse("6*t"))
        assert [spec.element_for_tag(t) for _, t in spec.expand_tagged()] == list(spec.expand())
        with pytest.raises(KeyError, match="not in spec"):
            spec.element_for_tag(("g", 0))


# ----- equality by stored forms -----


_ZTX = Ring(0, ("t", "X"))
STORED_FORM_RINGS = {
    "Z[t,X]": _ZTX,
    "Z[1/2][t]": _ZT.localize_at(2),
    "Z[t][1/(t+3)]": _ZT.localize_at(_ZT.parse("t + 3")),
    "Z/9[t]": Ring(9, ("t",)),
    "Z/9[t][1/2]": Ring(9, ("t",)).localize_at(2),
}


def _sympy_value(x, syms, s_sym):
    """x as a sympy expression, num / s^den."""
    num = sum(
        (c * sympy.Mul(*(v**e for v, e in zip(syms, exp))) for exp, c in x.num.items()),
        sympy.Integer(0),
    )
    return num / s_sym**x.den


def _sympy_equal(a, b):
    """Is a - b zero?  Read from the numerator of the difference of the two
    sympy values, with coefficients taken mod m over Z/m."""
    ring = a.ring
    syms = sympy.symbols(ring.var_names)
    s_sym = sympy.Integer(1)
    if ring.loc_num is not None:
        s_sym = _sympy_value(ring.loc_element(), syms, sympy.Integer(1))
    diff = _sympy_value(a, syms, s_sym) - _sympy_value(b, syms, s_sym)
    numer = sympy.expand(sympy.fraction(sympy.together(diff))[0])
    if numer == 0:
        return True
    m = ring.base_mod
    return bool(m) and all(int(c) % m == 0 for c in sympy.Poly(numer, *syms).coeffs())


@pytest.mark.parametrize("ring_name", sorted(STORED_FORM_RINGS))
def test_stored_form_equality_matches_subtraction_and_sympy(ring_name):
    # every ring stores each element in one form, so == compares
    # (num, den); subtraction and sympy are the references.  The second
    # element is often the first rebuilt by another route
    ring = STORED_FORM_RINGS[ring_name]
    den = st.integers(0, 2) if ring.loc_num is not None else st.just(0)
    term = st.builds(
        lambda c, exps, k: ring.int_(c) * ring.s_power(k) * math.prod(
            (ring.var(v) ** e for v, e in zip(ring.var_names, exps)), start=ring.one()
        ),
        st.integers(-9, 9),
        st.tuples(*(st.integers(0, 2) for _ in ring.var_names)),
        den,
    )
    poly = st.lists(term, max_size=3).map(lambda ts: sum(ts, ring.zero()))
    s = ring.loc_element() if ring.loc_num is not None else ring.int_(2)
    seen = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        a, c = data.draw(poly), data.draw(poly)
        route = data.draw(st.sampled_from(("other", "shifted", "sum", "scaled")))
        if route == "other":
            b = c
        elif route == "shifted":
            b = a + ring.int_(9)
        elif route == "sum":
            b = (a + c) - c
        elif ring.loc_num is not None:
            b = a * s * ring.s_power(1)
        else:
            b = (a * s).divide_exact(s)
        want = _sympy_equal(a, b)
        assert (a == b) == want == (a - b).is_zero() == (b == a)
        if want:
            assert hash(a) == hash(b)
        seen.add(want)

    check()
    assert seen == {True, False}


@pytest.mark.parametrize("mod, s", [(12, 2), (18, 3), (20, 2), (9, 2), (4, 2), (10, 5)])
def test_equality_is_the_stored_form_against_brute_force(mod, s):
    # over Z/m[t] localized at s, a/s^j = b/s^k exactly when
    # s^N * (a*s^k - b*s^j) = 0 in Z/m[t] for some N, and N = m is past
    # every prime multiplicity of m.  Half the raw pairs are rebuilt from
    # an earlier one: times s over s, or plus a multiple of m/m', which
    # s kills.  Equal elements share their stored form and their hash
    base = Ring(mod, ("t",))
    ring = base.localize_at(s)
    rng = random.Random("brute/%d/%d" % (mod, s))
    raw = []
    for n in range(30):
        if raw and n % 2:
            num, k = rng.choice(raw)
            if rng.random() < 0.5:
                num, k = {e: c * s for e, c in num.items()}, k + 1
            else:
                num, e = dict(num), (rng.randrange(2),)
                num[e] = num.get(e, 0) + mod // ring.mod * rng.randrange(1, 4)
        else:
            num, k = {(e,): rng.randrange(mod) for e in range(rng.randrange(3))}, rng.randrange(3)
        raw.append((num, k))
    elements = [ring._make(dict(num), k) for num, k in raw]
    equal_pairs = 0
    for (a, j), x in zip(raw, elements):
        for (b, k), y in zip(raw, elements):
            diff = base._make(a, 0) * s**k - base._make(b, 0) * s**j
            brute = (diff * s**mod).is_zero()
            assert (x == y) == brute == ((x.num, x.den) == (y.num, y.den))
            if brute:
                assert hash(x) == hash(y)
                equal_pairs += x is not y
    assert equal_pairs


def test_two_over_s_and_one_share_one_stored_form_over_localized_z_mod_m():
    # Z/9 localized at 2 is Z/9 itself, 1/s being the integer 5, so 2/s
    # and 1 are stored alike
    ring = Ring(9, ("t",)).localize_at(2)
    half_of_two = ring.int_(2) * ring.s_power(1)
    assert (half_of_two.num, half_of_two.den) == (ring.one().num, ring.one().den) == ({(0,): 1}, 0)
    assert half_of_two == ring.one() and ring.one() == half_of_two
    assert half_of_two == 1 and hash(half_of_two) == hash(ring.one())
    assert half_of_two != ring.int_(2)


@pytest.mark.parametrize("ring_name", sorted(STORED_FORM_RINGS))
def test_rep_matrix_explicit_zero_equals_a_missing_entry(ring_name):
    ring = STORED_FORM_RINGS[ring_name]
    one, t = ring.one(), ring.var("t")
    bare = RepMatrix(ring, 2, {(0, 0): one, (1, 1): one, (1, 0): t})
    padded = RepMatrix(ring, 2, {(0, 0): one, (0, 1): ring.zero(), (1, 1): one, (1, 0): t})
    assert bare == padded and padded == bare
    assert padded == RepMatrix(ring, 2, {(0, 1): ring.zero(), (0, 0): one, (1, 1): one, (1, 0): t})
    for other in (
        RepMatrix(ring, 2, {(0, 0): one, (1, 1): one}),
        RepMatrix(ring, 2, {(0, 0): one, (0, 1): t, (1, 1): one, (1, 0): t}),
        RepMatrix(ring, 2, {(0, 0): one, (1, 1): one, (1, 0): t + 1}),
    ):
        assert bare != other and other != bare
        assert padded != other and other != padded


# ----- the polynomial kernels against sympy -----


_SYM = sympy.symbols("x y")


def _random_poly(rng, mod, terms=5, max_deg=3, coeff=30):
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        e = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
        c = rng.randrange(-coeff, coeff + 1)
        if mod:
            c %= mod
        if c:
            out[e] = c
    return out


def _to_sympy(num, mod):
    if mod:
        return sympy.Poly.from_dict(dict(num) or {(0, 0): 0}, *_SYM, modulus=mod)
    return sympy.Poly.from_dict(dict(num) or {(0, 0): 0}, *_SYM, domain=sympy.ZZ)


def _from_sympy(poly, mod):
    assert poly.domain.is_FiniteField if mod else poly.domain.is_ZZ
    out = {}
    for e, c in poly.as_dict().items():
        c = int(c) % mod if mod else int(c)
        if c:
            out[e] = c
    return out


@pytest.mark.parametrize("mod", [0, 2, 5, 7])
def test_poly_mul_matches_sympy(mod):
    rng = random.Random(100 + mod)
    for _ in range(60):
        a, b = _random_poly(rng, mod), _random_poly(rng, mod)
        want = _from_sympy(_to_sympy(a, mod) * _to_sympy(b, mod), mod)
        assert _poly_mul(a, b, mod) == want


@pytest.mark.parametrize("mod", [0, 2, 5, 7])
def test_poly_divide_matches_sympy(mod):
    rng = random.Random(200 + mod)
    exact = inexact = 0
    for n in range(80):
        b = _random_poly(rng, mod)
        if not b:
            continue
        # half the dividends are multiples of b, half are arbitrary
        a = _random_poly(rng, mod)
        if n % 2:
            a = _poly_mul(a, b, mod)
        try:
            want = _from_sympy(_to_sympy(a, mod).exquo(_to_sympy(b, mod), auto=False), mod)
        except sympy.polys.polyerrors.ExactQuotientFailed:
            want = None
        got = _poly_divide(a, b, mod)
        assert got == want
        if want is None:
            inexact += 1
        else:
            exact += 1
    assert exact and inexact


@pytest.mark.parametrize(
    "mod,s", [(0, 0), (0, 2), (5, 0), (5, 3), (7, 2), (9, 3), (12, 2), (18, 6), (8, 2)]
)
def test_is_zero_matches_sympy(mod, s):
    # a / s^k is zero exactly when s^N * a vanishes for every large N; over
    # ZZ and GF(p) that means a = 0, over Z/m it is s-power torsion
    base = Ring(mod, ("x", "y"))
    ring = base.localize_at(s) if s else base
    rng = random.Random(300 + 10 * mod + s)
    zeros = 0
    for n in range(60):
        num = _random_poly(rng, mod, coeff=40)
        if mod and s and n % 3 == 0:
            # build torsion: multiply by the cofactor of s in m
            num = {e: c * (mod // math.gcd(mod, s ** 4)) % mod for e, c in num.items()}
            num = {e: c for e, c in num.items() if c}
        elt = ring._make(num, rng.randrange(3) if s else 0)
        killed = _to_sympy(num, 0) * sympy.Poly(s or 1, *_SYM, domain=sympy.ZZ) ** 16
        rest = _from_sympy(killed, 0).values()
        want = all(c % mod == 0 for c in rest) if mod else not rest
        assert elt.is_zero() == want
        zeros += want
    assert zeros


# ----- products and quotients by one term, and the normal form -----


def _random_term(rng, mod, max_deg=3, coeff=30):
    while True:
        c = rng.randrange(-coeff, coeff + 1)
        if mod:
            c %= mod
        if c:
            return {(rng.randrange(max_deg + 1), rng.randrange(max_deg + 1)): c}


def _sympy_mul(a, b, mod):
    """a * b by sympy: over GF(p) for a prime p, else over ZZ, reduced mod m."""
    over = mod if sympy.isprime(mod) else 0
    prod = _from_sympy(_to_sympy(a, over) * _to_sympy(b, over), over)
    if mod:
        prod = {e: c % mod for e, c in prod.items() if c % mod}
    return prod


@pytest.mark.parametrize("mod", [0, 2, 5, 7, 9])
def test_poly_mul_by_a_term_matches_sympy(mod):
    rng = random.Random(500 + mod)
    vanished = 0
    for n in range(80):
        a, term = _random_poly(rng, mod, terms=6), _random_term(rng, mod)
        if n % 4 == 0:
            # a constant factor keeps the exponents of a
            term = {(0, 0): next(iter(term.values()))}
        want = _sympy_mul(a, term, mod)
        assert _poly_mul(a, term, mod) == want
        assert _poly_mul(term, a, mod) == want
        vanished += len(want) < len(a)
    # over Z/9 some products of nonzero coefficients are 0 and must go
    assert vanished if mod == 9 else not vanished


def test_poly_mul_by_a_term_drops_products_that_vanish():
    assert _poly_mul({(1,): 3}, {(0,): 3}, 9) == {}
    assert _poly_mul({(1,): 3, (0,): 6}, {(1,): 3}, 9) == {}
    assert _poly_mul({(1,): 3, (0,): 1}, {(1,): 3}, 9) == {(1,): 3}
    ring = Ring.integers_mod(9).extend("t")
    t = ring.var("t")
    prod = (3 * t) * 3
    assert prod.num == {} and prod.den == 0 and prod == 0


@pytest.mark.parametrize("mod", [0, 2, 5, 7])
def test_poly_divide_by_a_term_matches_sympy(mod):
    rng = random.Random(600 + mod)
    exact = inexact = 0
    for n in range(80):
        b = _random_term(rng, mod)
        a = _random_poly(rng, mod, terms=6)
        if n % 2:
            a = _poly_mul(a, b, mod)
        try:
            quot = _to_sympy(a, mod).exquo(_to_sympy(b, mod), auto=False)
            want = _from_sympy(quot, mod)
        except sympy.polys.polyerrors.ExactQuotientFailed:
            want = None
        assert _poly_divide(a, b, mod) == want
        if want is None:
            inexact += 1
        else:
            exact += 1
    assert exact and inexact


def test_poly_divide_by_a_non_unit_term_mod_m():
    a = {(2,): 3, (1,): 6}  # 3t^2 + 6t = 3t * (t + 2) in Z/9[t]
    # 3 is no unit mod 9, but each coefficient is a multiple of it, so a
    # quotient q with q * 3t = a exists and is found
    q = _poly_divide(a, {(1,): 3}, 9)
    assert q is not None and _poly_mul(q, {(1,): 3}, 9) == a
    # 2 is: (3t^2 + 6t) / 2t = 5 * (3t + 6) = 6t + 3
    assert _poly_divide(a, {(1,): 2}, 9) == {(1,): 6, (0,): 3}
    assert _poly_divide({(0,): 3}, {(1,): 2}, 9) is None
    # 3t^2 + t: 3 divides no multiple of 1 mod 9
    assert _poly_divide({(2,): 3, (1,): 1}, {(1,): 3}, 9) is None


@pytest.mark.parametrize("mod", [9, 12])
def test_poly_divide_by_a_term_mod_m_brute_force(mod):
    # q * c*x^e = a has a solution exactly when every term c_a*x^f of a
    # has f >= e and c_a in c*Z/m; the quotient is checked by product
    rng = random.Random(900 + mod)
    exact = inexact = 0
    for n in range(200):
        b = _random_term(rng, mod, max_deg=2)
        a = _random_poly(rng, mod, terms=4)
        if n % 2:
            a = _poly_mul(a, b, mod)
        if not a:
            continue
        ((e, c),) = b.items()
        solvable = all(
            all(x >= y for x, y in zip(f, e)) and any(q * c % mod == ca for q in range(mod))
            for f, ca in a.items()
        )
        q = _poly_divide(a, b, mod)
        assert (q is not None) == solvable
        if solvable:
            assert _poly_mul(q, b, mod) == a
            exact += 1
        else:
            inexact += 1
    assert exact and inexact


@pytest.mark.parametrize("mod", [0, 7])
def test_poly_divide_long_dividends_by_x_plus_3_matches_sympy(mod):
    # dividends of 200 and more terms, the size a packed matrix entry over
    # a ring localized at t + 3 reaches
    rng = random.Random(700 + mod)
    b = {(1, 0): 1, (0, 0): 3}
    for n in range(6):
        q = {}
        for e in ((i, j) for i in range(25) for j in range(10)):
            c = rng.randrange(-10**6, 10**6)
            if mod:
                c %= mod
            if c:
                q[e] = c
        a = _poly_mul(q, b, mod)
        if n % 2:
            a = _poly_add(a, {(0, 1): 1}, mod)
        assert len(a) >= 200
        try:
            want = _from_sympy(_to_sympy(a, mod).exquo(_to_sympy(b, mod), auto=False), mod)
        except sympy.polys.polyerrors.ExactQuotientFailed:
            want = None
        assert _poly_divide(a, b, mod) == want
        assert (want is None) == bool(n % 2)


def _sympy_strip(num, den, s_num):
    """Divide s out of num / s^den while exact, by sympy over ZZ."""
    a, s = _to_sympy(num, 0), _to_sympy(s_num, 0)
    while den and not a.is_zero:
        try:
            a = a.exquo(s, auto=False)
        except sympy.polys.polyerrors.ExactQuotientFailed:
            break
        den -= 1
    return _from_sympy(a, 0), den


@pytest.mark.parametrize("s", ["x + 3", "2*x^2 - 3", "y - 1", "x*y + 1", "x + y"])
def test_normal_form_at_a_polynomial_matches_sympy(s):
    # s in one variable and in two, monic and not
    base = Ring.integers().extend("x", "y")
    ring = base.localize_at(base.parse(s))
    rng = random.Random("sympy-normal/%s" % s)
    stripped = 0
    for _ in range(40):
        num = _random_poly(rng, 0, terms=8, max_deg=4)
        for _ in range(rng.randrange(4)):
            num = _poly_mul(num, ring.loc_num, 0)
        den = rng.randrange(5)
        got = ring._make(dict(num), den)
        want = _sympy_strip(num, den, ring.loc_num) if num else ({}, 0)
        assert (got.num, got.den) == want
        stripped += got.den < den
    assert stripped


def _sympy_image(el, images, mod):
    """el with variable i sent to images[i], expanded by sympy."""
    syms = sympy.symbols("v0:%d" % len(el.ring.var_names))
    expr = sympy.Add(*(c * sympy.Mul(*(x**k for x, k in zip(syms, e))) for e, c in el.num.items()))
    out = sympy.expand(expr.subs(dict(zip(syms, images)), simultaneous=True))
    poly = sympy.Poly(out, *_SYM, domain=sympy.ZZ)
    return _from_sympy(poly, 0) if not mod else {
        e: c % mod for e, c in _from_sympy(poly, 0).items() if c % mod}


@pytest.mark.parametrize("mod", [0, 12])
def test_monomial_substitution_matches_sympy(mod):
    # one-term images, zero images among them, and images that send
    # distinct exponents of the source onto one exponent of the target
    src = Ring(mod, ("t", "u", "w"))
    dst = Ring(mod // 3 if mod else 0, ("x", "y"))
    x, y = _SYM
    rng = random.Random("monomial/%d" % mod)
    choices = [
        (dst.var("x"), x),
        (dst.var("y"), y),
        (dst.zero(), 0),
        (dst.int_(5) * dst.var("x") ** 2, 5 * x**2),
        (dst.int_(-2) * dst.var("x") * dst.var("y"), -2 * x * y),
        (dst.int_(7), 7),
    ]
    collided = 0
    for _ in range(60):
        el = random_element(src, rng, max_deg=3, terms=6)
        picks = [rng.choice(choices) for _ in src.var_names]
        mapping = dict(zip(src.var_names, (img for img, _ in picks)))
        got = el.substitute(mapping, dst)
        assert got.den == 0
        assert got.num == _sympy_image(el, [sym for _, sym in picks], dst.base_mod)
        collided += len(got.num) < len(el.num)
    assert collided


def test_monomial_substitution_resolves_denominators():
    ring = Ring.integers().extend("t").localize_at(2)
    dst = Ring.integers().extend("v")
    x = ring.parse("(2*t + t^2)/s^2")
    assert x.substitute({"t": 2 * dst.var("v")}, dst) == dst.parse("v + v^2")
    assert x.substitute({"t": 4 * dst.var("v")}, dst) == dst.parse("2*v + 4*v^2")
    poly = Ring.integers().extend("t")
    at = poly.localize_at(poly.parse("t + 3"))
    same = Ring.integers().extend("v").localize_at(Ring.integers().extend("v").parse("v + 3"))
    y = at.var("t") * at.s_power(1)
    assert y.substitute({"t": same.var("v")}, same) * same.loc_element() == same.var("v")


def _sym_poly(num, syms):
    return sympy.Add(*(c * sympy.Mul(*(x**k for x, k in zip(syms, e))) for e, c in num.items()))


def _vanishes_mod(expr, syms, mod):
    poly = sympy.Poly(sympy.expand(expr), *syms, domain=sympy.ZZ)
    return all(int(c) % mod == 0 for c in poly.coeffs()) if mod else poly.is_zero


# (label, source, target, the variable that carries the denominators or
# None, image of each source variable as (element, sympy expression))
def _kernel_cases():
    t, u, w = sympy.symbols("t u w")
    out = []
    for label, mod, s, s_sym in (
        ("Z[t,u] at 2", 0, 2, 2),
        ("Z/12[t,u] at 2", 12, 2, 2),
        ("Z[t,u] at t+3", 0, "t + 3", t + 3),
    ):
        base = Ring(mod, ("t", "u"))
        src = base.localize_at(base.parse(s) if isinstance(s, str) else s)
        # same-position images c*x_i into a ring with one more variable,
        # localized at the same s: keys carry over with a padded zero
        wide = Ring(mod, ("t", "u", "w"))
        dst = wide.localize_at(wide.parse(s) if isinstance(s, str) else s)
        # t stays put where s involves t, so that s maps onto itself
        for ct in ((1,) if isinstance(s, str) else (1, -1, 3)):
            for cu in (1, 2):
                images = {"t": (dst.int_(ct) * dst.var("t"), ct * t),
                          "u": (dst.int_(cu) * dst.var("u"), cu * u)}
                out.append((label + " same position", src, dst, None, images, s_sym))
    # var -> s^e * var into the delocalized ring, on elements divisible by
    # var: an integer s keeps the image at var's position, and s = t + 3
    # takes ring products.  Over Z/12 the integer 2 divides zero, so no
    # such map into Z/12[t,u] resolves a denominator.
    for s, s_sym, var in ((2, 2, "t"), ("t + 3", t + 3, "u")):
        base = Ring(0, ("t", "u"))
        src = base.localize_at(base.parse(s) if isinstance(s, str) else s)
        s_out = base.parse(s) if isinstance(s, str) else base.int_(s)
        for e in (3, 4):
            images = {"t": (base.var("t"), t), "u": (base.var("u"), u)}
            sym = {"t": t, "u": u}[var]
            images[var] = (s_out**e * base.var(var), s_sym**e * sym)
            out.append(("%s dilated by s^%d" % (s, e), src, base, var, images, s_sym))
    return out


def test_prepared_substitution_matches_sympy():
    # the image R of num/s^den must satisfy R * phi(s)^den = phi(num) in
    # the target localization, phi computed by sympy; over Z/12 at 2 that
    # equation holds after multiplying by s^T, T the torsion bound.  Z/12
    # at 2 is Z/3, where 1/s is an integer, so no denominator is stored
    t, u, w = sympy.symbols("t u w")
    rng = random.Random("prepared-substitution")
    seen = collections.Counter()
    for label, src, dst, var, images, s_sym in _kernel_cases():
        mapping = {n: img for n, (img, _) in images.items()}
        subs = {sympy.Symbol(n): expr for n, (_, expr) in images.items()}
        sub = src.substitution(mapping, dst)
        syms = (t, u, w)[: len(dst.var_names)]
        mod = dst.base_mod
        s_dst = _sym_poly(dst.loc_num, syms) if dst.loc_num is not None else 1
        kill = s_dst ** dst.torsion_bound()
        for _ in range(12):
            num = _random_poly(rng, src.base_mod, terms=5, max_deg=3)
            if var is not None:
                num = _poly_mul(num, src.var(var).num, 0)
            k = rng.randrange(4)
            el = src._make(num, k)
            got = sub(el)
            # one prepared map gives what a map prepared per element gives
            again = el.substitute(mapping, dst)
            assert (got.ring, got.num, got.den) == (again.ring, again.num, again.den)
            if dst.loc_num is None:
                assert got.den == 0
            image = _sym_poly(el.num, (t, u)).subs(subs, simultaneous=True)
            lhs = _sym_poly(got.num, syms) * s_sym**el.den
            assert _vanishes_mod(kill * (lhs - image * s_dst**got.den), syms, mod), label
            if src.base_mod:
                assert el.den == 0
            seen[label] += (k if src.base_mod else el.den) > 0
    assert all(seen[label] for label, *_ in _kernel_cases()), seen


def _strip_by_division(ring, num, den):
    """The canonical form by its first definition: divide by s while exact."""
    while den:
        q = _poly_divide(num, ring.loc_num, 0)
        if q is None:
            break
        num, den = q, den - 1
    return num, den


@pytest.mark.parametrize("s", [2, 6, -3, 1, "t", "1 + t"])
def test_normal_form_matches_the_division_loop(s):
    base = Ring.integers().extend("t")
    ring = base.localize_at(base.parse(s) if isinstance(s, str) else s)
    s_el = ring.loc_element()
    rng = random.Random("normal/%s" % s)

    def element():
        x = random_element(ring, rng) * s_el ** rng.randrange(4)
        num, den = dict(x.num), rng.randrange(5)
        got = ring._make(num, den)
        assert (got.num, got.den) == _strip_by_division(ring, num, den)
        return got

    def lift(x, den):
        num = x.num
        for _ in range(den - x.den):
            num = _poly_mul(num, ring.loc_num, 0)
        return num

    for _ in range(50):
        x, y = element(), element()
        prod = x * y
        want = _strip_by_division(ring, _poly_mul(x.num, y.num, 0), x.den + y.den)
        assert (prod.num, prod.den) == want
        den = max(x.den, y.den)
        for total, sign in ((x + y, 1), (x - y, -1)):
            num = _poly_add(lift(x, den), lift(y, den), 0, sign)
            want = _strip_by_division(ring, num, den)
            assert (total.num, total.den) == (want if want[0] else ({}, 0))


def test_make_reduces_raw_input():
    ring = Ring.integers_mod(9).extend("t")
    el = ring._make({(0,): 12, (1,): -4, (2,): 0, (3,): 18, (4,): 9}, 0)
    assert (el.num, el.den) == ({(0,): 3, (1,): 5}, 0)
    el = ring._make({(1,): 9, (2,): -18}, 0)
    assert (el.num, el.den) == ({}, 0)
    loc = Ring.integers_mod(9).extend("t").localize_at(2)
    # 1/s^2 is 5^2 = 7 mod 9
    el = loc._make({(0,): 11, (1,): -2}, 2)
    assert (el.num, el.den) == ({(0,): 5, (1,): 4}, 0)
    z = Ring.integers().extend("t").localize_at(2)
    el = z._make({(0,): 0, (1,): -6, (2,): 4}, 1)
    assert (el.num, el.den) == ({(1,): -3, (2,): 2}, 0)
    el = z._make({(1,): 0}, 3)
    assert (el.num, el.den) == ({}, 0)


def test_equal_elements_hash_alike_over_localized_z_mod_m():
    # over Z/m localized at an integer the stored form is a polynomial
    # mod m', so equal elements share it and hash alike; Z/4[1/2] is the
    # zero ring
    ring = Ring.integers_mod(9).extend("t").localize_at(2)
    two_over_s = ring.int_(2) * ring.s_power(1)
    assert two_over_s == ring.one()
    assert len({two_over_s, ring.one()}) == 1
    zero_ring = Ring(4, ("t",)).localize_at(2)
    assert zero_ring.int_(1) == zero_ring.int_(3)
    assert hash(zero_ring.int_(1)) == hash(zero_ring.int_(3))


# ----- single-term witnesses: linear cost, checked against sympy -----


@pytest.mark.parametrize("localized", (False, True))
def test_witness_cost_does_not_grow_with_the_terms_of_x(monkeypatch, localized):
    # x = sum 3k*t^k over Z[t] at (t), or over Z[t][1/2] at (6t), whose
    # generator is saturated to 3t with the factor 2 removed: one
    # coefficient per generator, so the kernel calls do not depend on n
    base = Ring(0, ("t",))
    ring = base.localize_at(2) if localized else base
    spec = IdealSpec.gens(ring, ring.parse("6*t" if localized else "t"))
    calls = collections.Counter()
    for name in ("_poly_add", "_poly_mul"):
        kernel = getattr(exactring, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(exactring, name, counted)

    def cost(n):
        x = ring._make({(k,): 3 * k for k in range(1, n + 1)}, 0)
        calls.clear()
        assert len(spec.witness(x)) == 1
        return dict(calls)

    assert cost(10) == cost(160)


_WITNESS_BASE = Ring(0, ("t", "X"))
WITNESS_RINGS = {
    "Z[t,X]": _WITNESS_BASE,
    "Z[t,X][1/2]": _WITNESS_BASE.localize_at(2),
    "Z[t,X][1/6]": _WITNESS_BASE.localize_at(6),
    "Z/9[t,X]": Ring(9, ("t", "X")),
    "Z[t,X][1/t]": _WITNESS_BASE.localize_at(_WITNESS_BASE.var("t")),
}


def _sympy_poly(num, syms):
    return sympy.Poly.from_dict(dict(num) or {(0, 0): 0}, *syms, domain=sympy.ZZ)


@pytest.mark.parametrize("ring_name", sorted(WITNESS_RINGS))
def test_single_term_witness_rebuilds_x_in_sympy(ring_name):
    """Rebuild sum c*g from each witness pair's stored (num, den) in sympy
    and compare it with x: over Z the numerators are cleared to the
    deepest power of s, which is exact since Z[t, X] is a domain (QQ[t, X]
    with s inverted); over Z/9 the difference must vanish mod 9.  Localized
    Z/m is left out: its stored forms are not unique, so a numerator
    identity there would compare forms, not values.

    Generators are single terms, some with coefficients or exponents that
    share factors with s and some carrying 1/s^k, so that the removed
    factor, the excess exponents and the generator denominator all occur.
    """
    ring = WITNESS_RINGS[ring_name]
    rng = random.Random(1211)
    syms = sympy.symbols(ring.var_names)
    s_poly = _sympy_poly(ring.loc_num or {(0, 0): 1}, syms)
    localized = ring.loc_num is not None
    s_c, s_e = Ring._single_term(ring.loc_num) if localized else (1, ())

    def term(coeffs, max_exp):
        e = tuple(rng.randint(0, max_exp) for _ in syms)
        k = rng.randint(1, 2) if localized and rng.random() < 0.4 else 0
        return ring._make({e: rng.choice(coeffs)}, k)

    paths = set()
    for _ in range(60):
        gens = [term((1, 2, 3, 4, 6, 12, 15, -8), 2) for _ in range(rng.randint(1, 3))]
        spec = IdealSpec.gens(ring, *gens)
        if rng.random() < 0.3:
            spec = spec.product(IdealSpec.gens(ring, term((2, 4, 5, 8), 1)))
        x = ring.zero()
        while not 1 <= len(x.num) <= 25:
            x = ring.zero()
            for g in spec.expand():
                for _ in range(rng.randint(0, 10)):
                    x = x + term((1, -1, 2, 5, -7), 3) * g
        pairs = spec.witness(x)
        depth = max([x.den] + [c.den + spec.element_for_tag(t).den for c, t in pairs])
        total = _sympy_poly(x.num, syms) * s_poly ** (depth - x.den)
        for c, t in pairs:
            g = spec.element_for_tag(t)
            total -= (
                _sympy_poly(c.num, syms) * _sympy_poly(g.num, syms)
                * s_poly ** (depth - c.den - g.den)
            )
            ((ge, gc),) = g.num.items()
            if localized:
                paths.add("removed" if math.gcd(gc, s_c) > 1 else "unit")
                if any(a and b for a, b in zip(ge, s_e)):
                    paths.add("excess")
            if g.den:
                paths.add("gden")
        if ring.base_mod:
            assert all(int(v) % ring.base_mod == 0 for v in total.coeffs())
        else:
            assert total.is_zero
    if ring_name in ("Z[t,X][1/2]", "Z[t,X][1/6]"):
        assert paths == {"removed", "unit", "gden"}
    elif ring_name == "Z[t,X][1/t]":
        assert {"excess", "gden"} <= paths
