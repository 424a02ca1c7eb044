"""Local-global assembly of relative elementary words.

A level word over a localized polynomial ring that is trivial at the zero
fiber of one variable can be pulled back to the unlocalized ring once the
variable is dilated by a high enough power of the localized element.  The
functions here carry that out exactly and glue the pullbacks:

- `torsion_exponent` finds the least exponent at which every model's
  input matrix, dilated into the base, equals its output shifted alike;
- `for_dilation` rewrites a relative splitting whose indeterminate sits
  at a ninth power into a word whose conjugators live at level (t);
- `dilate` splits its input read at var * var'^9, normalizes that
  ninth-power splitting, and clears and collapses var' by var' -> s^m
  into the pullback itself, tracking every exponent in its receipt;
- `unimodular_combination` handles the cover bookkeeping, and `patch`
  glues dilated pullbacks over a unimodular cover into one global word.

`patch` tests each datum at var = 0 by the retraction var -> 0
(`RewriteEngine.trivial_at_zero`), as `split_pieces` tests its
remainder: a datum whose generators all vanish at 0 evaluates nothing,
and any other evaluates only the generators that survive.

Words are collected (`gword.collect`) where a stage hands them on: the
words `patch` hands to its dilations (the first datum and each overlap
word) and the output of `ninth_power_rewrite`.  Collection drops x_a(0)
and conjugates of it and merges adjacent factors on one root.  An overlap
word is collected as one product, so the pair of factors that meet at its
seam merges into one generator; the first datum is collected alone, so a
datum written as x_a(3X/2)^2 reaches its dilation as one integral
generator (l = 0).

The two level words the pipeline returns, the pulled-back word of
`dilate` and the glued word of `patch`, are shortened instead
(`RewriteEngine.shorten`): after `collect`, a generator merges into an
earlier one on its root across generators that commute with it (no
Chevalley coefficient for the pair of roots), and a commutator of two
generators, whether a Comm node or written out as
x_b(p) * Conj(x_b(-p), x_c(u)) = [x_b(-p), x_c(u)], becomes its Chevalley
expansion when that has fewer than 4 generators.  Both rules keep a
LevelShape certificate, but they write out the Comm nodes that BarShape
and MixedCommShape match, so `ninth_power_rewrite` keeps plain `collect`
on the word it returns; the level factors it normalizes are shortened
inside `conjugation_normalize`, between peels.

Each public stage is an unchecked builder between a gate and `finish`:
`for_dilation` gates BarShape around `ninth_power_rewrite`, `dilate`
LevelShape around `pullback`.  Each gate is one
`RewriteEngine.require_shapes` call that raises ConditionViolated.
`patch` gates LevelShape on each datum, checks that the data agree on
the overlaps of an integer cover (InconsistentData), and calls
`pullback` ungated, since its LevelShape gate covers every word a
dilation receives (a ring-map image of the datum); each dilation keeps
one `finish`, on the ninth-power rewrite against the unchecked split
(`split_pieces`), and its torsion scan, which checks the pulled-back
word's value.

Every step is checked against the matrix representations through the
RewriteEngine over its output ring, and every receipt comes from that
engine's `finish`; nothing is returned without either a structural
certificate or an oracle-verified congruence attestation.
"""

import itertools
from dataclasses import dataclass

from .chevrep import RepMatrix
from .errors import (
    ConditionViolated,
    CongruenceFailed,
    InconsistentData,
    LocalizationMismatch,
    NotInIdeal,
    NotSplittingIdeal,
    NotUnimodular,
    NoUnitCombination,
    OracleMismatch,
    SubstitutionMismatch,
    UndecidableIdealClass,
)
from .exactring import IdealSpec
from .gword import (
    BarShape,
    Comm,
    Conj,
    Gen,
    LevelShape,
    Prod,
    RelConjShape,
    _factors,
    collect,
    inv_word,
    substitute_word,
    unwrap,
    word_args,
)
from .rewrite import DEFAULT_NODE_BUDGET, RewriteEngine, check_var

# Largest number of coefficient tuples the unit-combination fallback may
# try.  The pool holds 7 + 4*nvars coefficients, so a k-element cover
# needs (7 + 4*nvars)^k tuples.  A tuple costs about 30 microseconds on an
# Intel Xeon server core, so a fruitless search stays near 0.6 s; covers
# of up to four elements in one variable fit.
MAX_COMBINATION_TUPLES = 20000

# ----- small helpers -----


def _lift_map(src, target, images=()):
    """Each variable of src to its namesake in target, except those that
    `images` sends elsewhere."""
    mapping = {n: target.var(n) for n in src.var_names}
    mapping.update(images)
    return mapping


def _to_ring(elt, target):
    return elt.substitute(_lift_map(elt.ring, target), target)


def _mat_substitute(m, sub):
    """The matrix m mapped through the prepared ring map `sub`, entrywise;
    for the embedding iota of `pullback` (`sub.one_image` e != 1), the
    matrix of the word mapped by iota: L(M) = iota(M) + (1 - e)."""
    entries = {}
    for pos, v in m.entries.items():
        img = sub(v)
        if img.num:
            entries[pos] = img
    if sub.one_image != 1:
        shift = sub.target.int_(1 - sub.one_image)
        for i in range(m.dim):
            v = entries.pop((i, i), sub.target.zero()) + shift
            if v.num:
                entries[(i, i)] = v
    return RepMatrix(sub.target, m.dim, entries)


# ----- torsion pinning -----


def torsion_exponent(gs, hs, s, var, lo, hi, n=None):
    """Least l in lo..hi at which every input matrix pulls back to its output.

    `gs` are the input matrices over R or R_s, `hs` the output matrices
    over R in the same model order at the exponent n <= lo (default lo),
    `s` an element of R.  At l each input is mapped into R by
    var -> s^l * var (`_mat_substitute`, so as L(M) out of Z/m localized)
    and compared with its output shifted by var -> s^(l - n) * var, an
    endomorphism of R that commutes with evaluation; at l = n the outputs
    are compared as they are.  An l at which an input entry keeps a
    denominator is passed over: if no l maps the inputs, the last
    SubstitutionMismatch is raised, and if none matches, OracleMismatch.
    """
    base = hs[0].ring
    src = gs[0].ring
    s = base.coerce(s)
    x = base.var(var)
    n = lo if n is None else n
    mapped, refusal = False, None
    for l in range(lo, hi + 1):
        try:
            at_l = src.substitution(_lift_map(src, base, {var: s ** l * x}), base)
            dilated = [_mat_substitute(g, at_l) for g in gs]
        except SubstitutionMismatch as e:
            refusal = e
            continue
        mapped = True
        shifted = hs
        if l > n:
            shift = base.substitution(_lift_map(base, base, {var: s ** (l - n) * x}), base)
            shifted = [_mat_substitute(h, shift) for h in hs]
        if dilated == shifted:
            return l
    if refusal is not None and not mapped:
        raise refusal
    raise OracleMismatch(
        "dilate output differs from the dilated input at every exponent in %d..%d"
        % (lo, hi)
    )


# ----- cover bookkeeping -----


def unimodular_combination(ring, values):
    """Coefficients c with sum(c[k] * values[k]) = 1 in `ring`.

    Integer and Z/m families are settled by the ideal witness machinery.
    Over polynomial rings an inconclusive witness falls back to a bounded
    pool of small coefficients; covers beyond the pool, or too large for
    MAX_COMBINATION_TUPLES tuples of it, raise UndecidableIdealClass rather
    than guess.
    """
    vals = [ring.coerce(v) for v in values]
    if not vals:
        raise NotUnimodular("an empty family generates nothing")
    spec = IdealSpec.gens(ring, *vals)
    try:
        combo = spec.witness(ring.one())
    except NotInIdeal:
        raise NotUnimodular(
            "{%s} does not generate the unit ideal of %s"
            % (", ".join(str(v) for v in vals), ring)
        )
    except UndecidableIdealClass:
        combo = _bounded_combination_search(ring, vals)
        if combo is None:
            raise UndecidableIdealClass(
                "no unit combination of %s found in the bounded search pool"
                % [str(v) for v in vals]
            )
        return combo
    # the witness has checked that its terms sum to 1
    coeffs = [ring.zero() for _ in vals]
    for coeff, tag in combo:
        coeffs[tag[1]] = coeffs[tag[1]] + coeff
    return coeffs


def _bounded_combination_search(ring, vals):
    pool = [ring.int_(n) for n in range(-3, 4)]
    one = ring.one()
    for name in ring.var_names:
        x = ring.var(name)
        pool.extend((x, -x, one + x, one - x))
    if len(pool) ** len(vals) > MAX_COMBINATION_TUPLES:
        raise UndecidableIdealClass(
            "a unit combination of %d elements needs %d^%d coefficient tuples, "
            "more than the %d searched"
            % (len(vals), len(pool), len(vals), MAX_COMBINATION_TUPLES)
        )
    for combo in itertools.product(pool, repeat=len(vals)):
        total = ring.zero()
        for c, v in zip(combo, vals):
            total = total + c * v
        if total == one:
            return list(combo)
    return None


# ----- normalizing a ninth-power splitting -----


def _normalize_level_factor(eng, f, fund, out, stats):
    g, inverted, by = unwrap(f)
    if not isinstance(g, Gen):
        out.append(f)
        stats["kept_factors"] += 1
        return
    if inverted:
        g = Gen(g.root, -g.arg)
    try:
        piece, sub = eng.conjugation_normalize(g if by is None else Conj(g, by), fund)
    except (ConditionViolated, NoUnitCombination):
        # no decomposition route over this ring; the factor stays whole
        # and rides as a congruence attestation
        out.append(f)
        stats["condition_falls"] += 1
        return
    out.extend(piece.factors)
    stats["level_factors"] += 1
    for key in ("attest_falls", "decompositions", "budget"):
        stats[key] += sub[key]


def ninth_power_rewrite(eng, w, k_spec, var):
    """`for_dilation`'s unchecked builder: (word, shapes, details).

    Commutator factors of w are split by `RewriteEngine.mixed_pieces` with
    middle ideal (var^3); level factors are normalized by
    conjugation_normalize with the fund (k, (var)), which turns every
    surviving conjugator into a level-(var) word.  Factors without a
    decomposition route over the ring are kept whole; they are honest
    congruences at level k*(var) and come back as oracle-checked
    attestations from `finish`.  The `budget` detail joins the normalized
    factors' entries in factor order, and `trivial_pieces` counts the
    Hall-Witt pieces left out.
    """
    ring = eng.ring
    t_spec = IdealSpec.gens(ring, ring.var(var))
    cube = IdealSpec.gens(ring, ring.var(var) ** 3)
    stats = {
        "level_factors": 0,
        "mixed_factors": 0,
        "kept_factors": 0,
        "condition_falls": 0,
        "attest_falls": 0,
        "decompositions": 0,
        "trivial_pieces": 0,
        "budget": [],
    }
    out = []
    for f in _factors(w):
        if isinstance(unwrap(f)[0], Comm):
            sub = {"witness_terms": 0, "trivial_pieces": 0}
            try:
                pieces = eng.mixed_pieces(f, cube, sub)
            except (ConditionViolated, NoUnitCombination):
                out.append(f)
                stats["kept_factors"] += 1
                continue
            out.extend(pieces)
            stats["mixed_factors"] += len(pieces)
            stats["trivial_pieces"] += sub["trivial_pieces"]
        else:
            _normalize_level_factor(eng, f, (k_spec, t_spec), out, stats)
    out_word = collect(Prod(tuple(out)))
    cert = RelConjShape(t_spec, k_spec.product(t_spec))
    return out_word, [(out_word, cert)], dict(stats, budget=tuple(stats["budget"]))


def for_dilation(eng, w, k_spec, var):
    """Rewrite a relative splitting at var^9 into level-(var) conjugators.

    Gates the input's BarShape(k_spec, (var^9)) (ConditionViolated), builds
    with `ninth_power_rewrite`, and returns (word, receipt) from `finish`:
    the word is oracle-equal to the input and certifies
    RelConjShape((var), k_spec * (var)).
    """
    check_var(eng.ring, var)
    bar = BarShape(k_spec, IdealSpec.gens(eng.ring, eng.ring.var(var) ** 9))
    what = "input is not a relative splitting at %s^9" % var
    eng.require_shapes([(w, bar)], ConditionViolated, what)
    out_word, shapes, details = ninth_power_rewrite(eng, w, k_spec, var)
    return out_word, eng.finish("for_dilation", w, out_word, shapes, w, details=details)


# ----- dilation -----


def pullback(eng, w, i_spec, var):
    """`dilate`'s builder over a localized ring: (l, word, shapes, details).

    w is mapped once by var -> var * var'^9, with var' a fresh variable,
    and split along var'; the split equals the splitting of w(var * var')
    raised by var' -> var'^9, an injective map fixing the retract var' = 0.
    `ninth_power_rewrite` rewrites it, and var' -> s^m, with m the largest
    denominator exponent among the rewrite's arguments, clears the
    localization and collapses var' in one map into the base.  The result
    is shortened (`RewriteEngine.shorten`).  One scan (`torsion_exponent`)
    pins l: the least exponent from lo = max(n, T), with n = 9*m and T =
    `Ring.torsion_bound()`, at which every model's input matrix, mapped
    into the base by var -> s^l * var, equals the output's matrix shifted
    by var -> s^(l-n) * var, the matrix of the output word shifted alike;
    the word is shifted so when l > n.  The scan ends at the deepest
    stored entry denominator of the input, or n if larger, plus T.  A word
    not trivial at var = 0 raises CongruenceFailed in the split, whose
    variable-free part is w at var = 0.

    Over a Z base T = 0.  Over Z/m localized at an integer s the ring is
    Z/m'[vars] with no denominators (so n = 0), and the base is
    Z/m'[vars] x Z/m''[vars], m'' = m/m'.  The map out of the ring is
    iota(c) = c*e, e = 1 mod m' and 0 mod m''; s in the base is read from
    `loc_num`, as iota(s) = s*e.  iota adds and multiplies but sends 1 to
    e, so a word mapped by iota evaluates to L(M) = 1 + iota(M - 1):
    x_a(r) = 1 + sum r^k T_k goes to 1 + iota(sum r^k T_k), and
    (1 + iota(A))(1 + iota(B)) = 1 + iota(A + B + AB) makes L
    multiplicative.  L(M) is M on Z/m' and 1 on Z/m'', and the scan
    compares the inputs as L(M).  The element g the word stands for, 1 at
    var = 0, is unseen on Z/m''; but s^T = 0 mod m'', so g(s^l * var) = 1
    there once l >= T, and only then is the output g(s^l * var) over the
    whole base.  `patch` needs that, as it reads each output over every
    cover element: over Z/9[X] with cover {2, 3}, R_3 is the zero ring,
    and its word pulled back at l = 0 takes all the weight of the unit
    combination.

    The input is not gated.  `finish` checks the ninth-power rewrite
    against the split and caps its nodes, which nothing later adds to,
    and the scan raises OracleMismatch on a wrong word.
    """
    ring = eng.ring
    base_out = ring.delocalized()
    s_out = base_out._make(dict(ring.loc_num), 0)
    eng_out = RewriteEngine(eng.rs, base_out, node_budget=eng.node_budget)
    i_base = i_spec.substitute(_lift_map(ring, base_out), base_out)

    # split w(var * var'^9) along a fresh variable var'
    vp = var + "p"
    while vp in ring.var_names:
        vp += "p"
    ring2 = ring.extend(vp)
    eng2 = RewriteEngine(eng.rs, ring2, node_budget=eng.node_budget)
    ninth = _lift_map(ring, ring2, {var: ring2.var(var) * ring2.var(vp) ** 9})
    i2 = i_spec.substitute(_lift_map(ring, ring2), ring2)
    bar9 = eng2.split_pieces(substitute_word(w, ninth, ring2), i2, vp)
    h9, shapes, ford = ninth_power_rewrite(eng2, bar9, i2, vp)
    rec_ford = eng2.finish("for_dilation", bar9, h9, shapes, bar9, details=ford)

    # var' -> s^m clears the localization and collapses var' in one map
    dens = sorted({a.den for a in word_args(h9) if a.den})
    m = dens[-1] if dens else 0
    try:
        h_word = substitute_word(h9, _lift_map(ring, base_out, {vp: s_out ** m}), base_out)
    except SubstitutionMismatch as e:
        # an attested factor kept a bare localized argument that no power
        # of s can absorb; report the boundary instead of guessing
        raise SubstitutionMismatch(
            "clearing %s -> %s^m leaves a denominator standing: %s" % (vp, s_out, e)
        ) from None
    h_word = eng_out.shorten(h_word)
    n = 9 * m

    # pin the exponent from max(n, T); over a Z base every input entry
    # maps into base_out past its stored denominator
    mats_in = eng.evaluate(w)
    entry_den = max(
        (v.den for gm in mats_in for _, v in gm.entries_minus_identity()), default=0
    )
    t = ring.torsion_bound()
    hs = eng_out.evaluate(h_word)
    l = torsion_exponent(mats_in, hs, s_out, var, max(n, t), max(n, entry_den) + t, n)
    if l > n:
        shift = _lift_map(base_out, base_out, {var: s_out ** (l - n) * base_out.var(var)})
        h_word = substitute_word(h_word, shift, base_out)
    details = {
        "s": str(s_out),
        "var": var,
        "aux_var": vp,
        "den_exponents": dens,
        "clear_m": m,
        "n": n,
        "torsion_k": l - n,
        "l": l,
        "ninth_power_attested": rec_ford.attested,
    }
    return l, h_word, [(h_word, LevelShape(i_base))], details


def dilate(eng, w, i_spec, var=None):
    """Pull a local level word back to the unlocalized ring.

    `w` is a level-i_spec word over the engine's ring localized at s,
    trivial at var = 0 (`var` defaults to the last variable).  Returns
    (l, h, receipt) with h a level word over the unlocalized base whose
    evaluation equals the entrywise dilation of w by var -> s^l * var in
    every representation.  The level of w is checked first, so a word
    over an unlocalized ring, returned as it is with l = 0, is checked
    too; over a localized ring `pullback` builds h.
    """
    ring = eng.ring
    if var is not None:
        check_var(ring, var)
    level = LevelShape(i_spec)
    [report] = eng.require_shapes([(w, level)], ConditionViolated, "input is not a level word")
    if ring.loc_num is None:
        # already integral: nothing to clear, and the gate's report is the
        # certificate
        details = {"l": 0, "n": 0, "clear_m": 0, "torsion_k": 0, "den_exponents": []}
        return 0, w, eng.finish("dilate", w, w, [(w, level, report)], details=details)
    if var is None:
        if not ring.var_names:
            raise NotSplittingIdeal("no polynomial variable to dilate along")
        var = ring.var_names[-1]
    l, h_word, shapes, details = pullback(eng, w, i_spec, var)
    eng_out = RewriteEngine(eng.rs, ring.delocalized(), node_budget=eng.node_budget)
    return l, h_word, eng_out.finish("dilate", w, h_word, shapes, details=details)


# ----- patching -----


@dataclass(frozen=True)
class LocalDatum:
    """One local solution: a word over the base ring localized at s."""

    s: object
    word: object


@dataclass(frozen=True)
class PatchProblem:
    """Gluing data for one global word.

    system is a root system or its label, base the unlocalized ring, ideal
    the level over base, data one LocalDatum per cover element, and var
    the gluing variable (default: the last variable of base).
    """

    system: object
    base: object
    ideal: object
    data: tuple
    var: object = None


def _check_overlaps(problem, cover, loc_rings, node_budget):
    """Each pair of data with integer cover elements s_i, s_j must agree
    over the base localized at s_i * s_j (InconsistentData otherwise)."""
    base, data = problem.base, problem.data
    for i, j in itertools.combinations(range(len(data)), 2):
        if cover[i].is_int_constant() is None or cover[j].is_int_constant() is None:
            continue
        s_ij = cover[i] * cover[j]
        if not s_ij.num:
            # the overlap is the zero ring, where every pair agrees
            continue
        loc = base.localize_at(s_ij)
        u, v = (
            substitute_word(data[k].word, _lift_map(loc_rings[k], loc), loc) for k in (i, j)
        )
        if not RewriteEngine(problem.system, loc, node_budget=node_budget).equal(u, v):
            raise InconsistentData(
                "local data %d and %d disagree over %s" % (i + 1, j + 1, loc)
            )


def patch(problem, verify=True, node_budget=DEFAULT_NODE_BUDGET):
    """Glue local words over a unimodular cover into one global word.

    Each datum's word lives over base localized at its s, certifies the
    level ideal there, and is trivial at var = 0: its image under the
    retraction var -> 0 equals the empty word, and only the generators
    that survive the retraction are evaluated (CongruenceFailed
    otherwise; NotSplittingIdeal for an s involving var, where var -> 0
    is no retraction).

    After the cover check, the overlap gate compares each pair of data
    with integer cover elements s_i, s_j over the base localized at
    s_i * s_j with `RewriteEngine.equal`, and raises InconsistentData
    naming the first pair that disagrees; an overlap that is the zero ring
    (s_i * s_j = 0 in Z/m) agrees trivially.  Data that agree on every
    overlap are the images of one element.  The gate runs on integer
    covers only: for a cover element involving a variable, the map into
    the overlap does not build yet.

    The k-th overlap word compares the datum at var * (u_1 + ... + u_k)
    against the same datum at var * (u_1 + ... + u_{k-1}) over fresh
    variables u_i, one per cover element, and is collected before its
    dilation.  `pullback`
    pulls each overlap back to the unlocalized extension, ungated (each
    overlap is a ring-map image of a gated datum); a unit combination of
    the powered cover elements pins the u_i to constants summing to 1,
    and the pinned words concatenate into one word that is shortened
    (`RewriteEngine.shorten`) before the checks below.

    The glued word is checked against every datum: over each localization
    it must evaluate to exactly the datum's matrices (OracleMismatch
    otherwise, which is how inconsistent data over a polynomial cover
    surfaces), and it certifies LevelShape(ideal) over the base.  Returns
    (word, receipt).  Every step is checked: `verify` stays for callers
    that pass True, and False raises ValueError.  The per-datum var = 0 check alone catches a
    datum k >= 2 not trivial at var = 0: its overlap word is trivial at
    u_k = 0 by construction, so its dilation cannot.
    """
    if not verify:
        raise ValueError("patch always verifies; verify=False is not supported")
    base = problem.base
    data = tuple(problem.data)
    if not data:
        raise NotUnimodular("a patching problem needs at least one local datum")
    if base.loc_num is not None:
        raise LocalizationMismatch("the patching base must not be localized")
    var = problem.var
    if var is None:
        if not base.var_names:
            raise NotSplittingIdeal("no variable to glue along")
        var = base.var_names[-1]
    else:
        check_var(base, var)
    if problem.ideal.ring != base:
        raise SubstitutionMismatch("the level ideal must live over the base ring")

    cover = []
    loc_rings = []
    loc_engines = []
    for d in data:
        s_k = base.coerce(d.s)
        loc = base.localize_at(s_k)
        eng_k = RewriteEngine(problem.system, loc, node_budget=node_budget)
        for a in word_args(d.word):
            if a.ring != loc:
                raise LocalizationMismatch(
                    "a local word does not live over %s localized at %s" % (base, s_k)
                )
        i_loc = problem.ideal.substitute(_lift_map(base, loc), loc)
        eng_k.require_shapes(
            [(d.word, LevelShape(i_loc))], ConditionViolated, "a local word is not a level word"
        )
        if not eng_k.trivial_at_zero(d.word, var):
            raise CongruenceFailed("a local word is not trivial at %s = 0" % var)
        cover.append(s_k)
        loc_rings.append(loc)
        loc_engines.append(eng_k)
    unimodular_combination(base, cover)
    _check_overlaps(problem, cover, loc_rings, node_budget)

    aux = []
    for k in range(len(data)):
        nm = "u%d" % (k + 1)
        while nm in base.var_names or nm in aux:
            nm += "u"
        aux.append(nm)
    big = base.extend(*aux)

    pullbacks = []
    for k, d in enumerate(data):
        loc_big = big.localize_at(_to_ring(cover[k], big))
        eng_w = RewriteEngine(problem.system, loc_big, node_budget=node_budget)
        sigma = loc_big.zero()
        for nm in aux[: k + 1]:
            sigma = sigma + loc_big.var(nm)
        to_k = _lift_map(base, loc_big, {var: loc_big.var(var) * sigma})
        a_word = substitute_word(d.word, to_k, loc_big)
        if k == 0:
            w_k = collect(a_word)
        else:
            prev = sigma - loc_big.var(aux[k])
            to_prev = _lift_map(base, loc_big, {var: loc_big.var(var) * prev})
            prev_inv = inv_word(substitute_word(d.word, to_prev, loc_big))
            # one product, so that the seam pair x_a(-p(sigma - u_k)) *
            # x_a(p(sigma)) merges into one generator before dilation
            w_k = collect(Prod(_factors(prev_inv) + _factors(a_word)))
        i_loc_big = problem.ideal.substitute(_lift_map(base, loc_big), loc_big)
        pullbacks.append(pullback(eng_w, w_k, i_loc_big, aux[k]))
    exponents = [l_k for l_k, _, _, _ in pullbacks]

    # pin the auxiliary variables: 1 = sum of p_k * s_k^{l_k}, u_k -> p_k
    # in its own word and u_j -> p_j * s_j^{l_j} in the others, so every
    # pinned word ends at the same partial sums of a partition of 1
    powered = [cover[k] ** exponents[k] for k in range(len(data))]
    combo = unimodular_combination(base, powered)
    pinned_vals = [powered[k] * combo[k] for k in range(len(data))]
    out_factors = []
    for k, (_, h_k, _, _) in enumerate(pullbacks):
        phi = _lift_map(base, base)
        for j in range(len(data)):
            phi[aux[j]] = combo[j] if j == k else pinned_vals[j]
        out_factors.extend(_factors(substitute_word(h_k, phi, base)))
    eng_base = RewriteEngine(problem.system, base, node_budget=node_budget)
    out = eng_base.shorten(Prod(tuple(out_factors)))

    for k, d in enumerate(data):
        loc = loc_rings[k]
        out_loc = substitute_word(out, _lift_map(base, loc), loc)
        if not loc_engines[k].equal(out_loc, d.word):
            raise OracleMismatch(
                "the glued word differs from local datum %d" % (k + 1)
            )
    details = {
        "cover": [str(s) for s in cover],
        "exponents": exponents,
        "coefficients": [str(c) for c in combo],
        "gluing_vars": aux,
        "dilations": [details_k for _, _, _, details_k in pullbacks],
    }
    return out, eng_base.finish(
        "patch", None, out, [(out, LevelShape(problem.ideal))], details=details
    )
