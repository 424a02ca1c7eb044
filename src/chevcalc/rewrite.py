"""Certified word rewriting for the lemmas of the local-global principle.

Every operation takes a word (or the data for one), produces a word of a
prescribed shape, and returns a RewriteReceipt alongside it.  Four
builders return their word unchecked, for the stage that calls them to
check once: `shorten`, a collector like `gword.collect`; `split_pieces`,
of `lgp.pullback` (dilate's builder); `conjugation_normalize` and
`mixed_pieces`, of `lgp.ninth_power_rewrite` (for_dilation's builder).

RewriteEngine owns the matrix representations of one (system, ring) pair
and is the only place where words meet the oracle: `evaluate` gives a
word's matrices, `equal` compares two words, `congruence_oracle` tests
a word against the identity modulo an ideal and `trivial_at_zero` tests
it at var = 0 through the retraction var -> 0.  Each op is a function of
its arguments alone: the engine keeps no state between calls, so every
word is evaluated where it is checked.  `equal` evaluates only where two
words differ: it flattens both to their generators, returns at once when
the sequences are identical (a re-associated tree, a conjugate written
out) and otherwise compares the matrices of what lies between their
common prefix and suffix.  That stays exact: the shared ends evaluate to
invertible matrices, so they cancel from both sides.

Every engine op, and every stage of the patching pipeline, builds its
receipt through `finish`, which issues the receipt only after two
independent checks pass: the output evaluates to the same matrix as its
target in every representation, and each certified part matches its
shape (`require_shapes`, which also decides the pipeline's gates).
Factors that the grammar alone cannot place are attested by a matrix
congruence check; the receipt records how many such attestations were
needed (zero on the fully structural paths).
"""

import itertools
from dataclasses import dataclass, field

from .chevrep import congruence_check, get_representation
from .errors import (
    BudgetExhausted,
    ConditionViolated,
    CongruenceFailed,
    NodeBudgetExceeded,
    NoUnitCombination,
    NotExtendedIdeal,
    NotInIdeal,
    NotSplittingIdeal,
    OracleMismatch,
    UndecidableIdealClass,
)
from .exactring import IdealSpec
from .gword import (
    EMPTY,
    BarShape,
    Comm,
    Conj,
    Gen,
    Inv,
    LevelShape,
    MixedCommShape,
    Prod,
    YShape,
    _match_rel_like,
    check_shape,
    collect,
    flatten,
    is_word,
    node_count,
    substitute_word,
    unwrap,
    word_to_text,
)
from .rootsys import (
    _vneg,
    _vsum,
    compute_structure_constants,
    find_unit_sum_decomposition,
    system_from_label,
)


def _conj_factor(f, by):
    """Conjugate a factor, merging conjugators instead of nesting them."""
    if by is None or by == EMPTY:
        return f
    if isinstance(f, Conj):
        inner = f.by.factors if isinstance(f.by, Prod) else (f.by,)
        outer = by.factors if isinstance(by, Prod) else (by,)
        return Conj(f.base, Prod(inner + outer))
    return Conj(f, by)


def _inv_factors(pieces):
    """Invert a factor list, keeping commutator cores side-stable.

    inv_word would rewrite [a,b]^-1 as [b,a]; an explicit Inv node leaves
    the generation side of each core where the shape grammar looks for it.
    """
    out = []
    for p in reversed(pieces):
        if isinstance(p, Conj):
            out.append(Conj(Inv(p.base), p.by))
        else:
            out.append(Inv(p))
    return out


def unit_from_idempotent_defect(ring):
    """A finite combination sum(a_i * (r_i**2 - r_i)) = 1 in the ring.

    The defects r**2 - r generate the unit ideal exactly when no residue
    field of the ring is F2, so the search is guarded by that test and the
    failure is a NoUnitCombination, not a timeout.
    """
    if not ring.no_f2_residue():
        raise NoUnitCombination(
            "every element r of %s has r^2 - r in the kernel of a map onto "
            "the field of two elements" % ring
        )
    combo = None
    if ring.n_invertible(2):
        # r = 2 gives defect 2; divide it away.
        combo = ((ring.inverse_of_int(2), ring.int_(2)),)
    else:
        candidates = []
        for n in ring.var_names:
            candidates += [-ring.var(n), ring.var(n)]
        if ring.loc_num is not None:
            candidates += [ring.s_power(k) for k in (1, 2, 3)]
        for r in candidates:
            d = r * r - r
            if d.is_zero():
                continue
            for k in range(5):
                target = ring.one() if k == 0 else ring.loc_element() ** k
                q = target.divide_exact(d)
                if q is not None:
                    a = q if k == 0 else q * ring.s_power(k)
                    combo = ((a, r),)
                    break
            if combo:
                break
        if combo is None:
            raise NoUnitCombination(
                "no small idempotent defect generates the unit ideal of %s" % ring
            )
    total = ring.zero()
    for a, r in combo:
        total = total + a * (r * r - r)
    if not (total - ring.one()).is_zero():
        raise OracleMismatch("idempotent defect combination does not sum to 1")
    return combo


def check_var(ring, var):
    """Raise NotSplittingIdeal unless `var` names a polynomial variable of
    ring; every lemma that takes a variable checks it here at its entry."""
    if var not in ring.var_names:
        raise NotSplittingIdeal("%r is not a polynomial variable of %s" % (var, ring))


def _json_native(v):
    """v as JSON data: ints, bools and None as they are, lists and tuples as
    lists, dicts as dicts with string keys, anything else as its str()."""
    if v is None or isinstance(v, int):
        return v
    if isinstance(v, (list, tuple)):
        return [_json_native(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_native(x) for k, x in v.items()}
    return str(v)


@dataclass
class RewriteReceipt:
    """What a rewrite did and how it was checked."""

    op: str
    input_word: object
    output_word: object
    certificate: object = None
    nodes_in: int = 0
    nodes_out: int = 0
    attested: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "op": self.op,
            # every receipt comes from `finish`, which checks before it issues
            "oracle_checked": True,
            "nodes_in": self.nodes_in,
            "nodes_out": self.nodes_out,
            "attested": self.attested,
            "details": _json_native(self.details),
        }
        if is_word(self.input_word):
            out["input"] = word_to_text(self.input_word)
        if is_word(self.output_word):
            out["output"] = word_to_text(self.output_word)
        if isinstance(self.certificate, tuple):
            out["certificate"] = [type(c).__name__ for c in self.certificate]
        elif self.certificate is not None:
            out["certificate"] = type(self.certificate).__name__
        return out


# the largest node count an engine lets a word it certifies reach
DEFAULT_NODE_BUDGET = 200000


class RewriteEngine:
    """Rewrites words over one root system and one ring, running the
    matrix oracle and the certificate check on every receipt it issues."""

    def __init__(self, rs, ring, node_budget=DEFAULT_NODE_BUDGET):
        if isinstance(rs, str):
            rs = system_from_label(rs)
        self.rs = rs
        self.sc = compute_structure_constants(rs)
        self.ring = ring
        self.node_budget = node_budget
        self.reps = [get_representation(rs, "adjoint")]
        if rs.label in ("A", "C"):
            self.reps.append(get_representation(rs, "defining"))

    # ----- the oracle -----

    def evaluate(self, w):
        """The matrices of w, one per representation, in `reps` order."""
        return [rep.evaluate_word(w, self.ring) for rep in self.reps]

    def _generators(self, w):
        """w's generators as (root, argument) pairs over the engine's ring,
        without the x_a(0) that evaluation skips."""
        coerce = self.ring.coerce
        out = []
        for g in flatten(w):
            r = coerce(g.arg)
            if r.num:
                out.append((g.root, r))
        return out

    def equal(self, a, b):
        """Do a and b evaluate alike?

        Both words are flattened to their generators.  Identical sequences
        are equal with nothing evaluated.  Otherwise the words read P·u·S
        and P·v·S for their longest common prefix P and suffix S, and only
        the middles u and v are evaluated: M(P·u·S) = M(P)·M(u)·M(S) with
        M(P) and M(S) invertible, so the words are equal exactly when
        M(u) = M(v).  Stops at the first representation that tells them
        apart.
        """
        ga, gb = self._generators(a), self._generators(b)
        if ga == gb:
            return True
        n = min(len(ga), len(gb))
        i = 0
        while i < n and ga[i] == gb[i]:
            i += 1
        j = 0
        while j < n - i and ga[-1 - j] == gb[-1 - j]:
            j += 1
        mid_a = Prod(tuple(Gen(root, r) for root, r in ga[i : len(ga) - j]))
        mid_b = Prod(tuple(Gen(root, r) for root, r in gb[i : len(gb) - j]))
        return all(
            rep.evaluate_word(mid_a, self.ring) == rep.evaluate_word(mid_b, self.ring)
            for rep in self.reps
        )

    def congruence_oracle(self):
        """A check(word, spec) callable: is the word congruent to the
        identity modulo spec in every representation?"""

        def check(word, spec):
            for rep in self.reps:
                if not congruence_check(rep.evaluate_word(word, self.ring), spec):
                    return False
            return True

        return check

    def require_shapes(self, pairs, error, what):
        """The ShapeReports of (word, shape) `pairs`, checked in order with
        one congruence oracle; the first that fails raises
        error("<what>: <reason>").  Every shape refusal is decided here."""
        oracle = self.congruence_oracle()
        reports = []
        for word, shape in pairs:
            report = check_shape(word, shape, oracle)
            if not report.ok:
                raise error("%s: %s" % (what, report.reason))
            reports.append(report)
        return reports

    def finish(self, op, w_in, w_out, shapes, target=None, details=None):
        """The receipt of an op or stage that turned w_in into w_out.

        Gates the node budget, then checks that w_out equals `target`
        (skipped when None, as for output over another ring) and each
        (word, shape) pair of `shapes` (`require_shapes`, OracleMismatch).
        A (word, shape, report) triple carries the passing report of a
        gate that has already checked that shape on that word: it is
        counted, not checked again.  The certificate is the shape, or the
        tuple of shapes when there are several.
        """
        nodes_in = node_count(w_in) if is_word(w_in) else 0
        nodes_out = node_count(w_out)
        if nodes_out > self.node_budget:
            raise NodeBudgetExceeded(
                "%s produced %d nodes (budget %d)" % (op, nodes_out, self.node_budget)
            )
        if target is not None and not self.equal(w_out, target):
            raise OracleMismatch("%s output differs from its target" % op)
        fresh = [entry for entry in shapes if len(entry) == 2]
        reports = [entry[2] for entry in shapes if len(entry) == 3]
        reports += self.require_shapes(fresh, OracleMismatch, "%s certificate failed" % op)
        attested = sum(len(report.attested) for report in reports)
        certs = tuple(entry[1] for entry in shapes)
        return RewriteReceipt(
            op,
            w_in,
            w_out,
            certs[0] if len(certs) == 1 else certs,
            nodes_in,
            nodes_out,
            attested,
            details or {},
        )

    def _require_rank(self):
        if self.rs.rank < 2:
            raise ConditionViolated(
                "rank-one systems leave no roots to avoid; need rank >= 2"
            )

    def _c_like(self):
        return self.rs.label == "C" or (self.rs.label == "B" and self.rs.rank == 2)

    def _require_no_f2(self, why):
        if not self.ring.no_f2_residue():
            raise ConditionViolated(
                "%s over %s: a residue field of two elements blocks %s"
                % (self.rs, self.ring, why)
            )

    # ----- commutator expansion -----

    def _comm_gens(self, beta, gamma, p, q):
        """[x_beta(p), x_gamma(q)] as generators, one per Chevalley
        coefficient in `comm_coeffs` order ((1,1) first).  beta != +-gamma."""
        return [
            Gen(_vsum(beta, gamma, i, j), self.ring.int_(c) * p**i * q**j)
            for (i, j), c in self.sc.comm_coeffs(beta, gamma)
        ]

    # ----- shortening -----

    def shorten(self, w):
        """An equal word with no more generators or nodes than w.

        `collect` first, then two exact rules read off the structure
        constants, in every product of the word (conjugators and
        commutator sides included), repeated until the generator count
        stops falling.  With x^y = y^-1 x y and [x, y] = x^-1 y^-1 x y:

        - merge across commuting generators: x_a(q) joins the nearest
          earlier x_a(p) when every factor between them is a plain
          generator x_b(r) with b != -a and no Chevalley coefficient for
          (a, b), so that x_b(r) commutes with x_a(q);
        - expand short commutators: Comm(x_b(p), x_c(u)) and the written-
          out pair x_b(p) * Conj(x_b(-p), x_c(u)), which is
          [x_b(-p), x_c(u)], become their Chevalley expansion when it has
          fewer than 4 generators (none when c = b; c = -b never expands).

        Every rule removes at least one generator and adds no node.  Every
        new argument is a sum of old ones, or a multiple of each argument
        of its commutator, so a LevelShape certificate still holds.  A
        written-out pair whose Conj factor matches RelConjShape becomes
        generators whose arguments are multiples of its conjugated
        argument, so they match it too: `conjugation_normalize` shortens
        its peel state.  Comm nodes that MixedCommShape and BarShape match
        may be written out, so the output of `lgp.ninth_power_rewrite`, which
        mixes them in, keeps plain `collect`.  Nothing is evaluated here:
        the caller's checks are the acceptance test.
        """
        w = collect(w)
        n = len(flatten(w))
        while True:
            nxt = collect(self._shortened(w))
            m = len(flatten(nxt))
            if m >= n:
                return w
            w, n = nxt, m

    def _shortened(self, w):
        """One pass of `shorten`'s rules over every product in w."""
        if isinstance(w, Prod):
            out = []
            for f in w.factors:
                f = self._shortened(f)
                gens = self._short_expansion(out, f)
                if gens is None and isinstance(f, Gen):
                    gens = (f,)
                if gens is None:
                    out.append(f)
                else:
                    for g in gens:
                        self._push_merging(out, g)
            return Prod(tuple(out))
        if isinstance(w, Inv):
            return Inv(self._shortened(w.word))
        if isinstance(w, Conj):
            return Conj(self._shortened(w.base), self._shortened(w.by))
        if isinstance(w, Comm):
            return Comm(self._shortened(w.left), self._shortened(w.right))
        return w

    def _short_expansion(self, out, f):
        """The generators of f, or of out[-1] * f (then popped), when f is a
        short commutator; None otherwise."""
        if isinstance(f, Comm):
            if isinstance(f.left, Gen) and isinstance(f.right, Gen):
                return self._short_comm(f.left, f.right)
        elif isinstance(f, Conj) and out and isinstance(out[-1], Gen):
            b, c, head = f.base, f.by, out[-1]
            if (
                isinstance(b, Gen)
                and isinstance(c, Gen)
                and b.root == head.root
                and (b.arg + head.arg).is_zero()
            ):
                gens = self._short_comm(b, c)
                if gens is not None:
                    out.pop()
                return gens
        return None

    def _short_comm(self, b, c):
        """[b, c] for generators b, c as fewer than 4 generators, or None."""
        if self._roots_commute(b.root, c.root):
            return []
        if c.root == _vneg(b.root) or len(self.sc.comm_coeffs(b.root, c.root)) >= 4:
            return None
        return self._comm_gens(b.root, c.root, b.arg, c.arg)

    def _push_merging(self, out, g):
        """Append x_a(q) to out, merged into the nearest earlier x_a(p) when
        only generators that commute with it stand between them."""
        if g.arg.is_zero():
            return
        a = g.root
        for i in range(len(out) - 1, -1, -1):
            h = out[i]
            if not isinstance(h, Gen):
                break
            if h.root == a:
                arg = h.arg + g.arg
                if arg.is_zero():
                    del out[i]
                else:
                    out[i] = Gen(a, arg)
                return
            if not self._roots_commute(a, h.root):
                break
        out.append(g)

    def _roots_commute(self, a, b):
        """Do x_a(p) and x_b(q) commute for all p, q?  They do when a = b,
        and when b != -a and the commutator formula has no term: then
        a + b is no root, so by the root strings neither is 2a + b or
        a + 2b."""
        return a == b or (b != _vneg(a) and not self.sc.comm_coeffs(a, b))

    def _words_commute(self, x, y):
        """Does every generator root of x commute with every one of y?
        Then the words commute, whatever their arguments."""
        xs = {g.root for g in flatten(x)}
        ys = {g.root for g in flatten(y)}
        return all(self._roots_commute(a, b) for a in xs for b in ys)

    # ----- retraction splitting -----

    def _check_splitting_var(self, var):
        check_var(self.ring, var)
        if self.ring.loc_num is not None:
            idx = self.ring.var_names.index(var)
            if any(e[idx] for e in self.ring.loc_num):
                raise NotSplittingIdeal(
                    "the localized element involves %r, so setting it to zero "
                    "is not a ring retraction" % var
                )

    def _retraction(self, var):
        return {
            n: (self.ring.zero() if n == var else self.ring.var(n))
            for n in self.ring.var_names
        }

    def trivial_at_zero(self, w, var):
        """Is w the identity at var = 0?

        M(w) = 1 mod (var) exactly when M(w)(var = 0) = 1, so w is mapped
        through the retraction var -> 0, collected and compared with the
        empty word.  A word whose generators all vanish at 0 collects to
        nothing and evaluates nothing; otherwise only the generators that
        survive the retraction are evaluated.
        """
        self._check_splitting_var(var)
        at_zero = substitute_word(w, self._retraction(var), self.ring)
        return self.equal(collect(at_zero), EMPTY)

    def _absolute_split_parts(self, w, retraction):
        """(retract word, tail factors) with w = retract * tail.

        `retraction` is a prepared ring map, var -> 0 in `split_pieces`.
        Each generator x_a(p) splits as x_a(p(0)) * x_a(p - p(0)); pushing
        every retract generator left across the rest of the word leaves
        each var-divisible piece conjugated by the retract generators after
        it, so the tail lies in the level of (var)."""
        gens = flatten(w)
        retracts = [retraction(g.arg) for g in gens]
        retract_gens = [
            Gen(g.root, r) for g, r in zip(gens, retracts) if not r.is_zero()
        ]
        tail = []
        for i, g in enumerate(gens):
            v = g.arg - retracts[i]
            if v.is_zero():
                continue
            suffix = [
                Gen(gens[m].root, retracts[m])
                for m in range(i + 1, len(gens))
                if not retracts[m].is_zero()
            ]
            piece = Gen(g.root, v)
            tail.append(Conj(piece, Prod(tuple(suffix))) if suffix else piece)
        return Prod(tuple(retract_gens)), tail

    # ----- decomposition avoiding a root -----

    def _c_long_config(self, alpha):
        """(beta, gamma, delta, N11, N12, c2) with alpha = beta + 2*gamma.

        beta long, gamma and delta = beta + gamma short; the beta/gamma
        string is exactly {(1,1), (1,2)} with |N12| = 1 and the delta/gamma
        string is a single (1,1) with |c2| = 2.
        """
        rs = self.rs
        if rs.num_lengths() != 2 or not rs.is_long(alpha):
            return None
        for gamma in sorted(r for r in rs.roots if rs.is_short(r)):
            beta = _vsum(alpha, gamma, 1, -2)
            if not rs.contains(beta) or not rs.is_long(beta):
                continue
            delta = _vsum(beta, gamma)
            if not rs.contains(delta) or not rs.is_short(delta):
                continue
            bg = self.sc.comm_coeffs(beta, gamma)
            if len(bg) != 2 or bg[0][0] != (1, 1) or bg[1][0] != (1, 2):
                continue
            if abs(bg[1][1]) != 1:
                continue
            dg = self.sc.comm_coeffs(delta, gamma)
            if len(dg) != 1 or dg[0][0] != (1, 1) or abs(dg[0][1]) != 2:
                continue
            return beta, gamma, delta, bg[0][1], bg[1][1], dg[0][1]
        return None

    def _y_route_unit(self, beta, gamma, eps, big_x, r):
        """x_alpha(X*r) via [x_beta(X), x_gamma(eps*r)], tail peeled off."""
        er = eps * r
        head = [Gen(beta, -big_x), Conj(Gen(beta, big_x), Gen(gamma, er))]
        # the (1,1) term comes first and is nonzero for a unit pair
        tail = self._comm_gens(beta, gamma, big_x, er)[1:]
        return head + [Gen(g.root, -g.arg) for g in reversed(tail)]

    def _y_route_square(self, config, p0, q):
        """x_alpha(p0 * q**2) from the length-two string, no unit needed."""
        beta, gamma, delta, n11, n12, _ = config
        sp = self.ring.int_(n12) * p0
        return [
            Gen(delta, self.ring.int_(-n11 * n12) * p0 * q),
            Gen(beta, -sp),
            Conj(Gen(beta, sp), Gen(gamma, q)),
        ]

    def _y_route_double(self, config, p, q):
        """x_alpha(2*p*q) as a single short-short commutator."""
        _, gamma, delta, _, _, c2 = config
        sigma = 1 if c2 > 0 else -1
        sp = self.ring.int_(sigma) * p
        return [Gen(delta, -sp), Conj(Gen(delta, sp), Gen(gamma, q))]

    def _decompose_factors(self, alpha, value, i_spec, j_spec):
        """Factor list for x_alpha(value) avoiding +-alpha, plus route info."""
        self._require_rank()
        if (self._c_like() and self.rs.rank == 2) or self.rs.label == "G":
            self._require_no_f2("the avoided-root decomposition")
        if value.is_zero():
            return [], "zero"
        ij = i_spec.product(j_spec)
        pair = find_unit_sum_decomposition(self.sc, alpha, self.ring)
        if pair is not None:
            beta, gamma, eps = pair
            fund = ij.product(j_spec)
            factors = []
            for coeff, tag in fund.witness(value):
                _, t_ij, t_j = tag
                big_x = coeff * ij.element_for_tag(t_ij)
                r = j_spec.element_for_tag(t_j)
                factors += self._y_route_unit(beta, gamma, eps, big_x, r)
            return factors, "unit-pair"
        config = self._c_long_config(alpha)
        if config is None:
            raise ConditionViolated(
                "no decomposition route for root %s of %s over %s"
                % (alpha, self.rs, self.ring)
            )
        fund = ij.product(j_spec.sym_power(2))
        factors = []
        for coeff, tag in fund.witness(value):
            _, t_ij, tb = tag
            p0 = coeff * ij.element_for_tag(t_ij)
            if tb[0] == "sq":
                factors += self._y_route_square(config, p0, j_spec.element_for_tag(tb[1]))
            elif tb[0] == "mx":
                g1 = j_spec.element_for_tag(tb[1])
                g2 = j_spec.element_for_tag(tb[2])
                factors += self._y_route_double(config, p0 * g1, g2)
            else:
                raise OracleMismatch("unexpected witness tag %r" % (tb,))
        return factors, "length-two-string"

    def decompose_avoiding_root(self, alpha, value, i_spec, j_spec):
        """x_alpha(value) as a word that never touches the roots +-alpha.

        value must be witnessed in I*J*J (unit-pair route) or I*J*J^(2)
        (two-length route); the output is certified Y(alpha, J, I*J).
        """
        alpha = tuple(alpha)
        if not self.rs.contains(alpha):
            raise ValueError("%s is not a root of %s" % (alpha, self.rs))
        value = self.ring.coerce(value)
        try:
            factors, route = self._decompose_factors(alpha, value, i_spec, j_spec)
        except (NotInIdeal, UndecidableIdealClass) as e:
            raise BudgetExhausted(
                "the level witness cannot fund x_%s(%s): %s" % (alpha, value, e)
            )
        out = Prod(tuple(factors))
        w_in = Gen(alpha, value)
        cert = YShape(alpha, j_spec, i_spec.product(j_spec))
        receipt = self.finish(
            "decompose_avoiding_root",
            w_in,
            out,
            [(out, cert)],
            w_in,
            details={"route": route},
        )
        return out, receipt

    # ----- mixed-commutator generation -----

    def _clean_unit_pair(self, alpha):
        """(beta, gamma, eps): beta + gamma = alpha, single-factor string,
        invertible leading coefficient."""
        for beta in sorted(self.rs.roots):
            gamma = _vsum(alpha, beta, 1, -1)
            if (
                not self.rs.contains(gamma)
                or beta == gamma
                or gamma == _vneg(beta)
            ):
                continue
            coeffs = self.sc.comm_coeffs(beta, gamma)
            if len(coeffs) != 1 or coeffs[0][0] != (1, 1):
                continue
            c = coeffs[0][1]
            if self.ring.n_invertible(c):
                return beta, gamma, self.ring.inverse_of_int(c)
        return None

    def _c_short_config(self, alpha):
        """(beta, gamma, alpha2, N11, N12): alpha = beta + gamma with beta
        long, string {(1,1),(1,2)}, correction landing on alpha2 long."""
        rs = self.rs
        if rs.num_lengths() != 2 or not rs.is_short(alpha):
            return None
        for beta in sorted(r for r in rs.roots if rs.is_long(r)):
            gamma = _vsum(alpha, beta, 1, -1)
            if not rs.contains(gamma) or not rs.is_short(gamma):
                continue
            alpha2 = _vsum(alpha, gamma)
            if not rs.contains(alpha2) or not rs.is_long(alpha2):
                continue
            coeffs = self.sc.comm_coeffs(beta, gamma)
            if len(coeffs) != 2 or coeffs[0][0] != (1, 1) or coeffs[1][0] != (1, 2):
                continue
            if abs(coeffs[0][1]) != 1:
                continue
            return beta, gamma, alpha2, coeffs[0][1], coeffs[1][1]
        return None

    def _defect_difference(self, beta, gamma, n12, p, q, defect_combo, stats):
        """x_alpha(p * q^2), paid for with the idempotent-defect combination.

        With s = N12*a the commutators [x_beta(s*r*p), x_gamma(q)] and
        [x_beta(s*p), x_gamma(r*q)] share their (1,1) component, so the
        inverse of the first times the second is x_alpha(a*(r^2-r)*p*q^2);
        summing over the combination leaves exactly x_alpha(p*q^2).  The
        inverse is written [g, h]^-1 = [h, g], so every piece is a bare
        commutator.
        """
        out = []
        for a, r in defect_combo:
            s = self.ring.int_(n12) * a
            out.append(Comm(Gen(gamma, q), Gen(beta, s * r * p)))
            out.append(Comm(Gen(beta, s * p), Gen(gamma, r * q)))
            stats["defect_terms"] += 1
        return out

    def _mixed_gen_factors(self, alpha, value, i_spec, j_spec, stats, depth=0):
        if depth > 2:
            raise ConditionViolated("mixed-commutator recursion did not settle")
        if value.is_zero():
            return []
        c_like_long = self._c_like() and self.rs.is_long(alpha)
        if not c_like_long:
            pair = self._clean_unit_pair(alpha)
            if pair is not None:
                beta, gamma, eps = pair
                out = []
                for coeff, tag in i_spec.product(j_spec).witness(value):
                    _, ti, tj = tag
                    p = eps * coeff * i_spec.element_for_tag(ti)
                    q = j_spec.element_for_tag(tj)
                    out.append(Comm(Gen(beta, p), Gen(gamma, q)))
                    stats["plain_terms"] += 1
                return out
        config = self._c_long_config(alpha)
        if config is not None:
            beta, gamma, delta, n11, n12, c2 = config
            sigma = 1 if c2 > 0 else -1
            # only square tags consume the defect combination; fetched on
            # first use so mixed and doubled witnesses work over any ring
            defect_combo = None
            two = IdealSpec.gens(self.ring, 2)
            fund = (
                i_spec.sym_power(2)
                .product(j_spec)
                .sum_with(two.product(i_spec).product(j_spec))
                .sum_with(i_spec.product(j_spec.sym_power(2)))
            )
            out = []
            for coeff, tag in fund.witness(value):
                side, sub = tag
                if side == "l" and sub[0] == "r":
                    # 2*I*J: x_alpha(2*coeff*u*v) doubles u*v
                    _, (_, _, ti), tj = sub[1]
                    p, q = i_spec.element_for_tag(ti), j_spec.element_for_tag(tj)
                else:
                    # I^(2)*J squares the I side, I*J^(2) the J side
                    if side == "l":
                        _, tb, tj = sub[1]
                        sq_spec, plain = i_spec, j_spec.element_for_tag(tj)
                    else:
                        _, ti, tb = sub
                        sq_spec, plain = j_spec, i_spec.element_for_tag(ti)
                    if tb[0] == "sq":
                        if defect_combo is None:
                            defect_combo = unit_from_idempotent_defect(self.ring)
                        q = sq_spec.element_for_tag(tb[1])
                        out += self._defect_difference(
                            beta, gamma, n12, coeff * plain, q, defect_combo, stats
                        )
                        continue
                    # a mixed square s1*s2 doubles plain*s1 against s2
                    p = plain * sq_spec.element_for_tag(tb[1])
                    q = sq_spec.element_for_tag(tb[2])
                p = self.ring.int_(sigma) * coeff * p
                out.append(Comm(Gen(delta, p), Gen(gamma, q)))
                stats["double_terms"] += 1
            return out
        config = self._c_short_config(alpha)
        if config is not None:
            beta, gamma, alpha2, n11, n12 = config
            out = []
            for coeff, tag in i_spec.product(j_spec).witness(value):
                _, ti, tj = tag
                u = i_spec.element_for_tag(ti)
                v = j_spec.element_for_tag(tj)
                p = self.ring.int_(n11) * coeff * u
                out.append(Comm(Gen(beta, p), Gen(gamma, v)))
                stats["plain_terms"] += 1
                correction = self.ring.int_(n12 * n11) * coeff * u * v * v
                out += self._mixed_gen_factors(
                    alpha2, -correction, i_spec, j_spec, stats, depth + 1
                )
            return out
        raise ConditionViolated(
            "no mixed-commutator route for root %s of %s over %s"
            % (alpha, self.rs, self.ring)
        )

    def relative_generation_witness(self, alpha, value, i_spec, j_spec):
        """x_alpha(value) as a product of level-I-by-level-J commutators.

        value must be witnessed in I^(2)*J + 2*I*J + I*J^(2) (long roots of
        the doubly-laced chains consume the idempotent-defect combination)
        or plainly in I*J where a single-factor root string exists.
        """
        alpha = tuple(alpha)
        if not self.rs.contains(alpha):
            raise ValueError("%s is not a root of %s" % (alpha, self.rs))
        self._require_rank()
        value = self.ring.coerce(value)
        stats = {"plain_terms": 0, "double_terms": 0, "defect_terms": 0}
        factors = self._mixed_gen_factors(alpha, value, i_spec, j_spec, stats)
        out = Prod(tuple(factors))
        w_in = Gen(alpha, value)
        receipt = self.finish(
            "relative_generation_witness",
            w_in,
            out,
            [(out, MixedCommShape(i_spec, j_spec))],
            w_in,
            details=stats,
        )
        return out, receipt

    # ----- conjugation normalization -----

    def _peel(self, f, peel, fund, depth, stats):
        """f conjugated by the generator `peel`, as (piece, depth) pairs.

        A generator off -peel.root expands by the Chevalley commutator
        formula, with arguments that are multiples of its own, and its
        pieces keep its depth.  A blocked generator (on -peel.root) goes to
        `_blocked_pieces` with `fund`, and its pieces sit one level deeper.
        A conjugate peels its base before its conjugator, so budget entries
        keep that order; a conjugator that peels to one piece stays
        unwrapped.  Decomposition pieces avoid +-the blocked root, so
        peeling them never re-enters `_blocked_pieces`.
        """
        if isinstance(f, Gen):
            if f.root == _vneg(peel.root):
                blocked = self._blocked_pieces(f, peel, fund, depth, stats)
                return [(p, depth + 1) for p in blocked]
            # x_a(w) ** x_b(r) = x_a(w) [x_a(w), x_b(r)]; equal roots commute
            if f.root == peel.root:
                return [(f, depth)]
            tail = self._comm_gens(f.root, peel.root, f.arg, peel.arg)
            return [(p, depth) for p in [f] + tail]
        if isinstance(f, Conj):
            base = self._peel(f.base, peel, fund, depth, stats)
            by = [p for p, _ in self._peel(f.by, peel, fund, depth, stats)]
            by_word = by[0] if len(by) == 1 else Prod(tuple(by))
            return [(_conj_factor(p, by_word), d) for p, d in base]
        if isinstance(f, Prod):
            return [x for g in f.factors for x in self._peel(g, peel, fund, depth, stats)]
        raise TypeError("%r is not peelable" % (f,))

    def _blocked_pieces(self, gen, peel, fund, depth, stats):
        """x_delta(w) ** x_{-delta}(r), decomposed with fund = (I, J) at depth 0.

        A deeper peel, or one whose witness cannot pay, stays the conjugate
        itself, an attestation; with no fund the peel raises BudgetExhausted.
        """
        if fund is None:
            raise BudgetExhausted(
                "conjugation by the opposite root of %s at depth %d has no "
                "funding level" % (gen.root, depth)
            )
        if depth == 0:
            try:
                factors, route = self._decompose_factors(gen.root, gen.arg, *fund)
            except (NotInIdeal, UndecidableIdealClass):
                pass
            else:
                stats["decompositions"] += 1
                stats["budget"].append(
                    {"depth": depth, "root": gen.root, "value": str(gen.arg), "note": route}
                )
                return [p for f in factors for p, _ in self._peel(f, peel, None, depth, None)]
        stats["attest_falls"] += 1
        return [Conj(gen, peel)]

    def conjugation_normalize(self, g, fund=None):
        """Peel the conjugator of Conj(Gen(alpha, a), c) one generator at a time.

        Peels on roots other than -alpha are plain Chevalley expansions and
        keep every argument a multiple of an existing one; a peel on -alpha
        is blocked and goes to `_blocked_pieces` with `fund`, None or (I, J).
        The peel state is one list of (factor, depth) pairs, each peel mapped
        over it by `_peel`, so two rules hold: the pieces of a blocked
        generator sit one level deeper than it, whether it stands alone or
        is the base of a conjugate, and decomposition pieces never re-enter
        `_blocked_pieces` (they avoid +-the blocked root).  A blocked peel
        puts the output in RelConjShape(J, I*J).
        The state is shortened between peels, so that no peel expands a
        piece an earlier merge removes: each maximal run of consecutive
        pairs of one depth becomes `shorten` of its product, and its factors
        keep that depth.  Pieces of different depths never merge, so a
        blocked peel still decomposes exactly its depth-0 pieces.

        Returns (word, stats) and checks nothing, like `shorten`: the word
        is collected (`gword.collect`), and stats holds the counts
        `decompositions` and `attest_falls` and the `budget` list, one
        {depth, root, value, note} entry per decomposition in peel order.
        """
        if isinstance(g, Gen):
            base, peels = g, ()
        elif isinstance(g, Conj) and isinstance(g.base, Gen):
            base, peels = g.base, flatten(g.by)
        else:
            raise TypeError("conjugation_normalize needs Conj(Gen(...), word)")
        stats = {"decompositions": 0, "attest_falls": 0, "budget": []}
        state = [(base, 0)]
        for peel in peels:
            state = [x for f, d in state for x in self._peel(f, peel, fund, d, stats)]
            state = [
                (f, d)
                for d, run in itertools.groupby(state, key=lambda x: x[1])
                for f in self.shorten(Prod(tuple(f for f, _ in run))).factors
            ]
        return collect(Prod(tuple(f for f, _ in state))), stats

    # ----- relative splitting -----

    def _rel_factor_list(self, w, outer=None):
        """Normalize a relative word to [(generator, conjugator-or-None)]."""
        if isinstance(w, Gen):
            return [(w, outer)]
        if isinstance(w, Inv):
            inner = self._rel_factor_list(w.word, outer)
            return [(Gen(g.root, -g.arg), by) for g, by in reversed(inner)]
        if isinstance(w, Prod):
            out = []
            for f in w.factors:
                out += self._rel_factor_list(f, outer)
            return out
        if isinstance(w, Conj):
            merged = w.by if outer is None else Prod((w.by, outer))
            return self._rel_factor_list(w.base, merged)
        if isinstance(w, Comm):
            expanded = Prod((Inv(w.left), Conj(w.left, w.right)))
            return self._rel_factor_list(expanded, outer)
        raise TypeError("not a word: %r" % (w,))

    def split_pieces(self, w, i_spec, var):
        """Split a level-I word living in the congruence group of (var).

        Each argument a splits as a = a(var=0) + rest; each conjugator b
        splits as b = c * d with c over the retract.  The variable-free
        parts x(u)^c collect on the right and must evaluate to the
        identity; what remains is mixed commutators [d, g^-1] plus factors
        at level I*(var).  The variable-free parts multiply to w at var = 0,
        so a word not trivial there raises CongruenceFailed at that check.
        The split is unchecked; `relative_split` is the checked op.
        """
        self._check_splitting_var(var)
        for g in i_spec.expand():
            if var in g.vars_used():
                raise NotExtendedIdeal(
                    "generator %s of %s involves %r" % (g, i_spec.describe(), var)
                )
        retraction = self.ring.substitution(self._retraction(var), self.ring)
        out_factors = []
        prefix = []
        for gen, byword in self._rel_factor_list(w):
            u = retraction(gen.arg)
            v = gen.arg - u
            if byword is None:
                c_word, d_factors = EMPTY, []
            else:
                c_word, d_factors = self._absolute_split_parts(byword, retraction)
            d_word = Prod(tuple(d_factors))
            g_word = None
            if not u.is_zero():
                g_word = Gen(gen.root, u)
                if c_word.factors:
                    g_word = Conj(g_word, c_word)
            p_word = Prod(tuple(prefix))
            if g_word is not None and d_word.factors:
                piece = Comm(d_word, Inv(g_word))
                if prefix:
                    piece = Conj(piece, Inv(p_word))
                out_factors.append(piece)
            if g_word is not None:
                prefix.append(g_word)
                p_word = Prod(tuple(prefix))
            if not v.is_zero():
                piece = Gen(gen.root, v)
                if byword is not None:
                    piece = Conj(piece, byword)
                if prefix:
                    piece = _conj_factor(piece, Inv(p_word))
                out_factors.append(piece)
        # collected first, so a remainder that cancels is compared as the
        # empty word and nothing is evaluated
        if not self.equal(collect(Prod(tuple(prefix))), EMPTY):
            raise CongruenceFailed(
                "the word is not congruent to the identity mod (%s)" % var
            )
        return Prod(tuple(out_factors))

    def relative_split(self, w, i_spec, var):
        """`split_pieces` checked: equal to w and of BarShape(I, (var))."""
        out = self.split_pieces(w, i_spec, var)
        shape = BarShape(i_spec, IdealSpec.gens(self.ring, self.ring.var(var)))
        return out, self.finish(
            "relative_split", w, out, [(out, shape)], w, details={"var": var}
        )

    # ----- moving the indeterminate -----

    def _hw_pieces(self, comm_f, comm_h, v):
        """[[f,h],v] split into at most two conjugated double commutators.

        The instance of the Hall-Witt identity used here, with
        x^y = y^-1 x y, is
        [[f,h],v] = [h^-1,[v,f^-1]]^(f h) * [f,[h^-1,v^-1]]^(v h);
        each core reads generation side first.  A piece whose inner
        commutator is trivial is omitted: the first when every generator
        root of v commutes with every one of f, the second when the same
        holds for h and v.  By the Chevalley commutator formula x_a and
        x_b commute when a + b is no root (`_roots_commute`), so the
        inner commutator is the identity whatever the arguments.
        """
        pieces = []
        if not self._words_commute(v, comm_f):
            core1 = Comm(Inv(comm_h), Comm(v, Inv(comm_f)))
            pieces.append(Conj(core1, Prod((comm_f, comm_h))))
        if not self._words_commute(comm_h, v):
            core2 = Comm(comm_f, Comm(Inv(comm_h), Inv(v)))
            pieces.append(Conj(core2, Prod((v, comm_h))))
        return pieces

    def _comm_with_product(self, pieces, v, stats):
        """[D_1 ... D_n, v] via [ab,c] = [a,c]^b [b,c], recursively."""
        if not pieces:
            return []
        if len(pieces) == 1:
            return self._comm_single(pieces[0], v, stats)
        head, rest = pieces[0], pieces[1:]
        rest_word = Prod(tuple(rest))
        out = [
            _conj_factor(p, rest_word) for p in self._comm_single(head, v, stats)
        ]
        return out + self._comm_with_product(rest, v, stats)

    def _comm_single(self, piece, v, stats):
        """[C^b, v] = [C, v^(b^-1)]^b for one generation commutator C^b,
        and [C, v] for a bare C.  Counts the Hall-Witt pieces omitted in
        stats["trivial_pieces"]."""
        core, by = (piece.base, piece.by) if isinstance(piece, Conj) else (piece, None)
        if not isinstance(core, Comm):
            raise TypeError("expected a commutator core, got %r" % (core,))
        v_in = v if by is None else Conj(v, Inv(by))
        pieces = self._hw_pieces(core.left, core.right, v_in)
        stats["trivial_pieces"] += 2 - len(pieces)
        return [_conj_factor(p, by) for p in pieces]

    def move_indeterminate(self, w, j_spec, k_spec):
        """Split a two-level word into a plain level part and mixed commutators.

        Input factors are either level factors at J*J^(2)*K, which route
        unchanged into the level part at J*K, or commutators of a level
        J*J^(2) word against a level-K word.  The left side of each
        commutator is re-generated as commutators [level J, level J] and
        Hall-Witt splitting moves the K-side inside, leaving factors whose
        sides sit at levels J and K*J.  The `trivial_pieces` detail counts
        the Hall-Witt pieces left out because their inner commutator is
        the identity (`_hw_pieces`).
        """
        kj = k_spec.product(j_spec)
        jk = j_spec.product(k_spec)
        level_acc = []
        mixed_acc = []
        stats = {
            "level_factors": 0,
            "comm_factors": 0,
            "witness_terms": 0,
            "trivial_pieces": 0,
        }
        for f in (w.factors if isinstance(w, Prod) else (w,)):
            if isinstance(unwrap(f)[0], Comm):
                mixed_acc += self.mixed_pieces(f, j_spec, stats)
                stats["comm_factors"] += 1
            else:
                # moving the level factor left across the mixed ones
                mixed_acc = [_conj_factor(m, f) for m in mixed_acc]
                level_acc.append(f)
                stats["level_factors"] += 1
        level_word = Prod(tuple(level_acc))
        mixed_word = Prod(tuple(mixed_acc))
        out = Prod((level_word, mixed_word))
        receipt = self.finish(
            "move_indeterminate",
            w,
            out,
            [(level_word, LevelShape(jk)), (mixed_word, MixedCommShape(j_spec, kj))],
            w,
            details=stats,
        )
        return level_word, mixed_word, receipt

    def mixed_pieces(self, f, j_spec, stats):
        """The E_{J,KJ} pieces of one commutator factor f (`gword.unwrap`):
        its core split by `_split_mixed_factor`, inverted and conjugated
        back.  Adds to stats' `witness_terms` and `trivial_pieces`, and
        checks nothing: its callers check the words they build."""
        un, invert, conj_by = unwrap(f)
        pieces = self._split_mixed_factor(un, j_spec, stats)
        if invert:
            pieces = _inv_factors(pieces)
        if conj_by is not None:
            pieces = [_conj_factor(p, conj_by) for p in pieces]
        return pieces

    def _split_mixed_factor(self, comm, j_spec, stats):
        """One [level J*J^(2), level K] commutator into E_{J,KJ} pieces."""
        left, right = comm.left, comm.right
        probe = j_spec.product(j_spec.sym_power(2))
        if not _match_rel_like(left, probe).ok:
            if not _match_rel_like(right, probe).ok:
                raise ConditionViolated(
                    "neither commutator side is a level word at %s" % probe.describe()
                )
            # commutator written K-side first; flip and invert
            pieces = self._split_mixed_factor(Comm(right, left), j_spec, stats)
            return _inv_factors(pieces)
        generated = []
        for gen, byword in self._rel_factor_list(left):
            sub_stats = {"plain_terms": 0, "double_terms": 0, "defect_terms": 0}
            for piece in self._mixed_gen_factors(gen.root, gen.arg, j_spec, j_spec, sub_stats):
                generated.append(_conj_factor(piece, byword) if byword else piece)
            stats["witness_terms"] += sum(sub_stats.values())
        return self._comm_with_product(generated, right, stats)
