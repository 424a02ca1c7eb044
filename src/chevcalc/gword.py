"""Group words over elementary generators, with shape certificates.

A word is a tree built from five node kinds: a generator Gen(root, arg),
a formal inverse Inv, a product Prod, a conjugate Conj(base, by) meaning
by^-1 * base * by, and a commutator Comm(left, right) meaning
left^-1 * right^-1 * left * right.

`collect` is the one merging routine.  It drops generators with zero
argument and the nodes left around nothing, and merges adjacent factors
on one root, but never flattens Conj, Comm or Inv, so a collected word
keeps every shape certificate its input had, with no more attestations.
The pipeline runs it wherever a stage hands a word on.  `unwrap` is the
one walk through the Inv and Conj wrappers around a factor's core.

Shape certificates (LevelShape, RelConjShape, YShape, MixedCommShape,
BarShape) describe the subgroup a word visibly belongs to, one per
subgroup a lemma produces.  `check_shape` pattern matches a word against
a certificate and reports which factors, if any, could only be justified
by the matrix congruence oracle; without an oracle such words fail closed.
"""

from dataclasses import dataclass, field

from .errors import ParseError
from .exactring import IdealSpec, RingElement
from .rootsys import _vneg


# The node kinds carry slots: a run holds many small nodes, and a node
# without an instance dict takes less memory.
@dataclass(frozen=True, slots=True)
class Gen:
    root: tuple
    arg: RingElement


@dataclass(frozen=True, slots=True)
class Inv:
    word: object


@dataclass(frozen=True, slots=True)
class Prod:
    factors: tuple


@dataclass(frozen=True, slots=True)
class Conj:
    base: object
    by: object


@dataclass(frozen=True, slots=True)
class Comm:
    left: object
    right: object


EMPTY = Prod(())

_NODE_TYPES = (Gen, Inv, Prod, Conj, Comm)


def is_word(w):
    return isinstance(w, _NODE_TYPES)


def inv_word(w):
    """Structural inverse without introducing an Inv node where avoidable."""
    if isinstance(w, Gen):
        return Gen(w.root, -w.arg)
    if isinstance(w, Inv):
        return w.word
    if isinstance(w, Prod):
        return Prod(tuple(inv_word(f) for f in reversed(w.factors)))
    if isinstance(w, Conj):
        return Conj(inv_word(w.base), w.by)
    if isinstance(w, Comm):
        return Comm(w.right, w.left)
    raise TypeError("not a word: %r" % (w,))


def unwrap(w):
    """(core, inverted, by): w is core, or core^-1 when `inverted`,
    conjugated by `by` (None when w has no Conj wrapper).

    Strips Inv and Conj wrappers and one-factor products; inversion and
    conjugation commute, so the order of the wrappers does not matter.
    """
    inverted, by = False, None
    while True:
        if isinstance(w, Inv):
            inverted, w = not inverted, w.word
        elif isinstance(w, Conj):
            by = w.by if by is None else Prod((w.by, by))
            w = w.base
        elif isinstance(w, Prod) and len(w.factors) == 1:
            w = w.factors[0]
        else:
            return w, inverted, by


def flatten(w):
    """The word as a plain tuple of generators."""
    out = []
    _flatten_into(w, False, out)
    return tuple(out)


def _flatten_into(w, inverse, out):
    """Append the generators of w, or of w^-1 when `inverse`, to out."""
    if isinstance(w, Gen):
        out.append(Gen(w.root, -w.arg) if inverse else w)
    elif isinstance(w, Inv):
        _flatten_into(w.word, not inverse, out)
    elif isinstance(w, Prod):
        for f in reversed(w.factors) if inverse else w.factors:
            _flatten_into(f, inverse, out)
    elif isinstance(w, Conj):
        # (by^-1 base by)^-1 = by^-1 base^-1 by
        _flatten_into(w.by, True, out)
        _flatten_into(w.base, inverse, out)
        _flatten_into(w.by, False, out)
    elif isinstance(w, Comm):
        # [l, r] = l^-1 r^-1 l r and [l, r]^-1 = [r, l]
        a, b = (w.right, w.left) if inverse else (w.left, w.right)
        _flatten_into(a, True, out)
        _flatten_into(b, True, out)
        _flatten_into(a, False, out)
        _flatten_into(b, False, out)
    else:
        raise TypeError("not a word: %r" % (w,))


def node_count(w):
    if isinstance(w, Gen):
        return 1
    if isinstance(w, Inv):
        return 1 + node_count(w.word)
    if isinstance(w, Prod):
        return 1 + sum(node_count(f) for f in w.factors)
    if isinstance(w, (Conj, Comm)):
        a, b = (w.base, w.by) if isinstance(w, Conj) else (w.left, w.right)
        return 1 + node_count(a) + node_count(b)
    raise TypeError("not a word: %r" % (w,))


def collect(w):
    """An equal word, never larger, with the same node kinds.

    Drops generators with zero argument, and Conj, Inv and Comm nodes whose
    base (or one commutator side) collects to nothing; a Conj whose
    conjugator collects to nothing becomes its base.  In every product,
    conjugators included, adjacent generators on one root merge, and so do
    adjacent Conj(x_a(p), c) * Conj(x_a(q), c) into Conj(x_a(p + q), c);
    a merge that cancels exposes the next pair, folded greedily.  A product
    of one factor inside the word becomes that factor.  Conj, Comm and Inv
    are never flattened, so a factor that matched a shape certificate
    still matches it, and merging or dropping factors adds no attestation.
    A Prod input gives a Prod.
    """
    if isinstance(w, Prod):
        return Prod(tuple(_collect_factors(w.factors)))
    c = _collect(w)
    return EMPTY if c is None else c


def _collect(w):
    """The collected word, or None when it collects to nothing."""
    if isinstance(w, Gen):
        return None if w.arg.is_zero() else w
    if isinstance(w, Prod):
        factors = _collect_factors(w.factors)
        if not factors:
            return None
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))
    if isinstance(w, Inv):
        inner = _collect(w.word)
        return None if inner is None else Inv(inner)
    if isinstance(w, Conj):
        base = _collect(w.base)
        if base is None:
            return None
        by = _collect(w.by)
        return base if by is None else Conj(base, by)
    if isinstance(w, Comm):
        left = _collect(w.left)
        right = None if left is None else _collect(w.right)
        return None if right is None else Comm(left, right)
    raise TypeError("not a word: %r" % (w,))


def _collect_factors(factors):
    out = []
    for f in factors:
        f = _collect(f)
        if f is None:
            continue
        if out:
            merged = _merge_pair(out[-1], f)
            if merged is not None:
                out.pop()
                if merged is not EMPTY:
                    out.append(merged)
                continue
        out.append(f)
    return out


def _merge_pair(a, b):
    """a * b as one factor, EMPTY when it cancels, None when a and b do not
    merge.  Factors on the stack never merge with their neighbour, so a
    merge result cannot merge with the factor below it either."""
    if isinstance(a, Gen):
        if not isinstance(b, Gen) or a.root != b.root:
            return None
        arg = a.arg + b.arg
        return EMPTY if arg.is_zero() else Gen(a.root, arg)
    if (
        isinstance(a, Conj)
        and isinstance(b, Conj)
        and isinstance(a.base, Gen)
        and isinstance(b.base, Gen)
        and a.base.root == b.base.root
        and a.by == b.by
    ):
        arg = a.base.arg + b.base.arg
        return EMPTY if arg.is_zero() else Conj(Gen(a.base.root, arg), a.by)
    return None


def substitute_word(w, mapping, target):
    """Apply the ring map var -> mapping[var] into `target` to every
    generator argument.  The map is prepared once per argument ring
    (`Ring.substitution`), from the first generator over that ring."""
    maps = {}

    def walk(w):
        if isinstance(w, Gen):
            arg = w.arg
            sub = maps.get(arg.ring)
            if sub is None:
                sub = maps[arg.ring] = arg.ring.substitution(mapping, target)
            return Gen(w.root, sub(arg))
        if isinstance(w, Prod):
            return Prod(tuple([walk(f) for f in w.factors]))
        if isinstance(w, Inv):
            return Inv(walk(w.word))
        if isinstance(w, Conj):
            return Conj(walk(w.base), walk(w.by))
        if isinstance(w, Comm):
            return Comm(walk(w.left), walk(w.right))
        raise TypeError("not a word: %r" % (w,))

    return walk(w)


def word_args(w):
    return tuple(g.arg for g in flatten(w))


# ----- serialization -----


def _root_str(root):
    return ",".join(str(x) for x in root)


def root_from_text(rs, text):
    """Parse a root written as comma-separated integers, like 1,-1,0."""
    try:
        root = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError("bad root %r" % text) from None
    if not rs.contains(root):
        raise ParseError("%r is not a root of %s" % (root, rs))
    return root


def word_to_text(w):
    if isinstance(w, Gen):
        return "(x %s {%s})" % (_root_str(w.root), w.arg)
    if isinstance(w, Inv):
        return "(inv %s)" % word_to_text(w.word)
    if isinstance(w, Prod):
        if not w.factors:
            return "(prod)"
        return "(prod %s)" % " ".join(word_to_text(f) for f in w.factors)
    if isinstance(w, Conj):
        return "(conj %s %s)" % (word_to_text(w.base), word_to_text(w.by))
    if isinstance(w, Comm):
        return "(comm %s %s)" % (word_to_text(w.left), word_to_text(w.right))
    raise TypeError("not a word: %r" % (w,))


def _tokenize_word(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        elif c == "{":
            j = text.find("}", i)
            if j < 0:
                raise ParseError("unterminated argument block")
            tokens.append(("arg", text[i + 1 : j]))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "(){}":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def word_from_text(text, ring, rs):
    """Parse the S-expression form produced by word_to_text."""
    tokens = _tokenize_word(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of word")
        pos[0] += 1
        return tok

    def parse_arg():
        tok = take()
        if isinstance(tok, tuple):
            return ring.parse(tok[1])
        if tok in ("(", ")"):
            raise ParseError("expected an argument")
        return ring.parse(tok)

    def parse_word():
        if take() != "(":
            raise ParseError("expected '('")
        head = take()
        if head == "x":
            root_tok = take()
            if not isinstance(root_tok, str):
                raise ParseError("expected a root")
            root = root_from_text(rs, root_tok)
            arg = parse_arg()
            out = Gen(root, arg)
        elif head == "inv":
            out = Inv(parse_word())
        elif head == "prod":
            factors = []
            while peek() != ")":
                factors.append(parse_word())
            out = Prod(tuple(factors))
        elif head == "conj":
            out = Conj(parse_word(), parse_word())
        elif head == "comm":
            out = Comm(parse_word(), parse_word())
        else:
            raise ParseError("unknown word head %r" % (head,))
        if take() != ")":
            raise ParseError("expected ')'")
        return out

    w = parse_word()
    if pos[0] != len(tokens):
        raise ParseError("trailing tokens after word")
    return w


# ----- shape certificates -----


@dataclass(frozen=True)
class LevelShape:
    """Relative level word: generators with arguments in the ideal, closed
    under products, inverses, conjugation by arbitrary elementary words, and
    commutators with one side already matching."""

    ideal: IdealSpec


@dataclass(frozen=True)
class RelConjShape:
    """Product of level generators conjugated by controlled words.

    Factors are Conj(Gen(a, arg in level), by) where `by` is an arbitrary
    elementary word when conj_ideal is None, and a LevelShape(conj_ideal)
    word otherwise.  Bare level generators and Inv wrappers also match.
    """

    conj_ideal: object
    level: IdealSpec


@dataclass(frozen=True)
class YShape:
    """Product of single-conjugated generators staying away from one root.

    Factors are Conj(Gen(c, arg in level), Gen(b, arg in conj_ideal)) with
    both roots b, c outside {avoid, -avoid}, bare level generators away from
    the avoided pair, or Inv wrappers of either.
    """

    avoid: tuple
    conj_ideal: IdealSpec
    level: IdealSpec


@dataclass(frozen=True)
class MixedCommShape:
    """Product of commutators of a left-level word with a right-level word.

    Each factor is Comm(u, v), in either orientation, with u and v in the
    relative closures of the two levels; factors may be conjugated by
    arbitrary elementary words and inverted.
    """

    left: IdealSpec
    right: IdealSpec


@dataclass(frozen=True)
class BarShape:
    """MixedCommShape factors mixed with relative product-level factors.

    Factors that match neither grammar are attested: they are accepted
    only when the congruence oracle confirms them at level left*right.
    """

    left: IdealSpec
    right: IdealSpec


@dataclass(frozen=True)
class ShapeReport:
    ok: bool
    reason: str = ""
    attested: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.ok


def _fail(reason):
    return ShapeReport(False, reason)


_OK = ShapeReport(True)


def _merge(*reports):
    attested = ()
    for r in reports:
        if not r.ok:
            return r
        attested += r.attested
    return ShapeReport(True, "", attested)


def _args_in(w, spec):
    for g in flatten(w):
        if not spec.contains(g.arg):
            return _fail("argument %s of root %s outside %s" % (g.arg, g.root, spec.describe()))
    return _OK


def _match_rel_like(w, spec):
    """Words visibly inside the relative group of `spec` by normality."""
    if isinstance(w, Gen):
        if spec.contains(w.arg):
            return _OK
        return _fail("argument %s outside %s" % (w.arg, spec.describe()))
    if isinstance(w, Prod):
        return _merge(*(_match_rel_like(f, spec) for f in w.factors)) if w.factors else _OK
    if isinstance(w, Inv):
        return _match_rel_like(w.word, spec)
    if isinstance(w, Conj):
        return _match_rel_like(w.base, spec)
    if isinstance(w, Comm):
        left = _match_rel_like(w.left, spec)
        if left.ok:
            return left
        return _match_rel_like(w.right, spec)
    return _fail("not a word")


def _match_rel_conj_factor(w, conj_ideal, level):
    if isinstance(w, Inv):
        return _match_rel_conj_factor(w.word, conj_ideal, level)
    if isinstance(w, Gen):
        if level.contains(w.arg):
            return _OK
        return _fail("bare generator argument %s outside %s" % (w.arg, level.describe()))
    if isinstance(w, Conj):
        if not isinstance(w.base, Gen):
            return _fail("conjugated base is not a generator")
        if not level.contains(w.base.arg):
            return _fail("conjugated argument %s outside %s" % (w.base.arg, level.describe()))
        if conj_ideal is None:
            return _OK
        return _args_in(w.by, conj_ideal)
    return _fail("factor is not a conjugated generator")


def _match_y_factor(w, avoid, conj_ideal, level):
    banned = (tuple(avoid), _vneg(avoid))
    if isinstance(w, Inv):
        return _match_y_factor(w.word, avoid, conj_ideal, level)
    if isinstance(w, Gen):
        if w.root in banned:
            return _fail("bare generator sits on the avoided root pair")
        if level.contains(w.arg):
            return _OK
        return _fail("bare generator argument %s outside %s" % (w.arg, level.describe()))
    if isinstance(w, Conj):
        if not (isinstance(w.base, Gen) and isinstance(w.by, Gen)):
            return _fail("factor is not a one-generator conjugate")
        if w.base.root in banned or w.by.root in banned:
            return _fail("factor touches the avoided root pair")
        if not level.contains(w.base.arg):
            return _fail("base argument %s outside %s" % (w.base.arg, level.describe()))
        if not conj_ideal.contains(w.by.arg):
            return _fail("conjugator argument %s outside %s" % (w.by.arg, conj_ideal.describe()))
        return _OK
    return _fail("factor is not a one-generator conjugate")


def _match_mixed_factor(w, left, right):
    if isinstance(w, Inv):
        return _match_mixed_factor(w.word, left, right)
    if isinstance(w, Conj):
        return _match_mixed_factor(w.base, left, right)
    if isinstance(w, Comm):
        # Prefer a fully structural orientation; a side that misses the
        # grammar degrades to a congruence attestation at its slot ideal.
        best = None
        for l_spec, r_spec in ((left, right), (right, left)):
            a = _match_rel_like(w.left, l_spec)
            b = _match_rel_like(w.right, r_spec)
            if not a.ok:
                a = ShapeReport(True, "", ((w.left, l_spec),))
            if not b.ok:
                b = ShapeReport(True, "", ((w.right, r_spec),))
            cand = _merge(a, b)
            if best is None or len(cand.attested) < len(best.attested):
                best = cand
        return best
    return _fail("factor is not a commutator")


def _factors(w):
    return w.factors if isinstance(w, Prod) else (w,)


def check_shape(w, cert, oracle=None):
    """Match a word against a shape certificate.

    Returns a ShapeReport.  Attested subwords (certified only by matrix
    congruence) are verified through `oracle(word, spec) -> bool`; with no
    oracle their presence fails the check.
    """
    report = _check(w, cert)
    if not report.ok:
        return report
    if report.attested and oracle is None:
        return _fail("certificate needs a congruence oracle for %d factor(s)" % len(report.attested))
    for sub, spec in report.attested:
        if not oracle(sub, spec):
            return _fail("congruence attestation failed at %s" % spec.describe())
    return report


def _check(w, cert):
    if isinstance(cert, LevelShape):
        return _match_rel_like(w, cert.ideal)
    if isinstance(cert, RelConjShape):
        reports = []
        for f in _factors(w):
            r = _match_rel_conj_factor(f, cert.conj_ideal, cert.level)
            if not r.ok:
                r = ShapeReport(True, "", ((f, cert.level),))
            reports.append(r)
        return _merge(*reports)
    if isinstance(cert, YShape):
        return _merge(
            *(_match_y_factor(f, cert.avoid, cert.conj_ideal, cert.level) for f in _factors(w))
        )
    if isinstance(cert, MixedCommShape):
        return _merge(
            *(_match_mixed_factor(f, cert.left, cert.right) for f in _factors(w))
        )
    if isinstance(cert, BarShape):
        product_level = cert.left.product(cert.right)
        reports = []
        for f in _factors(w):
            r = _match_mixed_factor(f, cert.left, cert.right)
            if not r.ok:
                r2 = _match_rel_conj_factor(f, None, product_level)
                r = r2 if r2.ok else ShapeReport(True, "", ((f, product_level),))
            reports.append(r)
        return _merge(*reports)
    raise TypeError("unknown certificate %r" % (cert,))
