"""Exact commutative rings for word rewriting.

The rings supported here are multivariate polynomial rings over Z or Z/m,
optionally localized at a single element s (denominators are powers of s).

An element is stored as num / s^den, num a dict exponent tuple -> nonzero
coefficient reduced modulo `Ring.mod`, and every element has one stored
form, so equality and hashing read it.  Over a Z base (`Ring.mod` 0) the
largest power s^k, k <= den, that divides num is divided out.  For an
integer s that is one division by s^k, k read off the gcd of the
coefficients; otherwise s is divided out one power at a time while the
division is exact.  Over Z/m unlocalized, `Ring.mod` is m and den is 0.
Over Z/m localized at an integer s, Z/m[1/s] is Z/m', m' the largest
divisor of m prime to s: of the factors Z/p^a of Z/m, s is a unit in
those with p prime to s and nilpotent in the others, which inverting s
kills.  There `Ring.mod` is m', den is 0 and 1/s^k is stored as the
integer (s^-1 mod m')^k; m' = 1 is the zero ring.  Z/m localized at a
non-integer is refused.  Two constructors keep the stored form.
`Ring._make` takes raw data (parsed text, substitution images, witness
coefficients, powers of 1/s): it reduces every coefficient and drops
zeros.  `Ring._normal` takes the result of a `_poly_*` kernel, which is
already reduced and free of zeros, and only fixes the denominator.

Most products have a one-term factor (an argument c*t^e, a power of an
integer s, a witness coefficient), so `_poly_mul` multiplies by a one-term
operand in one pass over the other: distinct exponents stay distinct under
a shift, so no term needs an accumulator.  Two multi-term factors take the
general double loop.  Exact division is long division: the remainder is
updated in place and a heap hands out its leading term.  Over Z/m a
one-term divisor need not be a unit (6t / 2 = 3t in Z/12[t]).

A ring map var -> image is prepared once (`Ring.substitution`) and then
applied to every matrix entry, word argument or ideal generator it moves.
Images c_i * x_i at each variable's own position, or zero (every lift in
`lgp`, var -> s^e * var for an integer s, the retraction var -> 0), keep
each term's exponent key and scale its coefficient; other one-term
images send each term to one term in one pass; other images take ring
products.  `RingElement.substitute` is one map applied to one element.

The ideal layer carries witnesses.  Membership tests never guess: they
answer True or False only for generator classes where the test is complete
(single-term generator sets, principal ideals with well-behaved leading
terms) and raise UndecidableIdealClass otherwise.
"""

import heapq
import math
import re
from operator import add, sub

from .errors import (
    NotInIdeal,
    OracleMismatch,
    ParseError,
    SubstitutionMismatch,
    UndecidableIdealClass,
    UnsupportedRing,
)

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

_MAX_S_POWER_SEARCH = 64


def _xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _combo_xgcd(values):
    """Return (g, coeffs) with sum(c*v) = g = gcd(values), g >= 0."""
    g = 0
    coeffs = []
    for v in values:
        g2, x, y = _xgcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs


def _prime_factors(n):
    """Return {p: multiplicity} for |n|, n not in (0, 1, -1)."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _strip_primes(c, primes):
    """Divide out of c every factor whose prime lies in `primes`.

    Returns (stripped, removed) with c = stripped * removed and
    gcd(stripped, p) = 1 for all p in primes.
    """
    if c == 0:
        return 0, 1
    removed = 1
    for p in primes:
        while c % p == 0:
            c //= p
            removed *= p
    return c, removed


def _int_quotient(a, n, mod):
    """An integer q with q * n = a over Z (mod = 0) or over Z/mod, or None
    when there is none."""
    if not mod:
        return None if a % n else a // n
    g = math.gcd(n, mod)
    if a % g:
        return None
    mg = mod // g
    return (a // g) * (pow((n // g) % mg, -1, mg) if mg > 1 else 0)


def _poly_mul(a, b, mod):
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((e, c),) = b.items()
        return _poly_mul_term(a, e, c, mod)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            c = out.get(e, 0) + ca * cb
            if mod:
                c %= mod
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _poly_mul_term(a, e, c, mod):
    """a * c*x^e in one pass.

    Distinct exponents of a stay distinct after the shift by e, so no term
    needs an accumulator; over Z/m a product can still vanish and is dropped.
    """
    shift = any(e)
    if not mod:
        if not shift:
            return {ea: ca * c for ea, ca in a.items()}
        return {tuple(map(add, ea, e)): ca * c for ea, ca in a.items()}
    out = {}
    for ea, ca in a.items():
        v = ca * c % mod
        if v:
            out[tuple(map(add, ea, e)) if shift else ea] = v
    return out


def _strip_int_s(num, den, s):
    """Divide the largest power s^k, k <= den, of the integer s out of
    num / s^den.  s^k divides num exactly when it divides the gcd of its
    coefficients; the keys of num are left as they are."""
    g = math.gcd(*num.values())
    k = 0
    while k < den and g % s == 0:
        g //= s
        k += 1
    if k:
        sk = s**k
        num = {e: c // sk for e, c in num.items()}
    return num, den - k


def _poly_add(a, b, mod, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if mod:
            v %= mod
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _lead_term(num):
    """Leading term under graded lex (total degree first, then exponents)."""
    e = max(num, key=lambda t: (sum(t), t))
    return e, num[e]


def _descending(e):
    """A heap entry that pops exponents in descending `_lead_term` order."""
    return (-sum(e), tuple(-x for x in e)), e


def _poly_divide(a, b, mod):
    """Exact division a / b, or None when no exact quotient is found.

    Long division; each step divides a leading coefficient by the
    divisor's with `_int_quotient`.  Complete over Z (a domain with a
    multiplicative leading term), and over Z/m when the divisor has one
    term (each term of a divides alone) or a unit leading coefficient.
    Otherwise a quotient it returns is exact, but it may miss one.
    """
    if not b:
        return None
    if not a:
        return {}
    eb, cb = _lead_term(b)
    # The remainder is updated in place; a heap of its exponents under the
    # same order hands out the leading term.  Every term a step adds sits
    # below the term it cancels, so a popped exponent that has left the
    # remainder is stale and is skipped.
    rem = dict(a)
    heap = [_descending(e) for e in rem]
    heapq.heapify(heap)
    tail = [(e, c) for e, c in b.items() if e != eb]
    quot = {}
    while rem:
        ea = heapq.heappop(heap)[1]
        ca = rem.pop(ea, None)
        if ca is None:
            continue
        eq = tuple(map(sub, ea, eb))
        cq = _int_quotient(ca, cb, mod)
        if cq is None or any(x < 0 for x in eq):
            return None
        if mod:
            cq %= mod
        quot[eq] = cq
        for e, c in tail:
            e = tuple(map(add, eq, e))
            old = rem.get(e)
            v = (0 if old is None else old) - cq * c
            if mod:
                v %= mod
            if v:
                rem[e] = v
                if old is None:
                    heapq.heappush(heap, _descending(e))
            elif old is not None:
                del rem[e]
    return quot


def _format_poly(num, var_names):
    if not num:
        return "0"
    terms = []
    for e in sorted(num, key=lambda t: (sum(t), t), reverse=True):
        c = num[e]
        parts = []
        for name, k in zip(var_names, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append("%s^%d" % (name, k))
        if not parts:
            body = str(abs(c))
        else:
            body = "*".join(parts)
            if abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
        terms.append(("-" if c < 0 else "+", body))
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += " %s %s" % (sign, body)
    return out


class Ring:
    """A polynomial ring over Z or Z/m with optional localization.

    Instances are immutable.  Two rings with the same parameters compare
    equal and their elements interoperate.
    """

    def __init__(self, base_mod=0, var_names=(), loc_num=None):
        if base_mod < 0 or base_mod == 1:
            raise UnsupportedRing("base modulus must be 0 (for Z) or >= 2")
        self.base_mod = base_mod
        self.var_names = tuple(var_names)
        for name in self.var_names:
            self._check_var_name(name)
        if len(set(self.var_names)) != len(self.var_names):
            raise UnsupportedRing("duplicate variable names")
        # loc_num: monomial dict of the localization element, in true vars
        self.loc_num = None if loc_num is None else dict(loc_num)
        if self.loc_num is not None and not any(self.loc_num.values()):
            raise UnsupportedRing("cannot localize at zero")
        # s as an int when it is an integer constant, else None
        self._loc_int = None if loc_num is None else self._as_int_constant(self.loc_num)
        # the modulus of stored coefficients; 1/s where it is an integer
        self.mod = base_mod
        self._s_inv = None
        if base_mod and self.loc_num is not None:
            if self._loc_int is None:
                raise UnsupportedRing(
                    "torsion bound needs an integer localization element over Z/m"
                )
            self.mod, _ = _strip_primes(base_mod, _prime_factors(self._loc_int))
            self._s_inv = pow(self._loc_int, -1, self.mod)
        self._key = (
            self.base_mod,
            self.var_names,
            None if self.loc_num is None else tuple(sorted(self.loc_num.items())),
        )
        # localize_at's results, keyed by the sorted terms of s
        self._localizations = {}

    @staticmethod
    def _check_var_name(name):
        if name == "s" or not _VAR_RE.match(name):
            raise UnsupportedRing("bad variable name %r ('s' is reserved)" % (name,))

    @classmethod
    def integers(cls):
        return cls(0, ())

    @classmethod
    def integers_mod(cls, m):
        if m < 2:
            raise UnsupportedRing("modulus must be >= 2")
        return cls(m, ())

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        # the parameters alone: a pickled element does not carry the
        # localizations cached on its ring
        return Ring, (self.base_mod, self.var_names, self.loc_num)

    def __str__(self):
        base = "Z" if self.base_mod == 0 else "Z/%d" % self.base_mod
        out = base
        if self.var_names:
            out += "[" + ",".join(self.var_names) + "]"
        if self.loc_num is not None:
            out += "[1/(%s)]" % _format_poly(self.loc_num, self.var_names)
        return out

    __repr__ = __str__

    # ----- construction of derived rings -----

    def extend(self, *names):
        """Adjoin new polynomial variables."""
        for name in names:
            if name in self.var_names:
                raise UnsupportedRing("variable %r already present" % (name,))
        pad = (0,) * len(names)
        loc = None
        if self.loc_num is not None:
            loc = {e + pad: c for e, c in self.loc_num.items()}
        return Ring(self.base_mod, self.var_names + tuple(names), loc)

    def localize_at(self, s):
        """Return the localization of this ring at s (an int or an element).

        Z/m at a non-integer element is refused (UnsupportedRing).  Each s
        gives one Ring, built on the first call and kept on this ring.
        """
        if self.loc_num is not None:
            raise UnsupportedRing("already localized; build from the base ring")
        if isinstance(s, int):
            s = self.int_(s)
        if s.ring != self or s.den != 0:
            raise UnsupportedRing("localization element must be denominator free")
        if not s.num:
            raise UnsupportedRing("cannot localize at zero")
        key = tuple(sorted(s.num.items()))
        loc = self._localizations.get(key)
        if loc is None:
            loc = Ring(self.base_mod, self.var_names, s.num)
            self._localizations[key] = loc
        return loc

    def delocalized(self):
        """The same polynomial ring without the localization."""
        return Ring(self.base_mod, self.var_names)

    # ----- element constructors -----

    def _make(self, num, den):
        """Normalize and wrap raw (num, den) data: coefficients are reduced
        modulo `Ring.mod` and zero terms dropped before `_normal`; where 1/s
        is an integer, 1/s^den is folded into them."""
        m = self.mod
        if den and self._s_inv is not None:
            num, den = {e: c * pow(self._s_inv, den, m) for e, c in num.items()}, 0
        clean = {}
        for e, c in num.items():
            if m:
                c %= m
            if c:
                clean[e] = c
        return self._normal(clean, den)

    def _normal(self, num, den):
        """Wrap (num, den) whose coefficients are already reduced and nonzero,
        as every `_poly_*` result is, in the canonical form."""
        if not num:
            return RingElement(self, num, 0)
        if den and not self.base_mod:
            num, den = self._strip_s(num, den)
        return RingElement(self, num, den)

    def _strip_s(self, num, den):
        """Divide the largest power s^k, k <= den, out of num / s^den.

        Z[vars] is a domain, so this form is canonical.
        """
        if self._loc_int is not None:
            return _strip_int_s(num, den, self._loc_int)
        while den:
            q = _poly_divide(num, self.loc_num, 0)
            if q is None:
                break
            num = q
            den -= 1
        return num, den

    def zero(self):
        return RingElement(self, {}, 0)

    def one(self):
        return self.int_(1)

    def int_(self, n):
        c = n % self.mod if self.mod else n
        if not c:
            return self.zero()
        return RingElement(self, {(0,) * len(self.var_names): c}, 0)

    def var(self, name):
        try:
            i = self.var_names.index(name)
        except ValueError:
            raise UnsupportedRing("no variable %r in %s" % (name, self)) from None
        e = [0] * len(self.var_names)
        e[i] = 1
        return RingElement(self, {tuple(e): 1} if self.mod != 1 else {}, 0)

    def loc_element(self):
        """The localization element s, as an element of this ring."""
        if self.loc_num is None:
            raise UnsupportedRing("ring is not localized")
        return self._make(dict(self.loc_num), 0)

    def s_power(self, k):
        """The element 1/s^k."""
        if k < 0:
            raise ValueError("negative power of 1/s")
        if k == 0:
            return self.one()
        if self.loc_num is None:
            raise UnsupportedRing("ring is not localized")
        return self._make({(0,) * len(self.var_names): 1}, k)

    def coerce(self, x):
        if isinstance(x, RingElement):
            if x.ring is not self and x.ring != self:
                raise SubstitutionMismatch("element of %s used in %s" % (x.ring, self))
            return x
        if isinstance(x, int):
            return self.int_(x)
        raise TypeError("cannot coerce %r" % (x,))

    def substitution(self, mapping, target):
        """The ring map var -> mapping[var] from this ring into `target`,
        prepared once for many elements (`_Substitution`)."""
        return _Substitution(self, mapping, target)

    # ----- equality and torsion -----

    def torsion_bound(self):
        """Smallest safe T with ann(s^T) = ann(s^inf) in the polynomial ring.

        Over a Z base the polynomial ring is a domain, so T = 0.  Over Z/m
        the bound is computed from prime multiplicities of the integer s:
        s^T kills the kernel of Z/m[vars] -> Z/m'[vars].
        """
        if self.loc_num is None or self.base_mod == 0:
            return 0
        v = _prime_factors(self._loc_int)
        pa = _prime_factors(self.base_mod).items()
        return max((-(-a // v[p]) for p, a in pa if p in v), default=0)

    def _as_int_constant(self, num):
        if not num:
            return 0
        if len(num) == 1:
            ((e, c),) = num.items()
            if not any(e):
                return c
        return None

    # ----- capability queries -----

    def _s_content_primes(self):
        """Primes that become invertible integers once s is inverted."""
        if self.loc_num is None:
            return set()
        content = 0
        for c in self.loc_num.values():
            content = math.gcd(content, c)
        if content in (0, 1):
            return set()
        return set(_prime_factors(content))

    def n_invertible(self, n):
        """Is the integer n a unit of this ring?"""
        if n == 0:
            return False
        if self.mod:
            return math.gcd(n, self.mod) == 1
        return set(_prime_factors(n)) <= self._s_content_primes()

    def inverse_of_int(self, n):
        """Return the element 1/n, or raise UnsupportedRing."""
        if not self.n_invertible(n):
            raise UnsupportedRing("%d is not invertible in %s" % (n, self))
        if self.mod:
            return self.int_(pow(n, -1, self.mod))
        if abs(n) == 1:
            return self.int_(n)
        # n is inverted through powers of s, whose content absorbs n.
        sk = dict(self.loc_num)
        for k in range(1, _MAX_S_POWER_SEARCH + 1):
            q = {e: _int_quotient(c, n, 0) for e, c in sk.items()}
            if None not in q.values():
                return self._make(q, k)
            sk = _poly_mul(sk, self.loc_num, 0)
        raise UnsupportedRing("no power of s absorbs %d" % n)

    def no_f2_residue(self):
        """True when no quotient of this ring by a maximal ideal is F2."""
        if self.n_invertible(2):
            return True
        if self.loc_num is None:
            return False
        # Residue fields F2 correspond to evaluations of the variables at
        # points of F2 composed with reduction mod 2; such a quotient
        # survives the localization exactly when s is nonzero at the point.
        n = len(self.var_names)
        for mask in range(1 << n):
            val = 0
            for e, c in self.loc_num.items():
                term = c % 2
                for i, ei in enumerate(e):
                    if ei and not (mask >> i) & 1:
                        term = 0
                        break
                val ^= term
            if val:
                return False
        return True

    def invert_s_smooth_term(self, c, exps):
        """Return 1/(c * x^exps) when c * x^exps divides a power of s."""
        if c == 0:
            raise UnsupportedRing("cannot invert zero")
        if abs(c) == 1 and not any(exps):
            return self.int_(c)
        if self.loc_num is None:
            raise UnsupportedRing("ring is not localized")
        s_term = self._single_term(self.loc_num)
        if s_term is None:
            raise UnsupportedRing("localization element is not a single term")
        cs, es = s_term
        for k in range(1, _MAX_S_POWER_SEARCH + 1):
            if any(k * esi < xi for esi, xi in zip(es, exps)):
                continue
            q = _int_quotient(cs**k, c, self.mod)
            if q is None:
                continue
            e = tuple(k * esi - xi for esi, xi in zip(es, exps))
            return self._make({e: q}, k)
        raise UnsupportedRing("term does not divide any power of s")

    @staticmethod
    def _single_term(num):
        if len(num) != 1:
            return None
        ((e, c),) = num.items()
        return c, e

    # ----- serialization -----

    def parse(self, text):
        """Parse a polynomial expression whose terms may be divided by s or
        s^k, the localized element: `3*X - 3*X/s` is 3X - 3X/s."""
        return _PolyParser(self, text).parse()

    def to_config(self):
        cfg = {"base_mod": self.base_mod, "vars": list(self.var_names)}
        if self.loc_num is not None:
            cfg["loc"] = _format_poly(self.loc_num, self.var_names)
        return cfg


class _PolyParser:
    """Recursive descent parser for +, -, *, ^, parentheses, ints, vars,
    and / by s or s^k, which binds like *."""

    _TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9_]*|[()+\-*/^])")

    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise ParseError("bad character at %r" % text[pos:])
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        el = self.expr()
        if self.peek() is not None:
            raise ParseError("trailing tokens: %r" % self.tokens[self.i :])
        return el

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        el = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            el = el + rhs if op == "+" else el - rhs
        return el

    def term(self):
        el = self.power()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                el = el * self.power()
            else:
                el = el * self.ring.s_power(self.divisor())
        return el

    def divisor(self):
        """The k of a divisor s or s^k."""
        if self.ring.loc_num is None:
            raise ParseError("denominator in a ring without localization")
        if self.take() != "s":
            raise ParseError("a divisor must be s or s^k")
        return self.exponent() if self.peek() == "^" else 1

    def exponent(self):
        """The k of ^k, with the ^ next."""
        self.take()
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ParseError("exponent must be a literal integer")
        return int(tok)

    def power(self):
        el = self.atom()
        if self.peek() == "^":
            el = el ** self.exponent()
        return el

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            el = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return el
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            return self.ring.int_(int(tok))
        if tok in ("+", "*", "/", "^", ")"):
            raise ParseError("unexpected %r" % tok)
        return self.ring.var(tok)


class RingElement:
    """A fraction num / s^den with num a polynomial over the base."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den):
        self.ring = ring
        self.num = num
        self.den = den

    # ----- basic predicates -----

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return not self.is_zero()

    def is_int_constant(self):
        """Return the integer value when this is a constant with den = 0."""
        if self.den:
            return None
        if not self.num:
            return 0
        return self.ring._as_int_constant(self.num)

    def vars_used(self):
        used = set()
        for e in self.num:
            for name, k in zip(self.ring.var_names, e):
                if k:
                    used.add(name)
        return used

    # ----- arithmetic -----

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise SubstitutionMismatch(
                    "mixing elements of %s and %s" % (self.ring, other.ring)
                )
            return other
        if isinstance(other, int):
            return self.ring.int_(other)
        return None

    def _common(self, other):
        """Bring self and other over a common denominator power."""
        if self.den == other.den:
            return self.num, other.num, self.den
        lo, hi = (self, other) if self.den < other.den else (other, self)
        num = lo.num
        for _ in range(hi.den - lo.den):
            num = _poly_mul(num, self.ring.loc_num, self.ring.mod)
        if lo is self:
            return num, hi.num, hi.den
        return hi.num, num, hi.den

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._common(other)
        return self.ring._normal(_poly_add(a, b, self.ring.mod), den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._common(other)
        return self.ring._normal(_poly_add(a, b, self.ring.mod, sign=-1), den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        zero = (0,) * len(self.ring.var_names)
        num = _poly_mul_term(self.num, zero, -1, self.ring.mod)
        return self.ring._normal(num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring._normal(
            _poly_mul(self.num, other.num, self.ring.mod), self.den + other.den
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.int_(other)
        if not isinstance(other, RingElement) or (
            other.ring is not self.ring and other.ring != self.ring
        ):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.num.items())), self.den))

    # ----- division and substitution -----

    def divide_exact(self, d):
        """Return q with q * d = self, or None when no exact quotient exists."""
        d = self._coerce(d)
        if d is None:
            raise TypeError("bad divisor")
        if not d.num:
            return None
        q = _poly_divide(self.num, d.num, self.ring.mod)
        if q is None:
            return None
        den = self.den - d.den
        if den < 0:
            for _ in range(-den):
                q = _poly_mul(q, self.ring.loc_num, self.ring.mod)
            den = 0
        return self.ring._normal(q, den)

    def substitute(self, mapping, target):
        """Map variables through `mapping` into `target`: the map
        `self.ring.substitution(mapping, target)` applied to this element
        alone.  Code that maps many elements prepares the map once."""
        return _Substitution(self.ring, mapping, target)(self)

    # ----- display -----

    def __str__(self):
        body = _format_poly(self.num, self.ring.var_names)
        if self.den == 0:
            return body
        if " " in body or "*" in body or "^" in body:
            body = "(%s)" % body
        return "%s/s" % body if self.den == 1 else "%s/s^%d" % (body, self.den)

    __repr__ = __str__


class _Substitution:
    """The ring map var -> mapping[var] from `source` into `target`,
    prepared once and applied to many elements of `source`.

    Preparing checks the base change and the variable names, coerces the
    images and picks a kernel (see the module docstring).  The stored
    coefficients map Z -> Z/b, Z/a -> Z/b with b | a, or, out of Z/m
    localized at an integer (a = m' | b), by iota(c) = c*e, e = 1 mod a
    and 0 mod b/a: `one_image` is e there and 1 elsewhere.  Denominators
    are resolved by exact division by the image of s, by matching the
    target localization, or by inverting an integer image of s, in that
    order; the last two are tested once, on the first element with a
    denominator.  A failed check raises on every element it concerns, and
    only there.
    """

    def __init__(self, source, mapping, target):
        self.source, self.target = source, target
        self._absorb = None
        self.one_image = 1
        names = source.var_names
        # raised before and after the element's missing-variable check
        self._errors = [None, None]
        mod = source.base_mod
        a, b = source.mod, target.mod
        if mod and (target.base_mod == 0 or mod % target.base_mod or a % b and b % a):
            self._errors[0] = SubstitutionMismatch(
                "no ring map from base Z/%d into %s" % (mod, target)
            )
            return
        if a and a % b:
            self.one_image = b // a * pow(b // a, -1, a) % b
        unknown = [name for name in mapping if name not in names]
        if unknown:
            self._errors[0] = SubstitutionMismatch(
                "mapping names unknown variable %r" % unknown[0]
            )
            return
        self._unmapped = [i for i, name in enumerate(names) if name not in mapping]
        images = self._images = [None] * len(names)
        try:
            for name, img in mapping.items():
                images[names.index(name)] = target.coerce(img)
        except (SubstitutionMismatch, TypeError) as e:
            self._errors[1] = e
            return
        self._terms = self._diagonal = None
        if any(img is not None and (len(img.num) > 1 or img.den) for img in images):
            return
        terms = self._terms = [
            None if img is None else next(iter(img.num.items()), None) for img in images
        ]
        width = len(target.var_names)
        if width < len(names):
            return
        kill, scale = [], []
        for i, (img, term) in enumerate(zip(images, terms)):
            if term is None:
                if img is not None:
                    kill.append(i)
            elif term[0][i] != 1 or sum(term[0]) != 1:
                return
            elif term[1] != 1:
                scale.append((i, term[1]))
        self._diagonal = (kill, scale, (0,) * (width - len(names)))

    def __call__(self, x):
        source, target = self.source, self.target
        if x.ring is not source and x.ring != source:
            raise SubstitutionMismatch("%s element mapped from %s" % (x.ring, source))
        before, after = self._errors
        if before is not None:
            raise before.with_traceback(None)
        if self._unmapped:
            nums = (x.num, source.loc_num) if x.den else (x.num,)
            missing = sorted(
                source.var_names[i]
                for i in self._unmapped
                if any(e[i] for num in nums for e in num)
            )
            if missing:
                raise SubstitutionMismatch("mapping misses %s" % missing)
        if after is not None:
            raise after.with_traceback(None)
        out = self._image(x.num)
        if self.one_image != 1:
            return out * self.one_image
        if not x.den:
            return out
        if self._absorb is None:
            s_img = self._image(source.loc_num)
            in_target = target.loc_num is not None and target.loc_element() == s_img
            c = None if in_target else s_img.is_int_constant()
            inverse = None
            if c is not None and target.n_invertible(c):
                inverse = target.inverse_of_int(c)
            self._absorb = (s_img, in_target, inverse)
        s_img, in_target, inverse = self._absorb
        for _ in range(x.den):
            q = out.divide_exact(s_img)
            if q is not None:
                out = q
            elif in_target:
                out = RingElement(target, out.num, out.den + 1)
            elif inverse is not None:
                out = out * inverse
            else:
                raise SubstitutionMismatch(
                    "cannot resolve denominator image %s in %s" % (s_img, target)
                )
        return target._make(dict(out.num), out.den)

    def _image(self, num):
        """The image of a numerator, with no denominator."""
        target = self.target
        mod = target.mod
        if self._diagonal is not None:
            kill, scale, pad = self._diagonal
            out = {}
            for e, c in num.items():
                if kill and any(e[i] for i in kill):
                    continue
                for i, ci in scale:
                    k = e[i]
                    if k:
                        c *= pow(ci, k, mod) if mod else ci**k
                out[e + pad] = c
            if scale or mod != self.source.mod:
                return target._make(out, 0)
            return target._normal(out, 0)
        terms = self._terms
        if terms is not None:
            zero = (0,) * len(target.var_names)
            out = {}
            for e, c in num.items():
                exp = zero
                for i, k in enumerate(e):
                    if not k:
                        continue
                    term = terms[i]
                    if term is None:
                        break
                    f, ci = term
                    c *= pow(ci, k, mod) if mod else ci**k
                    exp = tuple(x + k * y for x, y in zip(exp, f))
                else:
                    out[exp] = out.get(exp, 0) + c
            return target._make(out, 0)
        total = target.zero()
        for e, c in num.items():
            term = target.int_(c)
            for i, k in enumerate(e):
                if k:
                    term = term * self._images[i] ** k
            total = total + term
        return total


class _SingleTermGens:
    """The single-term generators of one ideal spec, split once for its
    membership test.

    Over a localization at a single-term s the generators are saturated:
    each coefficient loses its s-primes (`removed`) and each exponent in
    the support of s is freed (`excess`).  `gens[i]` is (e_str, removed,
    excess, gden, tag), `needs[i]` the (position, exponent) pairs a term
    of x must cover for generator i to apply, and `xgcd(indices)` the
    `_combo_xgcd` of those generators' stripped coefficients (with the
    ring's modulus over Z/m), solved once per tuple of indices.

    Over a multi-term s the test reads numerators, so it is complete when
    s divides no zero modulo the ideal J of the generators' numerators:
    then J : s^inf = J.  J is spanned by terms, so each associated prime
    of J is (p, x_i : i in S) or (x_i : i in S), p a prime of some
    coefficient and S a set of generator variables.  s lies in none of
    them when s0, s with every generator variable set to 0, is nonzero
    and its content is prime to every coefficient.  `partial` is True
    when that fails and the test only proves membership.
    """

    __slots__ = ("gens", "needs", "partial", "any_gden", "_values", "_mod", "_xgcds")

    def __init__(self, ring, singles):
        s_term = Ring._single_term(ring.loc_num) if ring.loc_num is not None else None
        self.partial = False
        if ring.loc_num is not None and s_term is None:
            used = {p for _, e, _, _ in singles for p, k in enumerate(e) if k}
            s0 = [c for e, c in ring.loc_num.items() if not any(e[p] for p in used)]
            content = math.gcd(*s0)
            self.partial = not s0 or any(math.gcd(content, c) != 1 for c, *_ in singles)
        self.any_gden = any(gden for _, _, gden, _ in singles)
        s_primes = set(_prime_factors(s_term[0])) if s_term is not None else set()
        self.gens = []
        self._values = []
        for c, e, gden, t in singles:
            if s_term is not None:
                c_str, removed = _strip_primes(c, s_primes)
                e_str = tuple(0 if k else a for a, k in zip(e, s_term[1]))
            else:
                c_str, removed, e_str = c, 1, e
            excess = tuple(a - b for a, b in zip(e, e_str))
            self.gens.append((e_str, removed, excess, gden, t))
            self._values.append(c_str)
        self.needs = [tuple((p, k) for p, k in enumerate(e_str) if k) for e_str, *_ in self.gens]
        self._mod = ring.mod
        self._xgcds = {}

    def xgcd(self, indices):
        """(g, coeffs): g the gcd of the stripped coefficients of the
        generators at `indices` (and the ring's modulus), with
        sum(coeffs[j] * value[indices[j]]) = g modulo it."""
        hit = self._xgcds.get(indices)
        if hit is None:
            values = [self._values[i] for i in indices]
            if self._mod:
                g_all, coeffs = _combo_xgcd(values + [self._mod])
                hit = (g_all, coeffs[:-1])
            else:
                hit = _combo_xgcd(values)
            self._xgcds[indices] = hit
        return hit


class IdealSpec:
    """A symbolic description of a finitely generated ideal.

    Specs form trees: explicit generators at the leaves, with product,
    squares (`sym_power(2)`) and sum nodes above them.  Expansion
    produces tagged generators so that membership witnesses can name the
    exact product of leaf generators each coefficient multiplies.

    A spec caches two things on first use: its expansion, and the data
    its membership test prepares from it (the nonzero tagged generators;
    when each has one term, a `_SingleTermGens`; and a map from every tag
    of the expansion to its generator, which `element_for_tag` and the
    witness check read instead of scanning the expansion).  A spec is
    immutable, so both stay valid; a pickle carries neither, and the copy
    rebuilds them when it is first asked.
    """

    def __init__(self, ring, kind, parts):
        self.ring = ring
        self.kind = kind
        self.parts = parts
        self._expansion = None
        self._membership = None

    def __reduce__(self):
        # the tree alone: a pickled spec carries neither cache
        return IdealSpec, (self.ring, self.kind, self.parts)

    @classmethod
    def gens(cls, ring, *els):
        return cls(ring, "gens", tuple(ring.coerce(e) for e in els))

    def product(self, other):
        if other.ring != self.ring:
            raise SubstitutionMismatch("ideal product across rings")
        return IdealSpec(self.ring, "product", (self, other))

    def sym_power(self, m):
        """The ideal generated by m-th powers of elements of this ideal."""
        if m == 1:
            return self
        if m != 2:
            raise UnsupportedRing("only squares are supported for sym_power")
        return IdealSpec(self.ring, "sym_power", (self, 2))

    def sum_with(self, other):
        if other.ring != self.ring:
            raise SubstitutionMismatch("ideal sum across rings")
        return IdealSpec(self.ring, "sum", (self, other))

    # ----- expansion -----

    def expand_tagged(self):
        if self._expansion is not None:
            return self._expansion
        if self.kind == "gens":
            out = tuple((g, ("g", i)) for i, g in enumerate(self.parts))
        elif self.kind == "product":
            a, b = self.parts
            out = tuple(
                (ga * gb, ("p", ta, tb))
                for ga, ta in a.expand_tagged()
                for gb, tb in b.expand_tagged()
            )
        elif self.kind == "sym_power":
            spec, _ = self.parts
            base = spec.expand_tagged()
            sq = tuple((g * g, ("sq", t)) for g, t in base)
            mixed = tuple(
                (base[i][0] * base[j][0] * 2, ("mx", base[i][1], base[j][1]))
                for i in range(len(base))
                for j in range(i + 1, len(base))
            )
            out = sq + mixed
        elif self.kind == "sum":
            a, b = self.parts
            out = tuple((g, ("l", t)) for g, t in a.expand_tagged()) + tuple(
                (g, ("r", t)) for g, t in b.expand_tagged()
            )
        else:
            raise ValueError("unknown spec kind %r" % self.kind)
        self._expansion = out
        return out

    def expand(self):
        return tuple(g for g, _ in self.expand_tagged())

    def element_for_tag(self, tag):
        g = self._membership_data()[2].get(tag)
        if g is None:
            raise KeyError("tag %r not in spec" % (tag,))
        return g

    def describe(self):
        if self.kind == "gens":
            return "(" + ", ".join(str(g) for g in self.parts) + ")"
        if self.kind == "product":
            return "%s*%s" % (self.parts[0].describe(), self.parts[1].describe())
        if self.kind == "sym_power":
            return "%s^(2)" % self.parts[0].describe()
        return "(%s + %s)" % (self.parts[0].describe(), self.parts[1].describe())

    __repr__ = describe

    def substitute(self, mapping, target):
        """The same tree over `target`, every leaf generator mapped
        through one prepared map."""
        return self._mapped(self.ring.substitution(mapping, target))

    def _mapped(self, sub):
        if self.kind == "gens":
            return IdealSpec(sub.target, "gens", tuple(sub(g) for g in self.parts))
        if self.kind in ("product", "sum"):
            a = self.parts[0]._mapped(sub)
            b = self.parts[1]._mapped(sub)
            return IdealSpec(sub.target, self.kind, (a, b))
        part, m = self.parts
        return IdealSpec(sub.target, self.kind, (part._mapped(sub), m))

    # ----- membership -----

    def contains(self, x):
        """Complete membership test; raises UndecidableIdealClass otherwise."""
        try:
            self.witness(x)
            return True
        except NotInIdeal:
            return False

    def witness(self, x):
        """Return (coefficient, tag) pairs expressing x over this spec's
        generators: x = sum(coefficient * element_for_tag(tag)), checked
        before the pairs are returned.

        Raises NotInIdeal when x is provably outside the ideal, and
        UndecidableIdealClass when the generator class has no complete test.
        Over single-term generators the witness holds one coefficient
        element per generator, built in time linear in the terms of x.
        """
        x = self.ring.coerce(x)
        tagged, singles, by_tag = self._membership_data()
        if not tagged:
            if x.is_zero():
                return ()
            raise NotInIdeal("%s is not in the zero ideal" % x)
        if singles is not None:
            combo = self._witness_single_terms(x, singles)
        elif len(tagged) == 1:
            combo = self._witness_principal(x, tagged[0])
        else:
            raise UndecidableIdealClass(
                "no complete membership test for generators %s"
                % [str(g) for g, _ in tagged]
            )
        products = [coeff * by_tag[tag] for coeff, tag in combo]
        total = sum(products[1:], products[0]) if products else self.ring.zero()
        if total != x:
            raise OracleMismatch(
                "witness reconstruction failed for %s in %s" % (x, self.describe())
            )
        return combo

    def _membership_data(self):
        """(tagged, singles, by_tag): the nonzero tagged generators, their
        `_SingleTermGens` when every one has a single term (else None), and
        every expanded generator (zero ones too) by its tag.  Prepared on
        the first membership test or tag lookup and kept on the spec."""
        if self._membership is None:
            expansion = self.expand_tagged()
            tagged = tuple((g, t) for g, t in expansion if not g.is_zero())
            terms = [Ring._single_term(g.num) for g, _ in tagged]
            singles = None
            if tagged and None not in terms:
                singles = _SingleTermGens(
                    self.ring,
                    [(c, e, g.den, t) for (c, e), (g, t) in zip(terms, tagged)],
                )
            self._membership = (tagged, singles, {t: g for g, t in expansion})
        return self._membership

    def _witness_single_terms(self, x, singles):
        """Membership and witness for single-term generator sets.

        Without a localization the per-monomial gcd test is complete.  With
        a localization at a single-term s, generators are saturated (the
        s-smooth part of the coefficient and the exponents in the support
        of s are free), which is again complete.  Over a multi-term s the
        test on numerators is complete when s divides no zero modulo their
        ideal (`_SingleTermGens`); otherwise a successful witness still
        proves membership, but a denominator or a failure is inconclusive
        and raises.

        `singles` is the spec's prepared `_SingleTermGens`, kept on the
        spec and, like its expansion, left out of its pickles: the per-
        generator split is computed once per spec, and each term of x only
        finds the generators whose exponents it covers and looks up the
        xgcd of that tuple, solved once per tuple.  The pieces of one
        generator have distinct monomials (distinct terms of x shifted by
        the same exponent), so they are gathered into one dict, made into
        one ring element and multiplied by the generator's constant
        factors once: linear in the terms of x, with no running sum of
        ring elements.
        """
        ring = self.ring
        if singles.partial and (x.den or singles.any_gden):
            raise UndecidableIdealClass(
                "denominators over a multi-term localization element"
            )
        gens, needs = singles.gens, singles.needs
        terms = {}
        for xe in sorted(x.num, key=lambda t: (sum(t), t), reverse=True):
            xc = x.num[xe]
            applicable = []
            for i, need in enumerate(needs):
                for p, k in need:
                    if xe[p] < k:
                        break
                else:
                    applicable.append(i)
            g_all, coeffs = singles.xgcd(tuple(applicable))
            if g_all == 0 or xc % g_all:
                if singles.partial:
                    raise UndecidableIdealClass(
                        "inconclusive membership over a multi-term localization"
                    )
                raise NotInIdeal(
                    "term %s of %s is outside %s" % (xc, x, self.describe())
                )
            scale = xc // g_all
            for i, u in zip(applicable, coeffs):
                if u:
                    mono = tuple(a - b for a, b in zip(xe, gens[i][0]))
                    terms.setdefault(i, {})[mono] = u * scale
        combo = {}
        for i, num in terms.items():
            _, removed, excess, gden, t = gens[i]
            coeff = ring._make(num, 0)
            if removed != 1 or any(excess):
                coeff = coeff * ring.invert_s_smooth_term(removed, excess)
            if gden:
                coeff = coeff * ring.loc_element() ** gden
            combo[t] = coeff
        if x.den:
            shift = ring.s_power(x.den)
            combo = {t: c * shift for t, c in combo.items()}
        return tuple((c, t) for t, c in combo.items() if not c.is_zero())

    def _witness_principal(self, x, tagged_gen):
        """Membership and witness for a single generator.

        Complete over a Z base without localization, and over Z/m without
        localization when the leading coefficient is a unit.  With a
        localization, successive multiplications by s are tried; running
        out of attempts is inconclusive.
        """
        g, tag = tagged_gen
        ring = self.ring
        if ring.mod:
            _, lc = _lead_term(g.num)
            if math.gcd(lc, ring.mod) != 1:
                raise UndecidableIdealClass(
                    "principal test over Z/m needs a unit leading coefficient"
                )
        g_num = ring._make(dict(g.num), 0)
        work = ring._make(dict(x.num), 0)
        tries = 1 if ring.loc_num is None else 4 + x.den + g.den
        for k in range(tries):
            q = work.divide_exact(g_num)
            if q is not None:
                j = x.den + k
                if j:
                    q = q * ring.s_power(j)
                if g.den:
                    q = q * ring.loc_element() ** g.den
                return ((q, tag),)
            if ring.loc_num is None:
                break
            work = work * ring.loc_element()
        if ring.loc_num is None:
            raise NotInIdeal("%s has no exact quotient by %s" % (x, g))
        raise UndecidableIdealClass("principal division did not settle")
