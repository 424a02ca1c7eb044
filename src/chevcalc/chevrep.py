"""Matrix models of the elementary generators.

These representations are the correctness oracle of the package: a word
rewrite is accepted only when both sides evaluate to the same matrix.  The
rest of the package reaches them through RewriteEngine's `evaluate`,
`equal` and `congruence_oracle`.
A model is faithful when equality in it implies equality in the group.
The defining models of types A and C are faithful, and so is the adjoint
model of G2, F4 and E8, whose groups have trivial centre.  On B, D, E6
and E7 the adjoint model kills the centre of the simply connected group,
so there it sees equality, and congruence, only up to a central element.
Generators are one-parameter subgroups x_a(r) = sum_k r^k * T_k with
T_k = X_a^k / k! an integer template and X_a nilpotent, so every
evaluation is a finite exact sum and inverses are computed structurally
(x_a(r)^-1 = x_a(-r)), never by matrix inversion.

`evaluate_word` starts from the identity and applies each generator as a
sparse right update, M <- M + sum_k r^k * (M * T_k): column j of M * T_k
combines the columns l with T_k[l, j] != 0, so each term of those columns
takes one integer product.  No generator matrix and no ring element is
built inside the update.  A column is one polynomial dict over a common
denominator s^D_j, keyed by packed integers (exponents above the row, in
bit fields sized from the word's degree bound; see `_Packing`), so adding
exponents is adding keys.  Denominators are aligned by multiplying with a
power of s; over Z/m coefficients are reduced, and over Z localized at an
integer s the column's common power of s is divided out by a gcd.  At the
end each column is unpacked into `RepMatrix` entries through
`Ring._normal`, the element's one stored form, so the stored (num, den)
are those ring arithmetic gives and `RepMatrix.__eq__` compares them as
stored.  Over Z/m localized at an integer the coefficients are reduced
modulo `Ring.mod` and no denominator arises; over the zero ring the
identity is the zero matrix.  The dense reference the tests compare
against, a product of full generator matrices, lives in tests/wordgen.py
(`dense_evaluate`).

The adjoint model exists for every supported system.  It reads each X_a
from the root system's tables, a's rows of the sum and constant tables,
and takes the Cartan integers <a, a_i^> as a's simple coordinates times
the Cartan matrix.  The defining models (types A and C) share sign
conventions with the adjoint model because their non-simple generators
are propagated through the same minimal decomposition brackets that
define the structure constants.  Every model takes its templates from
`_divided_powers`, which groups X by row once for all its powers, checks
each division by k exact and bounds the nilpotency index.  Every template
is built when its model is, and `get_representation` keeps each model.
"""

from operator import mul

from .errors import InvalidType, OracleMismatch
from . import gword
from .exactring import _strip_int_s
from .rootsys import _vneg


def _rows(b):
    """{k: [(j, v), ...]} over the nonzero entries (k, j) of b."""
    rows = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    return rows


def _int_mat_mul(a, rows):
    """a * b for `rows` = `_rows(b)`."""
    out = {}
    for (i, k), u in a.items():
        for j, v in rows.get(k, ()):
            c = out.get((i, j), 0) + u * v
            if c:
                out[(i, j)] = c
            elif (i, j) in out:
                del out[(i, j)]
    return out


def _int_mat_bracket(a, b):
    ab = _int_mat_mul(a, _rows(b))
    ba = _int_mat_mul(b, _rows(a))
    for pos, v in ba.items():
        c = ab.get(pos, 0) - v
        if c:
            ab[pos] = c
        elif pos in ab:
            del ab[pos]
    return ab


def _int_mat_divide(a, n):
    out = {}
    for pos, v in a.items():
        if v % n:
            raise OracleMismatch("nonintegral divided power or bracket")
        out[pos] = v // n
    return out


def _divided_powers(x, limit=6):
    """Return {k: X^k / k!} for k >= 1, asserting nilpotency within limit."""
    out = {}
    rows = _rows(x)
    cur = dict(x)
    k = 1
    while cur:
        out[k] = cur
        k += 1
        if k > limit:
            raise OracleMismatch("generator is not nilpotent within the bound")
        cur = _int_mat_divide(_int_mat_mul(cur, rows), k)
    return out


class RepMatrix:
    """A square matrix with sparse exact entries over one ring."""

    __slots__ = ("ring", "dim", "entries")

    def __init__(self, ring, dim, entries):
        self.ring = ring
        self.dim = dim
        self.entries = entries

    def entry(self, i, j):
        return self.entries.get((i, j), self.ring.zero())

    def entries_minus_identity(self):
        """Yield ((i, j), value) for the nonzero entries of self - 1."""
        seen = set()
        for (i, j), v in self.entries.items():
            if i == j:
                seen.add(i)
                d = v - 1
                if d.num:
                    yield (i, j), d
            elif v.num:
                yield (i, j), v
        minus_one = self.ring.int_(-1)
        for i in range(self.dim):
            if i not in seen and minus_one.num:
                yield (i, i), minus_one

    def __eq__(self, other):
        if not isinstance(other, RepMatrix) or other.ring != self.ring:
            return NotImplemented
        a, b = self.entries, other.entries
        # stored forms are unique; an entry with an empty num is a zero
        # stored explicitly, equal to a missing one
        for p, v in a.items():
            w = b.get(p)
            if w is None:
                if v.num:
                    return False
            elif v.den != w.den or v.num != w.num:
                return False
        return all(p in a or not w.num for p, w in b.items())

    def __hash__(self):
        return hash((self.ring, self.dim))

    def __repr__(self):
        return "RepMatrix(%dx%d over %s, %d entries)" % (
            self.dim,
            self.dim,
            self.ring,
            len(self.entries),
        )


class _Packing:
    """Integer keys for the terms of one evaluation.

    The term c * x^e in row i of a column is stored under the key
    (e_1 << o_1) + (e_2 << o_2) + ... + i: the row in the low `row_bits`,
    then one bit field per variable.  Each field is wide enough for the
    largest exponent of its variable that the evaluation can reach, so
    adding two keys adds their exponents with no carry between fields.
    """

    def __init__(self, ring, dim, gens):
        """`gens` lists (largest k of T_k, argument) for every generator."""
        nvars = len(ring.var_names)
        degree = [0] * nvars
        den = 0
        for top, r in gens:
            for i in range(nvars):
                degree[i] += top * max(e[i] for e in r.num)
            den += top * r.den
        self.mod = ring.mod
        self.s_int = ring._loc_int
        s = ring.loc_num
        if s is not None and self.s_int is None:
            # aligning denominators multiplies by powers of a polynomial s
            for i in range(nvars):
                degree[i] += den * max(e[i] for e in s)
        self.row_bits = (dim - 1).bit_length()
        self.row_mask = (1 << self.row_bits) - 1
        self.fields = []
        offset = 0
        for bound in degree:
            width = bound.bit_length()
            self.fields.append((offset, (1 << width) - 1))
            offset += width
        self._shifts = [off + self.row_bits for off, _ in self.fields]
        self._exponents = {}
        # 1/s^k is aligned away by multiplying with s^k
        self._s_powers = {0: {0: 1}}
        self._s = None if s is None or self.s_int is not None else self.pack(s)

    def pack(self, num):
        shifts = self._shifts
        return {
            sum(x << shift for x, shift in zip(e, shifts)): c for e, c in num.items()
        }

    def unpack(self, col):
        """{row: {exponent tuple: coefficient}} for one packed column."""
        rows = {}
        exponents = self._exponents
        for key, c in col.items():
            high = key >> self.row_bits
            e = exponents.get(high)
            if e is None:
                e = exponents[high] = tuple(
                    (high >> offset) & mask for offset, mask in self.fields
                )
            rows.setdefault(key & self.row_mask, {})[e] = c
        return rows

    def s_power(self, k):
        """s^k as a packed polynomial."""
        out = self._s_powers.get(k)
        if out is None:
            if self.s_int is not None:
                # only over Z: localized Z/m stores no denominator
                out = {0: self.s_int**k}
            else:
                out = _packed_mul(self.s_power(k - 1), self._s, self.mod)
            self._s_powers[k] = out
        return out

    def times(self, a, f):
        """a * f for packed a and f; a new dict even when f is 1."""
        if len(f) != 1:
            return _packed_mul(a, f, self.mod)
        ((shift, c),) = f.items()
        if not shift:
            if c == 1:
                return dict(a)
            return {key: x * c for key, x in a.items()}
        # distinct keys stay distinct under one shift
        return {key + shift: x * c for key, x in a.items()}

    def finish(self, col, den):
        """Reduce a column over s^den and drop its zeros; over Z localized
        at an integer s, divide out the largest common power s^k, k <= den."""
        m = self.mod
        if m:
            col = {key: y for key, x in col.items() if (y := x % m)}
        else:
            col = {key: x for key, x in col.items() if x}
        if not col:
            return col, 0
        if den and not m and self.s_int is not None:
            return _strip_int_s(col, den, self.s_int)
        return col, den


def _packed_mul(a, b, mod):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = out.get(key, 0) + ca * cb
    if mod:
        return {key: y for key, x in out.items() if (y := x % mod)}
    return {key: x for key, x in out.items() if x}


def _group_by_column(mats):
    """{j: [(l, k, T_k[l, j]), ...]} over the nonzero entries of every T_k."""
    by_col = {}
    for k, t_k in mats.items():
        for (l, j), v in t_k.items():
            by_col.setdefault(j, []).append((l, k, v))
    return by_col


def _right_update(cols, dens, by_col, r, d, pk):
    """cols <- cols * x_root(r / s^d), as cols + sum_k r^k * (cols * T_k).

    `r` is packed and `by_col` is `_group_by_column` of the root's T_k.
    Every column it writes is built from the columns as they were before.
    """
    r_pows = [None, r]
    out = {}
    for j, terms in by_col.items():
        dj = dens[j]
        for l, k, _ in terms:
            dj = max(dj, dens[l] + k * d)
        acc = pk.times(cols[j], pk.s_power(dj - dens[j]))
        get = acc.get
        for l, k, v in terms:
            while len(r_pows) <= k:
                r_pows.append(_packed_mul(r_pows[-1], r, pk.mod))
            mult = r_pows[k]
            if dj > dens[l] + k * d:
                mult = pk.times(mult, pk.s_power(dj - dens[l] - k * d))
            src = cols[l]
            for shift, c in mult.items():
                c *= v
                for key, x in src.items():
                    key += shift
                    acc[key] = get(key, 0) + x * c
        out[j] = pk.finish(acc, dj)
    for j, (col, dj) in out.items():
        cols[j] = col
        dens[j] = dj


class Representation:
    """Exponentiated generator templates for one root system."""

    def __init__(self, rs, kind, dim, powers):
        self.rs = rs
        self.kind = kind
        self.dim = dim
        # powers[root][k] is the integer matrix X_root^k / k!
        self.powers = powers

    @classmethod
    def adjoint(cls, rs):
        """The adjoint model on the Chevalley basis: e_b for the roots b in
        `rs.roots` order, then h_i for the simple coroots.  X_a sends e_b to
        N(a, b) e_{a+b} along a's rows of `rs.sums` and `rs.constants`,
        e_-a to h_a (the coroot's coordinates), and h_i to -<a, a_i^> e_a."""
        n = len(rs.roots)
        # <a, a_h^> = sum_j c_j <a_j, a_h^> over a's simple coordinates c
        cartan = [[rs.cartan_int(sh, sj) for sj in rs.simple] for sh in rs.simple]
        powers = {}
        for i, a in enumerate(rs.roots):
            consts = rs.constants[i]
            x = {(k, j): consts[j] for j, k in rs.sums[i].items()}
            neg_a = rs.index[_vneg(a)]
            for h, c in enumerate(rs.coroot_coords(a)):
                if c:
                    x[(n + h, neg_a)] = c
            coords = rs.coords(a)
            for h, row in enumerate(cartan):
                c = -sum(map(mul, row, coords))
                if c:
                    x[(i, n + h)] = c
            powers[a] = _divided_powers(x)
        return cls(rs, "adjoint", n + rs.rank, powers)

    @classmethod
    def defining(cls, rs):
        if rs.label == "A":
            dim = rs.rank + 1
            pos = [{(i, i + 1): 1} for i in range(rs.rank)]
            neg = [{(i + 1, i): 1} for i in range(rs.rank)]
        elif rs.label == "C":
            l = rs.rank
            dim = 2 * l
            pos = [
                {(i, i + 1): 1, (l + i + 1, l + i): -1} for i in range(l - 1)
            ] + [{(l - 1, 2 * l - 1): 1}]
            neg = [
                {(i + 1, i): 1, (l + i, l + i + 1): -1} for i in range(l - 1)
            ] + [{(2 * l - 1, l - 1): 1}]
        else:
            raise InvalidType("no defining model for type %s" % rs.label)
        images = {}
        for i, a in enumerate(rs.simple):
            images[a] = pos[i]
            images[_vneg(a)] = neg[i]
        # positive_roots come in the height ordering
        for gamma in rs.positive_roots:
            if gamma in images:
                continue
            eps, eta = rs.extraspecial_pair(gamma)
            n = rs.lie_constant(eps, eta)
            images[gamma] = _int_mat_divide(
                _int_mat_bracket(images[eps], images[eta]), n
            )
            n_neg = rs.lie_constant(_vneg(eps), _vneg(eta))
            images[_vneg(gamma)] = _int_mat_divide(
                _int_mat_bracket(images[_vneg(eps)], images[_vneg(eta)]), n_neg
            )
        powers = {a: _divided_powers(x) for a, x in images.items()}
        return cls(rs, "defining", dim, powers)

    # ----- evaluation -----

    def evaluate_word(self, w, ring):
        return self.evaluate_generators(
            ((gen.root, ring.coerce(gen.arg)) for gen in gword.flatten(w)), ring
        )

    def evaluate_generators(self, gens, ring):
        """The product of x_root(r) over the (root, r) pairs, left to right."""
        gens = [(root, r) for root, r in gens if r.num]
        pk = _Packing(ring, self.dim, [(max(self.powers[root]), r) for root, r in gens])
        # column-major: cols[j] holds the packed terms of column j, all over
        # the common denominator s^dens[j]; the zero ring (mod 1) has 1 = 0
        cols = [{} if ring.mod == 1 else {j: 1} for j in range(self.dim)]
        dens = [0] * self.dim
        grouped = {}
        for root, r in gens:
            by_col = grouped.get(root)
            if by_col is None:
                by_col = grouped[root] = _group_by_column(self.powers[root])
            _right_update(cols, dens, by_col, pk.pack(r.num), r.den, pk)
        entries = {}
        for j, col in enumerate(cols):
            for i, num in pk.unpack(col).items():
                entries[(i, j)] = ring._normal(num, dens[j])
        return RepMatrix(ring, self.dim, entries)

    def words_equal(self, u, v, ring):
        return self.evaluate_word(u, ring) == self.evaluate_word(v, ring)


def congruence_check(m, spec):
    """Is the matrix congruent to the identity modulo the ideal?"""
    for _, entry in m.entries_minus_identity():
        if not spec.contains(entry):
            return False
    return True


_REP_CACHE = {}


def get_representation(rs, kind):
    key = (rs.label, rs.rank, kind)
    if key not in _REP_CACHE:
        if kind == "adjoint":
            _REP_CACHE[key] = Representation.adjoint(rs)
        elif kind == "defining":
            _REP_CACHE[key] = Representation.defining(rs)
        else:
            raise InvalidType("unknown representation kind %r" % (kind,))
    return _REP_CACHE[key]
