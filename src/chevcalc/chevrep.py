"""Faithful matrix models of the elementary generators.

These representations are the correctness oracle of the package: a word
rewrite is accepted only when both sides evaluate to the same matrix.  The
rest of the package reaches them through RewriteEngine's `evaluate`,
`equal` and `congruence_oracle`.
Generators are one-parameter subgroups x_a(r) = sum_k r^k * T_k with
T_k = X_a^k / k! an integer template and X_a nilpotent, so every
evaluation is a finite exact sum and inverses are computed structurally
(x_a(r)^-1 = x_a(-r)), never by matrix inversion.

`evaluate_word` starts from the identity and applies each generator as a
sparse right update, M <- M + sum_k r^k * (M * T_k): M * T_k is an
integer combination of the columns of M that T_k reads
(`RingElement.scale`), and each entry it touches takes one ring
multiplication by r^k.  No generator matrix is built.  The dense path,
`generator_matrix` and `RepMatrix.__mul__`, stays as the reference the
tests compare against and for the left products of `rootsys.comm_coeffs`.

The adjoint model exists for every supported system.  The defining models
(types A and C) share sign conventions with the adjoint model because
their non-simple generators are propagated through the same minimal
decomposition brackets that define the structure constants.
"""

from .errors import InvalidType, OracleMismatch
from . import gword
from .rootsys import _vneg


def _int_mat_mul(a, b):
    cols = {}
    for (k, j), v in b.items():
        cols.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in a.items():
        for j, v in cols.get(k, ()):
            c = out.get((i, j), 0) + u * v
            if c:
                out[(i, j)] = c
            elif (i, j) in out:
                del out[(i, j)]
    return out


def _int_mat_bracket(a, b):
    ab = _int_mat_mul(a, b)
    ba = _int_mat_mul(b, a)
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
    cur = dict(x)
    k = 1
    while cur:
        out[k] = cur
        k += 1
        if k > limit:
            raise OracleMismatch("generator is not nilpotent within the bound")
        cur = _int_mat_divide(_int_mat_mul(cur, x), k)
    return out


class RepMatrix:
    """A square matrix with sparse exact entries over one ring."""

    __slots__ = ("ring", "dim", "entries")

    def __init__(self, ring, dim, entries):
        self.ring = ring
        self.dim = dim
        self.entries = entries

    @classmethod
    def identity(cls, ring, dim):
        one = ring.one()
        return cls(ring, dim, {(i, i): one for i in range(dim)})

    def __mul__(self, other):
        if not isinstance(other, RepMatrix) or other.ring != self.ring:
            raise TypeError("can only multiply matching RepMatrix values")
        rows = {}
        for (i, k), a in self.entries.items():
            rows.setdefault(i, []).append((k, a))
        cols = {}
        for (k, j), b in other.entries.items():
            cols.setdefault(k, []).append((j, b))
        out = {}
        for i, row in rows.items():
            acc = {}
            for k, a in row:
                for j, b in cols.get(k, ()):
                    prod = a * b
                    acc[j] = acc[j] + prod if j in acc else prod
            for j, v in acc.items():
                if v.num:
                    out[(i, j)] = v
        return RepMatrix(self.ring, self.dim, out)

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
        for i in range(self.dim):
            if i not in seen:
                yield (i, i), self.ring.int_(-1)

    def is_identity(self):
        return all(v.is_zero() for _, v in self.entries_minus_identity())

    def __eq__(self, other):
        if not isinstance(other, RepMatrix) or other.ring != self.ring:
            return NotImplemented
        positions = set(self.entries) | set(other.entries)
        return all((self.entry(*p) - other.entry(*p)).is_zero() for p in positions)

    def __hash__(self):
        return hash((self.ring, self.dim))

    def __repr__(self):
        return "RepMatrix(%dx%d over %s, %d entries)" % (
            self.dim,
            self.dim,
            self.ring,
            len(self.entries),
        )


class Representation:
    """Exponentiated generator templates for one root system."""

    def __init__(self, rs, kind, dim, powers):
        self.rs = rs
        self.kind = kind
        self.dim = dim
        # powers[root][k] is the integer matrix X_root^k / k!
        self.powers = powers
        # templates[root] keeps the k = 1 matrix for coefficient extraction
        self.templates = {root: mats[1] for root, mats in powers.items()}

    @classmethod
    def adjoint(cls, rs):
        dim = len(rs.roots) + rs.rank
        idx = {r: i for i, r in enumerate(rs.roots)}

        def h_idx(i):
            return len(rs.roots) + i

        powers = {}
        for a in rs.roots:
            x = {}
            for b in rs.roots:
                if b == _vneg(a):
                    for i, c in enumerate(rs.coroot_coords(a)):
                        if c:
                            x[(h_idx(i), idx[b])] = c
                else:
                    s = rs.add(a, b)
                    if s is not None:
                        n = rs.lie_constant(a, b)
                        if n:
                            x[(idx[s], idx[b])] = n
            for i, si in enumerate(rs.simple):
                c = -rs.cartan_int(si, a)
                if c:
                    x[(idx[a], h_idx(i))] = c
            powers[a] = _divided_powers(x)
        return cls(rs, "adjoint", dim, powers)

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
        by_height = sorted(rs.positive_roots, key=rs.height)
        for gamma in by_height:
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

    def generator_matrix(self, root, r):
        ring = r.ring
        entries = {(i, i): ring.one() for i in range(self.dim)}
        r_pow = ring.one()
        for k, mat in sorted(self.powers[root].items()):
            r_pow = r_pow * r
            for pos, v in mat.items():
                term = r_pow * v
                entries[pos] = entries[pos] + term if pos in entries else term
        return RepMatrix(ring, self.dim, {p: v for p, v in entries.items() if v.num})

    def evaluate_word(self, w, ring):
        return self.evaluate_generators(
            ((gen.root, ring.coerce(gen.arg)) for gen in gword.flatten(w)), ring
        )

    def evaluate_generators(self, gens, ring):
        """The product of x_root(r) over the (root, r) pairs, left to right."""
        one = ring.one()
        # column-major: cols[j][i] is entry (i, j)
        cols = {j: {j: one} for j in range(self.dim)}
        for root, r in gens:
            if r.num:
                self._right_update(cols, root, r)
        return RepMatrix(
            ring, self.dim, {(i, j): v for j, col in cols.items() for i, v in col.items()}
        )

    def _right_update(self, cols, root, r):
        """cols <- cols * x_root(r), as cols + sum_k r^k * (cols * T_k)."""
        updates = {}
        # _divided_powers stores k = 1, 2, ... in order, so r^k costs one
        # multiplication per k
        r_k = r
        for k, t_k in self.powers[root].items():
            if k > 1:
                r_k = r_k * r
            # column j of cols * T_k combines the columns l with T_k[l, j] != 0
            prod = {}
            for (l, j), v in t_k.items():
                acc = prod.setdefault(j, {})
                for i, x in cols[l].items():
                    y = x.scale(v)
                    acc[i] = acc[i] + y if i in acc else y
            for j, acc in prod.items():
                upd = updates.setdefault(j, {})
                for i, y in acc.items():
                    if y.num:
                        y = y * r_k
                        if y.num:
                            upd[i] = upd[i] + y if i in upd else y
        for j, upd in updates.items():
            col = cols[j]
            for i, y in upd.items():
                v = col[i] + y if i in col else y
                if v.num:
                    col[i] = v
                else:
                    col.pop(i, None)

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
