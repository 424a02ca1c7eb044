"""Shared helpers for randomized tests, and the dense references that the
fast paths of the package are tested against."""

from fractions import Fraction

from chevcalc.chevrep import RepMatrix
from chevcalc.errors import OracleMismatch
from chevcalc.exactring import Ring
from chevcalc.gword import Comm, Conj, Gen, Inv, Prod, flatten


def random_ring_element(ring, rng, max_deg=2, terms=3, coeff=6):
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


def random_gen(rs, ring, rng, args=None, roots=None):
    root = rng.choice(rs.roots if roots is None else roots)
    arg = random_ring_element(ring, rng) if args is None else rng.choice(args)
    return Gen(root, arg)


def random_word(rs, ring, rng, depth=2, args=None, roots=None):
    if depth == 0 or rng.random() < 0.3:
        return random_gen(rs, ring, rng, args, roots)
    kind = rng.randrange(4)
    if kind == 0:
        return Inv(random_word(rs, ring, rng, depth - 1, args, roots))
    if kind == 1:
        n = rng.randrange(3)
        return Prod(
            tuple(random_word(rs, ring, rng, depth - 1, args, roots) for _ in range(n))
        )
    if kind == 2:
        return Conj(
            random_word(rs, ring, rng, depth - 1, args, roots),
            random_word(rs, ring, rng, depth - 1, args, roots),
        )
    return Comm(
        random_word(rs, ring, rng, depth - 1, args, roots),
        random_word(rs, ring, rng, depth - 1, args, roots),
    )


def random_level_word(rs, ring, rng, level_args, args, depth=2, roots=None):
    """A word that visibly lies at the level of `level_args`: its leaves take
    level arguments, and the conjugators and the other commutator sides are
    random words over `args`."""
    if depth == 0 or rng.random() < 0.3:
        return random_gen(rs, ring, rng, level_args, roots)

    def level():
        return random_level_word(rs, ring, rng, level_args, args, depth - 1, roots)

    def other():
        return random_word(rs, ring, rng, depth - 1, args, roots)

    kind = rng.randrange(4)
    if kind == 0:
        return Inv(level())
    if kind == 1:
        return Prod(tuple(level() for _ in range(rng.randrange(3))))
    if kind == 2:
        return Conj(level(), other())
    return Comm(level(), other()) if rng.random() < 0.5 else Comm(other(), level())


# ----- dense references -----


def identity_matrix(ring, dim):
    one = ring.one()
    return RepMatrix(ring, dim, {(i, i): one for i in range(dim)})


def matmul(a, b):
    """The product of two RepMatrix values over one ring, row by row."""
    if a.ring != b.ring:
        raise TypeError("can only multiply matching RepMatrix values")
    rows = {}
    for (i, k), x in a.entries.items():
        rows.setdefault(i, []).append((k, x))
    cols = {}
    for (k, j), y in b.entries.items():
        cols.setdefault(k, []).append((j, y))
    out = {}
    for i, row in rows.items():
        acc = {}
        for k, x in row:
            for j, y in cols.get(k, ()):
                prod = x * y
                acc[j] = acc[j] + prod if j in acc else prod
        for j, v in acc.items():
            if v.num:
                out[(i, j)] = v
    return RepMatrix(a.ring, a.dim, out)


def is_identity(m):
    return all(v.is_zero() for _, v in m.entries_minus_identity())


def generator_matrix(rep, root, r):
    """The full matrix of x_root(r) = 1 + sum_k r^k * X_root^k / k!."""
    ring = r.ring
    entries = {(i, i): ring.one() for i in range(rep.dim)}
    r_pow = ring.one()
    for k, mat in sorted(rep.powers[root].items()):
        r_pow = r_pow * r
        for pos, v in mat.items():
            term = r_pow * v
            entries[pos] = entries[pos] + term if pos in entries else term
    return RepMatrix(ring, rep.dim, {p: v for p, v in entries.items() if v.num})


def dense_evaluate(rep, w, ring):
    """The word's matrix as a product of dense generator matrices: the
    reference for `Representation.evaluate_word`."""
    m = identity_matrix(ring, rep.dim)
    for g in flatten(w):
        m = matmul(m, generator_matrix(rep, g.root, ring.coerce(g.arg)))
    return m


def extracted_comm_coeffs(rep, sc, a, b):
    """The coefficients of [x_a(P), x_b(Q)] read off adjoint matrices: the
    reference for `StructureConstants.comm_coeffs`.

    Walking the roots i*a + j*b in `pair_roots` order, the P^i Q^j part of
    the remaining matrix minus 1 must be c times X_{i*a+j*b}; x_{i*a+j*b}
    (-c P^i Q^j) is then multiplied away on the left, and what is left at
    the end must be the identity.
    """
    ring = Ring.integers().extend("P", "Q")
    p, q = ring.var("P"), ring.var("Q")
    m = rep.evaluate_generators(((a, -p), (b, -q), (a, p), (b, q)), ring)
    out = []
    for (i, j), delta in sc.pair_roots(a, b):
        c = _proportion(m, rep.powers[delta][1], (i, j))
        out.append(((i, j), c))
        if c:
            m = matmul(generator_matrix(rep, delta, ring.int_(-c) * p**i * q**j), m)
    if not is_identity(m):
        raise OracleMismatch("commutator of %r, %r does not reduce to the identity" % (a, b))
    return tuple(out)


def _proportion(m, x_delta, ij):
    """c with the P^i Q^j coefficients of m - 1 equal to c * x_delta."""
    seen = {}
    for pos, entry in m.entries_minus_identity():
        coeff = entry.num.get(ij, 0)
        if coeff:
            seen[pos] = coeff
    c = None
    for pos, base in x_delta.items():
        got = seen.pop(pos, 0)
        if got % base:
            raise OracleMismatch("non-proportional residual at %r" % (pos,))
        if c is None:
            c = got // base
        elif c != got // base:
            raise OracleMismatch("inconsistent coefficient extraction")
    if seen:
        raise OracleMismatch("residual outside the root space at %s" % (seen,))
    return c if c is not None else 0


class FractionLieConstants:
    """N(a, b) by the extraspecial-pair recursion in fractions, on root
    tuples: the reference for `RootSystem.lie_constant`, `extraspecial_pair`
    and `add`.

    The sign conventions are Carter's (Simple Groups of Lie Type):
    N(eps, eta) = p + 1 on each extraspecial pair, and every other constant
    follows from N(a, b) = -N(b, a) = -N(-a, -b), the cyclic identity
    N(a, b)/(c, c) = N(b, c)/(a, a) for a + b + c = 0, and the Jacobi
    identity on (eps, eta, -a, -b).
    """

    def __init__(self, rs):
        self.roots = frozenset(rs.roots)
        self.positive = rs.positive_roots
        self.order = {r: i for i, r in enumerate(self.positive)}
        self._memo = {}

    @staticmethod
    def _norm2(a):
        return sum(x * x for x in a)

    def add(self, a, b):
        v = tuple(x + y for x, y in zip(a, b))
        return v if v in self.roots else None

    def extraspecial_pair(self, gamma):
        for eps in self.positive:
            eta = tuple(x - y for x, y in zip(gamma, eps))
            if eta in self.order:
                return eps, eta
        raise ValueError("%r is simple" % (gamma,))

    def lie_constant(self, a, b):
        key = (a, b)
        if key not in self._memo:
            self._memo[key] = self._raw(a, b)
        return self._memo[key]

    def _raw(self, a, b):
        n = self.lie_constant
        z = self.add(a, b)
        if z is None:
            return Fraction(0)
        pos_a, pos_b = a in self.order, b in self.order
        if not pos_a and not pos_b:
            return -n(_neg(a), _neg(b))
        if not pos_a:
            return -n(b, a)
        if not pos_b:
            if z in self.order:
                return -Fraction(self._norm2(z), self._norm2(a)) * n(_neg(b), z)
            return Fraction(self._norm2(z), self._norm2(b)) * n(_neg(z), a)
        if self.order[a] > self.order[b]:
            return -n(b, a)
        eps, eta = self.extraspecial_pair(z)
        if eps == a:
            p, cur = 0, tuple(x - y for x, y in zip(eta, eps))
            while cur in self.roots:
                p, cur = p + 1, tuple(x - y for x, y in zip(cur, eps))
            return Fraction(p + 1)
        total = Fraction(0)
        d1 = self.add(eta, _neg(a))
        if d1 is not None:
            total += n(eta, _neg(a)) * n(eps, _neg(b)) / self._norm2(d1)
        d2 = self.add(eps, _neg(a))
        if d2 is not None:
            total += n(_neg(a), eps) * n(eta, _neg(b)) / self._norm2(d2)
        return self._norm2(z) * total / n(eps, eta)


def _neg(r):
    return tuple(-x for x in r)
