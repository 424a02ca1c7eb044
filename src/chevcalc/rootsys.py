"""Root systems with integer realizations and exact structure constants.

Every supported system is realized with integer coordinates (the systems
with half-integer textbook coordinates are scaled by 2, which changes no
structure constant).  Lie-level constants N(a, b) are built from the
extraspecial pairs of the height ordering; group-level commutator
coefficients are extracted symbolically from a faithful representation
and cached.
"""

from fractions import Fraction

from .errors import InvalidType, OppositeRoots, OracleMismatch


def _basis(n, i, scale=1):
    v = [0] * n
    v[i] = scale
    return tuple(v)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


def _vsum(a, b, i=1, j=1):
    """The integer combination i*a + j*b."""
    return tuple(i * x + j * y for x, y in zip(a, b))


def _build_a(rank):
    n = rank + 1
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                roots.append(_vsub(_basis(n, i), _basis(n, j)))
    simple = [_vsub(_basis(n, i), _basis(n, i + 1)) for i in range(rank)]
    return roots, simple


def _build_b(rank):
    n = rank
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(_vadd(_basis(n, i, si), _basis(n, j, sj)))
    for i in range(n):
        roots.append(_basis(n, i))
        roots.append(_basis(n, i, -1))
    simple = [_vsub(_basis(n, i), _basis(n, i + 1)) for i in range(rank - 1)]
    simple.append(_basis(n, rank - 1))
    return roots, simple


def _build_c(rank):
    n = rank
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(_vadd(_basis(n, i, si), _basis(n, j, sj)))
    for i in range(n):
        roots.append(_basis(n, i, 2))
        roots.append(_basis(n, i, -2))
    simple = [_vsub(_basis(n, i), _basis(n, i + 1)) for i in range(rank - 1)]
    simple.append(_basis(n, rank - 1, 2))
    return roots, simple


def _build_d(rank):
    n = rank
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(_vadd(_basis(n, i, si), _basis(n, j, sj)))
    simple = [_vsub(_basis(n, i), _basis(n, i + 1)) for i in range(rank - 1)]
    simple.append(_vadd(_basis(n, rank - 2), _basis(n, rank - 1)))
    return roots, simple


def _build_g(rank):
    roots = []
    for i in range(3):
        for j in range(3):
            if i != j:
                roots.append(_vsub(_basis(3, i), _basis(3, j)))
    for i in range(3):
        long = [-1, -1, -1]
        long[i] = 2
        roots.append(tuple(long))
        roots.append(_vneg(tuple(long)))
    simple = [(1, -1, 0), (-2, 1, 1)]
    return roots, simple


def _build_f(rank):
    # Scaled by 2 so the half-sum roots become integral.
    roots = []
    for i in range(4):
        roots.append(_basis(4, i, 2))
        roots.append(_basis(4, i, -2))
        for j in range(i + 1, 4):
            for si in (2, -2):
                for sj in (2, -2):
                    roots.append(_vadd(_basis(4, i, si), _basis(4, j, sj)))
    for mask in range(16):
        roots.append(tuple(1 if (mask >> k) & 1 else -1 for k in range(4)))
    simple = [
        (0, 2, -2, 0),
        (0, 0, 2, -2),
        (0, 0, 0, 2),
        (1, -1, -1, -1),
    ]
    return roots, simple


def _e8_roots():
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    roots.append(_vadd(_basis(8, i, si), _basis(8, j, sj)))
    for mask in range(256):
        v = tuple(1 if (mask >> k) & 1 else -1 for k in range(8))
        if bin(mask).count("1") % 2 == 0:
            roots.append(v)
    return roots


def _e8_simple():
    # Bourbaki numbering, scaled by 2.
    simple = [
        (1, -1, -1, -1, -1, -1, -1, 1),
        (2, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
        (0, 0, 0, 0, -2, 2, 0, 0),
        (0, 0, 0, 0, 0, -2, 2, 0),
    ]
    return simple


def _build_e(rank):
    all_roots = _e8_roots()
    simple = _e8_simple()[:rank]
    if rank == 8:
        return all_roots, simple
    roots = [r for r in all_roots if _solve_in_span(simple, r) is not None]
    return roots, simple


def _solve_in_span(basis_vecs, target):
    """Exact rational solution of sum(c_i * basis_i) = target, or None."""
    n = len(target)
    k = len(basis_vecs)
    rows = [[Fraction(basis_vecs[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = None
        for i in range(r, n):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    sol = [Fraction(0)] * k
    for row, c in zip(rows, pivots):
        sol[c] = row[k]
    for i in range(r, n):
        if rows[i][k]:
            return None
    # Verify (protects against rank deficiencies).
    for i in range(n):
        tot = sum(sol[j] * basis_vecs[j][i] for j in range(k))
        if tot != target[i]:
            return None
    return tuple(sol)


_BUILDERS = {
    "A": (_build_a, 1, 8),
    "B": (_build_b, 2, 8),
    "C": (_build_c, 2, 8),
    "D": (_build_d, 3, 8),
    "E": (_build_e, 6, 8),
    "F": (_build_f, 4, 4),
    "G": (_build_g, 2, 2),
}


class RootSystem:
    """An irreducible reduced root system with an integer realization."""

    def __init__(self, label, rank):
        if label not in _BUILDERS:
            raise InvalidType("unknown root system family %r" % (label,))
        builder, lo, hi = _BUILDERS[label]
        if not (lo <= rank <= hi):
            raise InvalidType("rank %d out of range for %s (%d..%d)" % (rank, label, lo, hi))
        self.label = label
        self.rank = rank
        roots, simple = builder(rank)
        self.simple = tuple(simple)
        self._root_set = set(roots)
        self.ambient_dim = len(simple[0])
        # Simple coordinates, heights, and a deterministic order.
        self._coords = {}
        for r in roots:
            sol = _solve_in_span(self.simple, r)
            if sol is None or any(c.denominator != 1 for c in sol):
                raise OracleMismatch("root %r outside the simple-root lattice" % (r,))
            coords = tuple(int(c) for c in sol)
            if not (all(c >= 0 for c in coords) or all(c <= 0 for c in coords)):
                raise OracleMismatch("root %r with mixed signs" % (r,))
            self._coords[r] = coords
        self.roots = tuple(
            sorted(roots, key=lambda r: (sum(self._coords[r]), self._coords[r]))
        )
        self.positive_roots = tuple(r for r in self.roots if self.height(r) > 0)
        self._order = {r: i for i, r in enumerate(self.positive_roots)}
        norms = sorted({self.norm2(r) for r in self.roots})
        self._max_norm = norms[-1]
        self._min_norm = norms[0]
        self._extraspecial = {}
        self._lie_memo = {}

    def __str__(self):
        return "%s%d" % (self.label, self.rank)

    __repr__ = __str__

    # ----- elementary geometry -----

    def contains(self, v):
        return tuple(v) in self._root_set

    def height(self, r):
        return sum(self._coords[r])

    def coords(self, r):
        return self._coords[r]

    def neg(self, r):
        return _vneg(r)

    def add(self, a, b):
        """The root a + b, or None."""
        v = _vadd(a, b)
        return v if v in self._root_set else None

    def inner(self, a, b):
        return sum(x * y for x, y in zip(a, b))

    def norm2(self, a):
        return self.inner(a, a)

    def is_long(self, a):
        return self.norm2(a) == self._max_norm

    def is_short(self, a):
        return self.norm2(a) == self._min_norm and self._min_norm != self._max_norm

    def num_lengths(self):
        return 1 if self._min_norm == self._max_norm else 2

    def cartan_int(self, a, b):
        """The Cartan integer <b, a^> = 2(b, a)/(a, a)."""
        num = 2 * self.inner(a, b)
        den = self.norm2(a)
        if num % den:
            raise OracleMismatch("nonintegral Cartan pairing")
        return num // den

    def reflect(self, a, b):
        """Reflection of b in the hyperplane orthogonal to a."""
        return _vsub(b, tuple(self.cartan_int(a, b) * x for x in a))

    def p_value(self, a, b):
        """Largest p >= 0 with b - p*a a root."""
        if a == b or a == _vneg(b):
            raise OppositeRoots("chain through a proportional root")
        p = 0
        cur = _vsub(b, a)
        while cur in self._root_set:
            p += 1
            cur = _vsub(cur, a)
        return p

    def q_value(self, a, b):
        """Largest q >= 0 with b + q*a a root."""
        if a == b or a == _vneg(b):
            raise OppositeRoots("chain through a proportional root")
        q = 0
        cur = _vadd(b, a)
        while cur in self._root_set:
            q += 1
            cur = _vadd(cur, a)
        return q

    def is_positive(self, r):
        return self.height(r) > 0

    def coroot_coords(self, a):
        """Coordinates of the coroot of a over the simple coroots."""
        target = tuple(Fraction(2 * x, self.norm2(a)) for x in a)
        basis = [
            tuple(Fraction(2 * x, self.norm2(si)) for x in si) for si in self.simple
        ]
        sol = _solve_in_span(basis, target)
        if sol is None or any(c.denominator != 1 for c in sol):
            raise OracleMismatch("coroot outside the simple coroot lattice")
        return tuple(int(c) for c in sol)

    # ----- Lie-level structure constants -----

    def extraspecial_pair(self, gamma):
        """The minimal decomposition of a positive non-simple root."""
        if gamma in self._extraspecial:
            return self._extraspecial[gamma]
        best = None
        for eps in self.positive_roots:
            rest = _vsub(gamma, eps)
            if rest in self._root_set and self.is_positive(rest):
                if best is None or self._order[eps] < self._order[best]:
                    best = eps
        if best is None:
            raise OppositeRoots("no decomposition: %r is simple" % (gamma,))
        pair = (best, _vsub(gamma, best))
        self._extraspecial[gamma] = pair
        return pair

    def lie_constant(self, a, b):
        """The Chevalley basis constant N(a, b), with [e_a, e_b] = N(a,b) e_{a+b}.

        Returns 0 when a + b is not a root; raises OppositeRoots on b = -a.
        """
        if b == _vneg(a):
            raise OppositeRoots("N(a, -a) is not defined")
        v = self._lie_frac(a, b)
        if v.denominator != 1:
            raise OracleMismatch("nonintegral structure constant")
        return int(v)

    def _lie_frac(self, a, b):
        key = (a, b)
        if key in self._lie_memo:
            return self._lie_memo[key]
        val = self._lie_frac_raw(a, b)
        self._lie_memo[key] = val
        return val

    def _lie_frac_raw(self, a, b):
        if _vadd(a, b) not in self._root_set:
            return Fraction(0)
        pos_a = self.is_positive(a)
        pos_b = self.is_positive(b)
        if not pos_a and not pos_b:
            return -self._lie_frac(_vneg(a), _vneg(b))
        if not pos_a:
            return -self._lie_frac(b, a)
        if pos_a and not pos_b:
            z = _vadd(a, b)
            if self.is_positive(z):
                return -Fraction(self.norm2(z), self.norm2(a)) * self._lie_frac(
                    _vneg(b), z
                )
            return Fraction(self.norm2(z), self.norm2(b)) * self._lie_frac(_vneg(z), a)
        if self._order[a] > self._order[b]:
            return -self._lie_frac(b, a)
        gamma = _vadd(a, b)
        eps, eta = self.extraspecial_pair(gamma)
        if eps == a:
            return Fraction(self.p_value(eps, eta) + 1)
        # Jacobi identity on the quadruple (eps, eta, -a, -b).
        total = Fraction(0)
        d1 = _vsub(eta, a)
        if d1 in self._root_set:
            total += self._lie_frac(eta, _vneg(a)) * self._lie_frac(
                eps, _vneg(b)
            ) / self.norm2(d1)
        d2 = _vsub(eps, a)
        if d2 in self._root_set:
            total += self._lie_frac(_vneg(a), eps) * self._lie_frac(
                eta, _vneg(b)
            ) / self.norm2(d2)
        n_eps_eta = self._lie_frac(eps, eta)
        return Fraction(self.norm2(gamma)) * total / n_eps_eta


_SYSTEM_CACHE = {}


def build_root_system(label, rank):
    """Shared, validated construction of a root system."""
    key = (label, rank)
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = RootSystem(label, rank)
    return _SYSTEM_CACHE[key]


def system_from_label(label):
    """The root system a label such as "A2" or "G2" names; InvalidType when
    it names none."""
    try:
        return build_root_system(label[0], int(label[1:]))
    except (IndexError, ValueError):
        raise InvalidType("bad root system label %r" % (label,)) from None


class StructureConstants:
    """Group-level commutator coefficients, extracted and cached per pair.

    For roots a != +-b, `comm_coeffs(a, b)` returns the coefficients c of
    [x_a(P), x_b(Q)] = prod over roots i*a+j*b (i, j >= 1, ordered by
    (i+j, i) ascending) of x_{i*a+j*b}(c * P^i * Q^j), where the commutator
    convention is [g, h] = g^-1 h^-1 g h.
    """

    def __init__(self, rs):
        self.rs = rs
        self._memo = {}
        self._rep = None
        self._ring = None

    def _tools(self):
        if self._rep is None:
            from . import chevrep
            from .exactring import Ring

            self._rep = chevrep.Representation.adjoint(self.rs)
            self._ring = Ring.integers().extend("P", "Q")
        return self._rep, self._ring

    def pair_roots(self, a, b):
        """Roots i*a + j*b with i, j >= 1, in (i+j, i) ascending order."""
        rs = self.rs
        out = []
        for i in range(1, 5):
            for j in range(1, 5):
                v = _vsum(a, b, i, j)
                if v in rs._root_set:
                    out.append(((i, j), v))
        out.sort(key=lambda entry: (entry[0][0] + entry[0][1], entry[0][0]))
        return out

    def comm_coeffs(self, a, b):
        if b == _vneg(a) or a == b:
            raise OppositeRoots("commutator coefficients need a != +-b")
        key = (a, b)
        if key in self._memo:
            return self._memo[key]
        rep, ring = self._tools()
        p, q = ring.var("P"), ring.var("Q")
        m = rep.evaluate_generators(((a, -p), (b, -q), (a, p), (b, q)), ring)
        out = []
        for (i, j), delta in self.pair_roots(a, b):
            c = self._extract(rep, m, delta, (i, j))
            out.append(((i, j), c))
            if c:
                arg = ring.int_(-c) * p**i * q**j
                m = rep.generator_matrix(delta, arg) * m
        if not m.is_identity():
            raise OracleMismatch(
                "commutator of %r, %r does not reduce to the identity" % (a, b)
            )
        out = tuple(out)
        self._memo[key] = out
        return out

    def _extract(self, rep, m, delta, ij):
        """Coefficient of P^i Q^j via proportionality with the ad matrix."""
        i, j = ij
        x_delta = rep.templates[delta]
        c = None
        seen = {}
        for (r, col), entry in m.entries_minus_identity():
            coeff = entry.num.get((i, j), 0)
            if coeff:
                seen[(r, col)] = coeff
        for pos, base in x_delta.items():
            got = seen.pop(pos, 0)
            if got % base:
                raise OracleMismatch("non-proportional residual at %r" % (pos,))
            ratio = got // base
            if c is None:
                c = ratio
            elif c != ratio:
                raise OracleMismatch("inconsistent coefficient extraction")
        if seen:
            raise OracleMismatch("residual outside the root space at %s" % (seen,))
        return c if c is not None else 0

    def c11(self, a, b):
        """The leading coefficient of [x_a(P), x_b(Q)] on a + b."""
        for (ij, c) in self.comm_coeffs(a, b):
            if ij == (1, 1):
                return c
        raise OppositeRoots("a + b is not a root")


_SC_CACHE = {}


def compute_structure_constants(rs):
    key = (rs.label, rs.rank)
    if key not in _SC_CACHE:
        _SC_CACHE[key] = StructureConstants(rs)
    return _SC_CACHE[key]


def find_unit_sum_decomposition(sc, alpha, ring):
    """A pair (beta, gamma, eps) with beta + gamma = alpha and an invertible
    leading commutator coefficient c = c11(beta, gamma); eps * c = 1.

    Returns None when no decomposition fits.
    """
    rs = sc.rs
    for beta in rs.roots:
        gamma = _vsub(alpha, beta)
        if gamma not in rs._root_set:
            continue
        if beta == gamma or beta == _vneg(gamma):
            continue
        c = sc.c11(beta, gamma)
        if c and ring.n_invertible(c):
            return beta, gamma, ring.inverse_of_int(c)
    return None
