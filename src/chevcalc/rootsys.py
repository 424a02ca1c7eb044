"""Root systems with integer realizations and exact structure constants.

Every supported system is realized with integer coordinates (the systems
with half-integer textbook coordinates are scaled by 2, which changes no
structure constant).  Simple-root coordinates come from root strings:
adding one simple root at a time inside the root set reaches every
positive root, and the closure must be the whole root set.  E6 and E7 are
that closure of their simple roots inside E8.  A coroot's coordinates over
the simple coroots are c_i * (a_i, a_i) / (a, a).

Each system builds its tables once, when it is made: a root's position
in `roots`, a linear integer code of its simple coordinates, and from the
codes the sum table, looked up on the positive roots and negated onto the
negative ones.  Every Lie-level constant N(a, b) follows in the same
construction, from one pass over the positive pairs in the height ordering
of their sums (the extraspecial pair, then the Jacobi identity), so
`lie_constant` and `constant` are lookups.  Group-level commutator
coefficients follow from them by the Chevalley commutator
formula (Carter, Simple Groups of Lie Type, Thm 5.2.2) and are cached per
pair; see `StructureConstants`.  The tests check the constants against a
recursion in fractions (`FractionLieConstants`) and the coefficients
against adjoint matrix products (`extracted_comm_coeffs`), both in
tests/wordgen.py.  Everything here is integer arithmetic, with every
division checked exact.
"""

import math
import operator

from .errors import InvalidType, OppositeRoots, OracleMismatch


def _basis(n, i, scale=1):
    v = [0] * n
    v[i] = scale
    return tuple(v)


def _vadd(a, b):
    return tuple(map(operator.add, a, b))


def _vsub(a, b):
    return tuple(map(operator.sub, a, b))


def _vneg(a):
    return tuple(map(operator.neg, a))


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


def _pm_pairs(n, scale=1):
    """The vectors +-scale*e_i +-scale*e_j, i < j, in R^n."""
    for i in range(n):
        for j in range(i + 1, n):
            for si in (scale, -scale):
                for sj in (scale, -scale):
                    yield _vadd(_basis(n, i, si), _basis(n, j, sj))


def _build_b(rank, axis=1):
    # C differs from B only in the length of the roots on the axes
    n = rank
    roots = list(_pm_pairs(n))
    for i in range(n):
        roots.append(_basis(n, i, axis))
        roots.append(_basis(n, i, -axis))
    simple = [_vsub(_basis(n, i), _basis(n, i + 1)) for i in range(rank - 1)]
    simple.append(_basis(n, rank - 1, axis))
    return roots, simple


def _build_c(rank):
    return _build_b(rank, axis=2)


def _build_d(rank):
    n = rank
    roots = list(_pm_pairs(n))
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
    roots = list(_pm_pairs(4, 2))
    for i in range(4):
        roots.append(_basis(4, i, 2))
        roots.append(_basis(4, i, -2))
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
    roots = list(_pm_pairs(8, 2))
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
    simple = _e8_simple()[:rank]
    if rank == 8:
        return _e8_roots(), simple
    # E6 and E7: the roots of E8 that root strings reach from their simple roots
    return list(_simple_coords(_e8_roots(), simple)), simple


def _simple_coords(roots, simple):
    """{root: simple-root coordinates} over the roots that root strings
    reach inside `roots`: each simple root has a unit vector, r + a_i (when
    in `roots`) has r's coordinates plus e_i, and -r has minus r's.  Every
    positive root is reached this way from a simple root, one simple root
    at a time, so integer coordinates come from additions alone."""
    root_set = set(roots)
    n = len(simple)
    coords = {a: _basis(n, i) for i, a in enumerate(simple)}
    frontier = list(simple)
    while frontier:
        reached = []
        for r in frontier:
            for i, a in enumerate(simple):
                v = _vadd(r, a)
                if v in root_set and v not in coords:
                    coords[v] = _vadd(coords[r], _basis(n, i))
                    reached.append(v)
        frontier = reached
    for r, c in list(coords.items()):
        if _vneg(r) in coords:
            raise OracleMismatch("root %r and its negative are both positive" % (r,))
        coords[_vneg(r)] = _vneg(c)
    return coords


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
        self.ambient_dim = len(simple[0])
        # Simple coordinates, heights, and a deterministic order.
        self._coords = _simple_coords(roots, self.simple)
        if set(self._coords) != set(roots):
            raise OracleMismatch(
                "%s%d: root strings from the simple roots reach %d roots, not the %d given"
                % (label, rank, len(self._coords), len(set(roots)))
            )
        self.roots = tuple(
            sorted(roots, key=lambda r: (sum(self._coords[r]), self._coords[r]))
        )
        # roots[:half] are the negative roots, roots[half:] the positive
        # ones in the height ordering
        half = len(self.roots) // 2
        self.positive_roots = self.roots[half:]
        self._half = half
        # index[r] is r's position in roots
        self.index = {r: i for i, r in enumerate(self.roots)}
        self._neg = [self.index[_vneg(r)] for r in self.roots]
        self._norm = [self.norm2(r) for r in self.roots]
        self._simple_norm = [self.norm2(a) for a in self.simple]
        norms = sorted(set(self._norm))
        self._max_norm = norms[-1]
        self._min_norm = norms[0]
        # code(r) = sum c_i * base^i over r's simple coordinates.  Every
        # combination looked up by code (i*a + j*b with i + j <= 6) has
        # coordinates of size below base / 2, so it is a root exactly when
        # its code is a key of _by_code.
        top = max(abs(c) for r in self.roots for c in self._coords[r])
        base = 12 * top + 1
        self._code = [
            sum(c * base**i for i, c in enumerate(self._coords[r])) for r in self.roots
        ]
        self._by_code = {c: i for i, c in enumerate(self._code)}
        # sums[i] = {j: k} with roots[i] + roots[j] = roots[k], looked up by
        # code on the positive roots.  A negative root's row is its
        # positive's negated, -a + -b = -(a + b); negation reverses the
        # order of the roots, so reading that row backwards keeps j
        # ascending.
        by_code, neg = self._by_code, self._neg
        rows = [
            {j: k for j, cb in enumerate(self._code) if (k := by_code.get(ca + cb)) is not None}
            for ca in self._code[half:]
        ]
        self.sums = [
            {neg[j]: neg[k] for j, k in reversed(rows[neg[i] - half].items())}
            for i in range(half)
        ] + rows
        # constants[i] = {j: N(roots[i], roots[j]) for j in sums[i]};
        # _extraspecial[gamma] = (eps, gamma - eps) for the least eps in
        # the height ordering with gamma - eps positive
        self.constants, self._extraspecial = self._lie_constants()

    def __str__(self):
        return "%s%d" % (self.label, self.rank)

    __repr__ = __str__

    # ----- elementary geometry -----

    def contains(self, v):
        return tuple(v) in self.index

    def height(self, r):
        return sum(self._coords[r])

    def coords(self, r):
        return self._coords[r]

    def neg(self, r):
        return _vneg(r)

    def add(self, a, b):
        """The root a + b of two roots, or None."""
        k = self.sums[self.index[a]].get(self.index[b])
        return None if k is None else self.roots[k]

    def inner(self, a, b):
        return sum(map(operator.mul, a, b))

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
        while cur in self.index:
            p += 1
            cur = _vsub(cur, a)
        return p

    def coroot_coords(self, a):
        """Coordinates of the coroot 2a/(a, a) over the simple coroots
        2a_i/(a_i, a_i): c_i * (a_i, a_i) / (a, a) for a = sum c_i a_i."""
        norm = self.norm2(a)
        out = []
        for c, ni in zip(self._coords[a], self._simple_norm):
            q, rem = divmod(c * ni, norm)
            if rem:
                raise OracleMismatch("coroot outside the simple coroot lattice")
            out.append(q)
        return tuple(out)

    # ----- Lie-level structure constants -----

    def extraspecial_pair(self, gamma):
        """The minimal decomposition of a positive non-simple root."""
        pair = self._extraspecial.get(self.index[gamma])
        if pair is None:
            raise OppositeRoots("no decomposition: %r is simple" % (gamma,))
        return self.roots[pair[0]], self.roots[pair[1]]

    def lie_constant(self, a, b):
        """The Chevalley basis constant N(a, b), with [e_a, e_b] = N(a,b) e_{a+b}.

        Returns 0 when a + b is not a root; raises OppositeRoots on b = -a.
        """
        i, j = self.index[a], self.index[b]
        if j == self._neg[i]:
            raise OppositeRoots("N(a, -a) is not defined")
        return self.constant(i, j)

    def constant(self, i, j):
        """N(roots[i], roots[j]) for j not the index of -roots[i]."""
        return self.constants[i].get(j, 0)

    def _lie_constants(self):
        """The constant rows and the extraspecial pairs, over indices.

        One pass over the positive sums in the height ordering fills the
        positive pairs: N(eps, eta) = p + 1 on the extraspecial pair of
        gamma, and the Jacobi identity on (eps, eta, -a, -b) for each other
        pair a + b = gamma.  Its terms are constants of one positive and one
        negative root whose sum is lower than gamma, and the cyclic identity
        reads each from a positive pair already filled.  N(a, b) = -N(b, a)
        and N(-a, -b) = -N(a, b) give the rest.
        """
        half, neg, norm, sums = self._half, self._neg, self._norm, self.sums
        size = len(self.roots)
        consts = [{} for _ in range(size)]

        def mixed(a, b):
            # N(a, b) for a positive and b negative, from the cyclic
            # identity N(a, b)/(c, c) = N(b, c)/(a, a) for a + b + c = 0
            k = sums[a].get(b)
            if k is None:
                return 0
            if k >= half:
                return _exact(-norm[k] * consts[neg[b]][k], norm[a], "structure constant")
            return _exact(norm[k] * consts[neg[k]][a], norm[b], "structure constant")

        # by_sum[gamma] = the positive pairs (a, b), a < b, with a + b = gamma,
        # least a first: the first is gamma's extraspecial pair
        by_sum = {}
        for a in range(half, size):
            for b, k in sums[a].items():
                if b > a:
                    by_sum.setdefault(k, []).append((a, b))
        for k in range(half, size):
            pairs = by_sum.get(k)
            if pairs is None:
                continue
            eps, eta = pairs[0]
            n_ee = self.p_value(self.roots[eps], self.roots[eta]) + 1
            consts[eps][eta], consts[eta][eps] = n_ee, -n_ee
            for a, b in pairs[1:]:
                # N(a, b) = (k, k) / N(eps, eta) * (t1 / n1 + t2 / n2),
                # multiplied through by the norms n1 and n2
                na, nb = neg[a], neg[b]
                t1, n1, t2, n2 = 0, 1, 0, 1
                d1 = sums[eta].get(na)
                if d1 is not None:
                    t1, n1 = mixed(eta, na) * mixed(eps, nb), norm[d1]
                d2 = sums[eps].get(na)
                if d2 is not None:
                    # N(-a, eps) = -N(eps, -a)
                    t2, n2 = -mixed(eps, na) * mixed(eta, nb), norm[d2]
                n_ab = _exact(
                    norm[k] * (t1 * n2 + t2 * n1), n1 * n2 * n_ee, "structure constant"
                )
                consts[a][b], consts[b][a] = n_ab, -n_ab
        for a in range(half, size):
            row = consts[a]
            for b in sums[a]:
                if b < half:
                    row[b] = mixed(a, b)
        for a in range(half):
            row, na = consts[a], neg[a]
            for b in sums[a]:
                row[b] = -consts[na][neg[b]] if b < half else -consts[b][a]
        return consts, {k: pairs[0] for k, pairs in by_sum.items()}


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


_PAIR_ORDER = sorted(
    ((i, j) for i in range(1, 4) for j in range(1, 4)), key=lambda ij: (sum(ij), ij[0])
)


def _exact(num, den, what="commutator coefficient"):
    q, rem = divmod(num, den)
    if rem:
        raise OracleMismatch("nonintegral %s %d/%d" % (what, num, den))
    return q


class StructureConstants:
    """Group-level commutator coefficients, computed and cached per pair.

    For roots a != +-b, `comm_coeffs(a, b)` returns the coefficients c of
    [x_a(P), x_b(Q)] = prod over roots i*a+j*b (i, j >= 1, ordered by
    (i+j, i) ascending) of x_{i*a+j*b}(c * P^i * Q^j), where the commutator
    convention is [g, h] = g^-1 h^-1 g h.

    They come from the Lie constants by the Chevalley commutator formula
    (Carter, Simple Groups of Lie Type, Thm 5.2.2).  With
    M(x, y, i) = N(x, y) N(x, x+y) ... N(x, (i-1)x+y) / i!:

        c_i1 = (-1)^(i+1) M(a, b, i)     c_1j = (-1)^j M(b, a, j)
        c_32 = -2 M(a+b, a, 2) / 3       c_23 = -M(a+b, b, 2) / 3

    Every division is exact or raises OracleMismatch.  The tests hold these
    against coefficients extracted from products of adjoint matrices
    (`extracted_comm_coeffs` in tests/wordgen.py).
    """

    def __init__(self, rs):
        self.rs = rs
        self._memo = {}

    def pair_roots(self, a, b):
        """Roots i*a + j*b with i, j >= 1, in (i+j, i) ascending order.

        There are none when a + b is not a root, and i, j <= 3 in every
        reduced root system (G2 reaches 3a + 2b and 2a + 3b).
        """
        rs = self.rs
        return [(ij, rs.roots[k]) for ij, k in self._pairs(rs.index[a], rs.index[b])]

    def _pairs(self, a, b):
        """pair_roots over indices."""
        rs = self.rs
        if b not in rs.sums[a]:
            return []
        ca, cb = rs._code[a], rs._code[b]
        out = []
        for i, j in _PAIR_ORDER:
            k = rs._by_code.get(i * ca + j * cb)
            if k is not None:
                out.append(((i, j), k))
        return out

    def comm_coeffs(self, a, b):
        key = (a, b)
        if key in self._memo:
            return self._memo[key]
        rs = self.rs
        ia, ib = rs.index[a], rs.index[b]
        if ib == rs._neg[ia] or ia == ib:
            raise OppositeRoots("commutator coefficients need a != +-b")
        out = tuple((ij, self._coefficient(ia, ib, ij)) for ij, _ in self._pairs(ia, ib))
        self._memo[key] = out
        return out

    def _coefficient(self, a, b, ij):
        i, j = ij
        if j == 1:
            return (-1) ** (i + 1) * self._m(a, b, i)
        if i == 1:
            return (-1) ** j * self._m(b, a, j)
        ab = self.rs.sums[a][b]
        if ij == (3, 2):
            return _exact(-2 * self._m(ab, a, 2), 3)
        if ij == (2, 3):
            return _exact(-self._m(ab, b, 2), 3)
        raise OracleMismatch("no commutator coefficient for %d*a + %d*b" % ij)

    def _m(self, x, y, i):
        """M(x, y, i) = N(x, y) N(x, x+y) ... N(x, (i-1)x+y) / i!, over
        indices; the x-string through y is unbroken up to i*x + y."""
        rs = self.rs
        prod = 1
        for _ in range(i):
            prod *= rs.constant(x, y)
            y = rs.sums[x].get(y)
        return _exact(prod, math.factorial(i))

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
        if gamma not in rs.index:
            continue
        if beta == gamma or beta == _vneg(gamma):
            continue
        c = sc.c11(beta, gamma)
        if ring.n_invertible(c):
            return beta, gamma, ring.inverse_of_int(c)
    return None
