"""Shared helpers for randomized tests."""

from chevcalc.chevrep import RepMatrix
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


def dense_evaluate(rep, w, ring):
    """The word's matrix as a product of dense generator matrices: the
    reference for `Representation.evaluate_word`."""
    m = RepMatrix.identity(ring, rep.dim)
    for g in flatten(w):
        m = m * rep.generator_matrix(g.root, ring.coerce(g.arg))
    return m
