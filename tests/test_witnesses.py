"""Pinned digests of the membership witnesses `IdealSpec.witness` returns.

One sha256 per ring covers, for seeded specs and elements, each witness:
its (coefficient, tag) pairs in order, every tag, and each coefficient's
stored numerator items in dict order with its denominator; where the call
raises, the exception type instead.  Receipts print witness coefficients
(the `coefficients` of an lgp unit combination among them), so a change to
how witnesses are built or checked must leave these digests, dict orders
included, as they are; a change to what they hold must update them on
purpose.

To print the digests of a checkout, run
`PYTHONPATH=src python tests/test_witnesses.py` from the repository root.
"""

import hashlib
import random

import pytest

from chevcalc.errors import NotInIdeal, UndecidableIdealClass
from chevcalc.exactring import IdealSpec, Ring

_ZTX = Ring(0, ("t", "X"))
RINGS = {
    "Z[t,X]": _ZTX,
    "Z[t,X][1/2]": _ZTX.localize_at(2),
    "Z[t,X][1/6]": _ZTX.localize_at(6),
    "Z[t,X][1/t]": _ZTX.localize_at(_ZTX.var("t")),
    "Z/9[t,X]": Ring(9, ("t", "X")),
    "Z/12[t,X][1/2]": Ring(12, ("t", "X")).localize_at(2),
    "Z/4[t][1/2]": Ring(4, ("t",)).localize_at(2),
}

WITNESS_SHA256 = {
    "Z/12[t,X][1/2]": "3ddf80f74814f5833bfe08eb7c5283c8623a69cedf8090c4c5eab93d0f6f8ea3",
    "Z/4[t][1/2]": "b22373bc526dfb87eac34fe32737a34f5ea8069cf50a44d8a49e2f74d5d9951e",
    "Z/9[t,X]": "5bdf3e92d9439dae1896044360c70a7dcf9c7d7bb59742f40443add7eb41df90",
    "Z[t,X]": "77e0b310850250459ef5b025da93966b44dda0ab0f50ed146434cbcfa99a91b6",
    "Z[t,X][1/2]": "fbbf5347956d4166f2276a9e57e1e86d4fbb402dab31a255de69ebfbdcb274d8",
    "Z[t,X][1/6]": "f282eb4f54128b987869d625e52f6be42112ee46cf31837c85b4b68a39830b16",
    "Z[t,X][1/t]": "807abf8a5a82af930984febff8c749b2d878c9b769e68cde036ec2db5f2443fa",
}

SPECS = 40
ELEMENTS = 12


def _term(ring, rng, coeffs, max_exp):
    """One term c*vars^e, over a localized ring sometimes over s^1 or s^2."""
    e = tuple(rng.randint(0, max_exp) for _ in ring.var_names)
    k = rng.randint(1, 2) if ring.loc_num is not None and rng.random() < 0.4 else 0
    return ring._make({e: rng.choice(coeffs)}, k)


def _poly(ring, rng, terms):
    x = ring.zero()
    for _ in range(rng.randint(0, terms)):
        x = x + _term(ring, rng, (1, -1, 2, 3, 5, -6, 9), 3)
    return x


def _spec(ring, rng):
    """Single-term generators (alone, in a product, squared or summed), a
    principal ideal, or a two-generator class with no complete test."""
    kind = rng.choice(("gens", "gens", "product", "square", "sum", "principal", "mixed"))
    gens = [_term(ring, rng, (1, 2, 3, 4, 6, 9, 12, -8), 2) for _ in range(rng.randint(1, 3))]
    spec = IdealSpec.gens(ring, *gens)
    if kind == "product":
        spec = spec.product(IdealSpec.gens(ring, _term(ring, rng, (2, 3, 5), 1)))
    elif kind == "square":
        spec = IdealSpec.gens(ring, *gens[:2]).sym_power(2)
    elif kind == "sum":
        spec = spec.sum_with(IdealSpec.gens(ring, _term(ring, rng, (1, 3, 4), 2)))
    elif kind in ("principal", "mixed"):
        # a polynomial of two or more terms, where the ring has one; the
        # zero ring has none, so the draws are bounded
        poly = ring.zero()
        for _ in range(100):
            if len(poly.num) >= 2:
                break
            poly = _poly(ring, rng, 3)
        spec = IdealSpec.gens(ring, poly, *gens[:1] if kind == "mixed" else ())
    return spec


def _elements(spec, rng):
    """Seeded elements: random ones, mostly outside the ideal, and
    combinations of the generators, which are members."""
    ring = spec.ring
    out = []
    for _ in range(ELEMENTS):
        if rng.random() < 0.4:
            out.append(_poly(ring, rng, 4))
            continue
        x = ring.zero()
        for g in spec.expand():
            x = x + _poly(ring, rng, 2) * g
        out.append(x)
    return out


def witness_dump(name):
    ring = RINGS[name]
    rng = random.Random("witness-digest/" + name)
    lines = []
    for i in range(SPECS):
        spec = _spec(ring, rng)
        for j, x in enumerate(_elements(spec, rng)):
            try:
                got = [(t, list(c.num.items()), c.den) for c, t in spec.witness(x)]
            except (NotInIdeal, UndecidableIdealClass) as e:
                got = type(e).__name__
            lines.append("%d %d %s" % (i, j, got))
    return "\n".join(lines) + "\n"


def witness_digest(name):
    return hashlib.sha256(witness_dump(name).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_witnesses_match_their_pinned_digest(name):
    assert witness_digest(name) == WITNESS_SHA256[name]


def test_the_seeded_inputs_reach_every_outcome():
    # members, refusals and undecidable classes all occur, so the digests
    # pin more than one path
    outcomes = set()
    for name in RINGS:
        for line in witness_dump(name).splitlines():
            got = line.split(" ", 2)[2]
            outcomes.add(got if not got.startswith("[") else "pairs")
    assert outcomes == {"pairs", "NotInIdeal", "UndecidableIdealClass"}


if __name__ == "__main__":
    for name in sorted(RINGS):
        print('    "%s": "%s",' % (name, witness_digest(name)))
