"""Pickle round trips of the objects a run hands back: every word node
kind, a RepMatrix, an ideal spec and a `patch` receipt.

`perfbench/run.py` keeps each pass's results pickled until the checks; a
result that fails to pickle is kept as it is, which costs memory that no
check reports.  These tests make such a failure loud: the copies compare
equal, hash alike, and their ring elements mix with the originals'.
"""

import pickle

from chevcalc.exactring import IdealSpec, Ring
from chevcalc.gword import Comm, Conj, Gen, Inv, Prod, word_to_text
from chevcalc.lgp import patch
from chevcalc.rewrite import RewriteEngine

from test_lgp import crafted_problem

A, B, C = (1, -1, 0), (0, 1, -1), (1, 0, -1)


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_word_nodes_round_trip():
    base = Ring(0, ("X",))
    loc = base.localize_at(2)
    a, b = Gen(A, loc.parse("3*X/s")), Gen(B, loc.parse("X^2 - 1"))
    for w in (a, Inv(a), Prod((a, b)), Conj(a, b), Comm(a, Inv(b)), Prod(())):
        got = _round_trip(w)
        assert type(got) is type(w)
        assert got == w and hash(got) == hash(w)
        assert word_to_text(got) == word_to_text(w)
    # the copy's arguments are elements of an equal ring and mix with the
    # original ring's elements
    arg = _round_trip(a).arg
    assert arg.ring == loc and arg.ring is not loc
    assert arg + loc.parse("X/s") == loc.parse("2*X")
    assert (arg * loc.int_(2) - a.arg * 2).is_zero()
    assert arg.ring.delocalized() == base


def test_rep_matrix_round_trips():
    ring = Ring(0, ("t",)).localize_at(2)
    eng = RewriteEngine("A2", ring)
    w = Prod((Gen(A, ring.parse("t/s")), Conj(Gen(B, ring.parse("3*t")), Gen(C, ring.one()))))
    for m in eng.evaluate(w):
        got = _round_trip(m)
        assert got == m and hash(got) == hash(m)
        assert got.dim == m.dim and got.entries == m.entries
    # the copy multiplies against matrices built from the original ring
    eng2 = RewriteEngine("A2", _round_trip(ring))
    assert eng2.evaluate(w) == eng.evaluate(w)


def test_used_ideal_spec_pickles_its_tree_not_its_expansion():
    # receipts carry specs in their certificates; the expansion and the
    # prepared membership data a membership test caches are rebuilt by
    # the copy when they are needed
    ring = Ring(0, ("t", "X"))
    spec = IdealSpec.gens(ring, 3, ring.var("t")).product(IdealSpec.gens(ring, ring.var("X")))
    fresh = len(pickle.dumps(spec))
    assert spec.contains(ring.parse("3*X"))
    assert spec._expansion is not None
    assert spec._membership is not None
    assert len(pickle.dumps(spec)) == fresh
    got = _round_trip(spec)
    assert got._expansion is None
    assert got._membership is None
    assert got.describe() == spec.describe()
    for text, member in (("3*X", True), ("t^2*X - 6*X^3", True), ("t + X", False)):
        x = ring.parse(text)
        assert got.contains(x) is spec.contains(x) is member


def test_patch_receipt_round_trips():
    # two real dilations (l = 9, 9), so the receipt nests their details
    base, prob, _ = crafted_problem(interleaved=True)
    out, rec = patch(prob)
    got_out, got_rec = _round_trip((out, rec))
    assert got_out == out and hash(got_out) == hash(out)
    assert got_rec.to_dict() == rec.to_dict()
    assert got_rec.output_word == rec.output_word
    assert got_rec.details == rec.details
    assert type(got_rec.certificate) is type(rec.certificate)
    assert got_rec.certificate.ideal.describe() == rec.certificate.ideal.describe()
    # the copied word still evaluates alike over the original base ring
    assert RewriteEngine("A2", base).equal(got_out, out)
