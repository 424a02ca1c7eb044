"""The benchmark's three workloads.

A workload makes the items of one pass from the run seed and the pass
index, runs one item as a single call into chevcalc (the caller times the
call), and checks the item's output afterwards, outside the timed region.
Every pass draws fresh items, so no word repeats across passes and a
cache kept between calls cannot turn a later pass into lookups.

Item generation, checks and set-up live here; timing, tracing and the
report live in run.py and tracer.py.  A workload's `tail` is the
percentile of item time that run.py reports as item_tail_s.
"""

import ast
import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from chevcalc import chevrep, cli, lgp, rootsys
from chevcalc.exactring import IdealSpec, Ring
from chevcalc.gword import (
    Gen,
    LevelShape,
    Prod,
    check_shape,
    flatten,
    substitute_word,
    word_from_text,
)
from chevcalc.rewrite import RewriteEngine

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"


@dataclass(frozen=True)
class Item:
    """One call into chevcalc: `key` names it, `data` is what the call needs."""

    key: str
    data: object


@dataclass(frozen=True)
class Outcome:
    """The benchmark's verdict on one item's output."""

    ok: bool
    gens: int = 0
    attested: int = 0
    note: str = ""


def _rng(workload, seed, pass_index):
    # str seeds are hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED
    return random.Random("%s/%d/%d" % (workload, seed, pass_index))


def _system(label):
    return rootsys.build_root_system(label[0], int(label[1:]))


def _build(systems):
    """Warm the root-system, structure-constant and representation caches."""
    for label in systems:
        rs = _system(label)
        sc = rootsys.compute_structure_constants(rs)
        for a in rs.roots:
            for b in rs.roots:
                if a != b and b != rs.neg(a):
                    sc.comm_coeffs(a, b)
        RewriteEngine(rs, Ring.integers())  # builds the engine's representations


def _dilation_attestations(details):
    """Attestations recorded by the dilations nested in a patch receipt."""
    dilations = details.get("dilations", ())
    if isinstance(dilations, str):
        # receipts serialize nested details as their repr
        dilations = ast.literal_eval(dilations)
    return sum(d.get("ninth_power_attested", 0) for d in dilations)


def _agrees(out, target, ring, reps):
    return all(rep.words_equal(out, target, ring) for rep in reps)


# ----- cli_instances -----


# every shipped instance with the exit code the CLI must give it; the two
# refusals are the intended outcomes of those files
INSTANCE_EXIT = {
    "decomposition_a2.json": 0,
    "dilate_a2.json": 0,
    "empty_word.json": 0,
    "for_dilation_a2.json": 0,
    "lgp_cover23.json": 0,
    "lgp_cover23_global.json": 0,
    "lgp_cover24.json": 17,
    "lgp_unit.json": 0,
    "moving_t_a2.json": 0,
    "sp_relinc_c2z.json": 13,
    "splitting_a2.json": 0,
}
TABLE_SYSTEMS = ("A2", "C2", "G2")
VERIFY_SUITES = ("steinberg", "absolute", "gij", "relcomm", "eee")


@dataclass(frozen=True)
class CliCall:
    argv: tuple
    expect: int
    instance: object = None


class CliInstances:
    """Every shipped instance file, the `tables` dump and one seeded
    `verify` run per suite, each as one call of `cli.main`."""

    name = "cli_instances"
    tail = 0.99
    systems = ("A2", "C2", "G2")

    def setup(self):
        _build(self.systems)

    def items(self, seed, pass_index):
        rng = _rng(self.name, seed, pass_index)
        out = []
        for fname in sorted(INSTANCE_EXIT):
            path = INSTANCES / fname
            inst = json.loads(path.read_text())
            argv = ("demo", "--instance", str(path)) if "lemma" in inst else (
                "lgp", "--problem", str(path))
            out.append(Item(fname, CliCall(argv, INSTANCE_EXIT[fname], inst)))
        for label in TABLE_SYSTEMS:
            out.append(Item("tables/" + label, CliCall(("tables", "--system", label), 0)))
        for suite in VERIFY_SUITES:
            argv = ("verify", "--suite", suite, "--system", "A2", "--ring", "Z[t]",
                    "--ideal", "3", "--ideal2", "t", "--count", "4",
                    "--seed", str(rng.randrange(2**31)))
            out.append(Item("verify/" + suite, CliCall(argv, 0)))
        return out

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(item.data.argv))
        return code, out.getvalue()

    def check(self, item, result):
        call = item.data
        code, text = result
        if code != call.expect:
            return Outcome(False, note="exit %d, expected %d" % (code, call.expect))
        if code != 0:
            return Outcome(True)
        command = call.argv[0]
        if command == "tables":
            return Outcome(text.startswith("system %s " % call.argv[2]))
        payload = json.loads(text)
        if command == "verify":
            return Outcome(payload["passed"] is True)
        inst = call.instance
        rs = cli.system_object(inst["system"])
        ring = cli.ring_from_text(inst["ring"])
        out = word_from_text(payload["word"], ring, rs)
        receipt = payload["receipt"]
        attested = receipt["attested"] + _dilation_attestations(receipt["details"])
        gens = len(flatten(out))
        if command == "lgp" and not self._lgp_ok(inst, rs, ring, out):
            return Outcome(False, gens, attested, "lgp word does not re-verify")
        return Outcome(True, gens, attested)

    @staticmethod
    def _lgp_ok(inst, rs, base, out):
        eng = RewriteEngine(rs, base)
        ideal = cli.ideal_from_texts(base, inst["ideal"])
        if not check_shape(out, LevelShape(ideal), eng.congruence_oracle()).ok:
            return False
        if "global" in inst:
            return _agrees(out, word_from_text(inst["global"], base, rs), base, eng.reps)
        for d in inst["data"]:
            loc = base.localize_at(base.parse(str(d["s"])))
            lifted = substitute_word(out, {n: loc.var(n) for n in base.var_names}, loc)
            if not _agrees(lifted, word_from_text(d["word"], loc, rs), loc, eng.reps):
                return False
        return True


# ----- patch_ladder -----


# Rungs are fixed root patterns.  Patching cost and output size depend
# mostly on how the roots of a word interact, so the seed draws the
# coefficients and the pass cost stays comparable across seeds.
# The heavy A2 and A3 patterns show the word-length cliff; A2 patterns
# that take a minute or more are left out so that one pass takes seconds.
LADDER = (
    ("A2", ((1, -1, 0), (-1, 1, 0))),
    ("A2", ((1, -1, 0), (0, 1, -1))),
    ("A2", ((1, -1, 0), (1, 0, -1))),
    ("A2", ((0, 1, -1), (1, -1, 0), (0, -1, 1))),
    ("A2", ((1, -1, 0), (1, -1, 0), (0, 1, -1))),
    ("A2", ((0, 1, -1), (0, 1, -1), (1, -1, 0))),
    ("A2", ((-1, 0, 1), (-1, 1, 0), (-1, 0, 1))),
    ("A2", ((1, -1, 0), (1, -1, 0), (0, 1, -1), (-1, 1, 0))),
    ("A2", ((0, 1, -1), (0, 1, -1), (1, -1, 0), (0, 1, -1))),
    ("A3", ((0, 0, 1, -1), (1, 0, -1, 0), (-1, 0, 1, 0))),
    ("A3", ((1, -1, 0, 0), (0, 1, 0, -1), (0, 0, 1, -1))),
    ("C2", ((1, 1), (-1, -1))),
    ("C2", ((1, 1), (0, -2))),
    ("C2", ((-2, 0), (0, -2))),
    ("C2", ((1, 1), (-1, -1), (1, 1))),
    ("C2", ((1, 1), (-1, -1), (0, -2))),
    ("G2", ((1, -1, 0), (-2, 1, 1))),
    ("G2", ((1, -1, 0), (-1, 0, 1))),
    ("G2", ((-2, 1, 1), (1, -2, 1))),
    ("G2", ((1, -1, 0), (-1, 0, 1), (2, -1, -1))),
    ("G2", ((-2, 1, 1), (1, -2, 1), (-1, 2, -1))),
)
PATCH_COVER = (2, 3)
# positive, so that no two coefficients on one root cancel: a cancelling
# pair halves the work of a rung and makes the pass cost bimodal; and
# prime to the cover elements 2 and 3, so that no coefficient turns into
# a unit in one localization and changes the work of a rung from seed to
# seed
PATCH_COEFFS = (1, 5, 7, 11)


@dataclass(frozen=True)
class PatchCase:
    problem: object
    global_word: object


class PatchLadder:
    """Level words over Z[X] at level (3), localized at 2 and 3 and glued
    back by `lgp.patch` with verification on."""

    name = "patch_ladder"
    tail = 0.75
    systems = ("A2", "A3", "C2", "G2")

    def setup(self):
        _build(self.systems)

    def items(self, seed, pass_index):
        rng = _rng(self.name, seed, pass_index)
        base = Ring(0, ("X",))
        x = base.var("X")
        ideal = IdealSpec.gens(base, base.int_(3))
        out = []
        for n, (label, roots) in enumerate(LADDER):
            g = Prod(tuple(
                Gen(root, base.int_(3 * rng.choice(PATCH_COEFFS)) * x) for root in roots
            ))
            data = []
            for s in PATCH_COVER:
                loc = base.localize_at(s)
                data.append(lgp.LocalDatum(base.int_(s), substitute_word(g, {"X": loc.var("X")}, loc)))
            problem = lgp.PatchProblem(label, base, ideal, tuple(data), "X")
            out.append(Item("%s/%d/len%d" % (label, n, len(roots)), PatchCase(problem, g)))
        return out

    def run(self, item):
        return lgp.patch(item.data.problem, verify=True)

    def check(self, item, result):
        out, rec = result
        problem = item.data.problem
        eng = RewriteEngine(problem.system, problem.base)
        gens = len(flatten(out))
        attested = rec.attested + _dilation_attestations(rec.details)
        if not _agrees(out, item.data.global_word, problem.base, eng.reps):
            return Outcome(False, gens, attested, "glued word differs from the global word")
        if not check_shape(out, LevelShape(problem.ideal), eng.congruence_oracle()).ok:
            return Outcome(False, gens, attested, "glued word is not a level word")
        return Outcome(True, gens, attested)


# ----- oracle_eval -----


# (system, representation, generators per word); F4 and E8 words are
# shorter than the rest so that a pass over the three rings takes a few
# seconds and a run holds several passes
ORACLE_STRATA = (
    ("A3", "adjoint", 30),
    ("F4", "adjoint", 20),
    ("E8", "adjoint", 16),
    ("A3", "defining", 30),
    ("C3", "defining", 30),
)
# items whose product is recomputed with sympy; the others are too large
SYMPY_CHECKED = {"A3", "C3"}
ORACLE_RINGS = ("Z[t]", "Z[1/2][t]", "Z/9[t]")
# positive units mod 9: cancelling signs and zero divisors mod 9 change
# the fill-in of a product and would make the cost of an item vary
ORACLE_COEFFS = (1, 2, 4, 5)


@dataclass(frozen=True)
class OracleCase:
    rep: object
    ring: object
    word: object
    ideal: object
    system: str


def _weyl_image(rs, rng, roots):
    walk = [rng.choice(rs.simple) for _ in range(4 * rs.rank)]
    out = []
    for a in roots:
        for s in walk:
            a = rs.reflect(s, a)
        out.append(a)
    return out


class OracleEval:
    """Level words evaluated with `Representation.evaluate_word` and checked
    with `congruence_check` against the ideal (t)."""

    name = "oracle_eval"
    tail = 0.75

    def setup(self):
        for label, kind, _ in ORACLE_STRATA:
            chevrep.get_representation(_system(label), kind)

    def items(self, seed, pass_index):
        rng = _rng(self.name, seed, pass_index)
        out = []
        for label, kind, length in ORACLE_STRATA:
            rs = _system(label)
            rep = chevrep.get_representation(rs, kind)
            # The fill-in of a product, and with it the cost, depends on
            # its root pattern.  A Weyl group element conjugates the
            # matrix by a signed permutation, so moving one fixed pattern
            # keeps the work comparable across seeds while no word repeats.
            shape = random.Random("oracle-shape/%s/%s" % (label, kind))
            pattern = [shape.choice(rs.roots) for _ in range(length)]
            degrees = [shape.randrange(1, 3) for _ in range(length)]
            halved = [shape.randrange(2) for _ in range(length)]
            for text in ORACLE_RINGS:
                ring = cli.ring_from_text(text)
                t = ring.var("t")
                inv_s = ring.parse("1/s") if ring.loc_num is not None else ring.one()
                roots = _weyl_image(rs, rng, pattern)
                word = Prod(tuple(
                    Gen(a, ring.int_(rng.choice(ORACLE_COEFFS)) * t ** e
                        * (inv_s if h else ring.one()))
                    for a, e, h in zip(roots, degrees, halved)
                ))
                case = OracleCase(rep, ring, word, IdealSpec.gens(ring, t), label)
                out.append(Item("%s/%s/%s" % (label, kind, text), case))
        return out

    def run(self, item):
        case = item.data
        m = case.rep.evaluate_word(case.word, case.ring)
        congruent = chevrep.congruence_check(m, case.ideal)
        # keep only the matrices the sympy check reads, so that memory
        # does not grow with the number of passes
        return (m if case.system in SYMPY_CHECKED else None), congruent

    def check(self, item, result):
        case = item.data
        m, congruent = result
        gens = len(flatten(case.word))
        if congruent is not True:
            return Outcome(False, gens, note="level word not congruent to 1 mod (t)")
        if case.system in SYMPY_CHECKED and not _sympy_agrees(case, m):
            return Outcome(False, gens, note="differs from the sympy product")
        return Outcome(True, gens)


def _sympy_agrees(case, m):
    """Recompute the word's matrix with sympy from the integer templates
    X_a^k / k! and compare it with `m` entry by entry.

    Z[1/2][t] embeds in Q[t] and Z/9[t] is the image of Z[t], so the
    product is taken over Q[t] or Z[t] and reduced mod 9 where needed.
    """
    from sympy import QQ, ZZ, symbols
    from sympy.polys.matrices import DomainMatrix

    ring, rep = case.ring, case.rep
    t = symbols("t")
    if ring.loc_num is None:
        dom = ZZ[t]

        def to_dom(el):
            return dom.ring.from_dict({e: ZZ(c) for e, c in el.num.items()})
    else:
        dom = QQ[t]
        s = ring.loc_element().is_int_constant()

        def to_dom(el):
            return dom.ring.from_dict({e: QQ(c, s ** el.den) for e, c in el.num.items()})

    n = rep.dim
    prod = DomainMatrix.eye(n, dom)
    for g in flatten(case.word):
        r = to_dom(g.arg)
        rows = {i: {i: dom.one} for i in range(n)}
        r_pow = dom.one
        for k, mat in sorted(rep.powers[g.root].items()):
            r_pow = r_pow * r
            for (i, j), v in mat.items():
                row = rows.setdefault(i, {})
                row[j] = row.get(j, dom.zero) + r_pow * v
        prod = prod * DomainMatrix(rows, (n, n), dom)
    mod = ring.base_mod
    dense = prod.to_list()
    for i in range(n):
        for j in range(n):
            mine = m.entries.get((i, j))
            theirs = dense[i][j]
            if mod:
                got = mine.num.items() if mine is not None else ()
                if ({e: c % mod for e, c in got if c % mod}
                        != {e: c % mod for e, c in dict(theirs).items() if c % mod}):
                    return False
            elif (to_dom(mine) if mine is not None else dom.zero) != theirs:
                return False
    return True


WORKLOADS = {w.name: w for w in (CliInstances(), PatchLadder(), OracleEval())}
