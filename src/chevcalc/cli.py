"""Command line surface for the library.

Four subcommands tie the rewriting machinery to files:

- `tables` dumps the structure-constant table of a root system;
- `verify` runs a seeded randomized relation suite and reports
  counterexamples;
- `demo` runs one constructive rewrite on an instance file and writes
  its receipt;
- `lgp` solves a patching problem file end to end and writes the glued
  word next to its receipt.

Outputs are deterministic for a fixed configuration and seed.  Receipts
are written even when a run fails; a failure exits with its error
family's `exit_code` (declared on each class in `errors`), so scripted
callers can branch on it.
"""

import json
import random
import re
import sys

from . import errors
from .exactring import IdealSpec, Ring
from .gword import (
    EMPTY,
    Comm,
    Conj,
    Gen,
    Prod,
    root_from_text,
    substitute_word,
    word_from_text,
    word_to_text,
)
from .lgp import LocalDatum, PatchProblem, dilate, for_dilation, patch
from .rewrite import DEFAULT_NODE_BUDGET, RewriteEngine
from .rootsys import _vneg, compute_structure_constants, system_from_label as system_object

_RING_HEAD = re.compile(r"\s*Z(?:/(\d+))?\s*")


def ring_from_text(text):
    """Parse a ring descriptor like Z, Z/5[t], Z[1/2][t] or Z/3[X,Y]."""
    m = _RING_HEAD.match(text)
    if not m:
        raise errors.ParseError("ring descriptor must start with Z or Z/m: %r" % text)
    mod = int(m.group(1)) if m.group(1) else 0
    rest = text[m.end():].strip()
    names = []
    loc_texts = []
    for group in re.findall(r"\[([^\]]*)\]", rest):
        group = group.strip()
        if group.startswith("1/"):
            loc_texts.append(group[2:].strip())
        else:
            names.extend(n.strip() for n in group.split(",") if n.strip())
    if re.sub(r"\[[^\]]*\]|\s", "", rest):
        raise errors.ParseError("unrecognized ring descriptor %r" % text)
    ring = Ring(mod, tuple(names))
    for loc in loc_texts:
        ring = ring.localize_at(ring.parse(loc))
    return ring


def ideal_from_texts(ring, texts):
    return IdealSpec.gens(ring, *[ring.parse(t) for t in texts])


# the JSON name of each type that json.load produces, objects aside
_JSON_TYPES = {
    str: "string",
    int: "number",
    float: "number",
    bool: "boolean",
    list: "list",
    type(None): "null",
}
_REQUIRED = object()


def _json_type(value):
    return "object" if isinstance(value, dict) else _JSON_TYPES[type(value)]


class _Fields(dict):
    """A JSON object from an input file, read through typed accessors.

    A missing field, or one of the wrong JSON type, is a ParseError that
    names the field.
    """

    def __missing__(self, key):
        raise errors.ParseError("instance is missing field %r" % (key,))

    def _typed(self, key, types, expected):
        value = self[key]
        # no field takes a JSON boolean, though Python reads one as an int
        if isinstance(value, bool) or not isinstance(value, types):
            raise errors.ParseError(
                "field %r must be %s, not a JSON %s" % (key, expected, _json_type(value))
            )
        return value

    def _list(self, key, types, expected):
        values = self._typed(key, list, expected)
        for v in values:
            if isinstance(v, bool) or not isinstance(v, types):
                raise errors.ParseError(
                    "field %r must be %s; it holds a JSON %s" % (key, expected, _json_type(v))
                )
        return values

    def text(self, key, default=_REQUIRED):
        """The string at `key`; `default`, when given, for an absent or null field."""
        if default is not _REQUIRED and self.get(key) is None:
            return default
        return self._typed(key, str, "a string")

    def texts(self, key):
        """The list of strings at `key`."""
        return self._list(key, str, "a list of strings")

    def elements(self, key):
        """The ring elements listed at `key`, each a string or an integer, as text."""
        return [str(v) for v in self._list(key, (str, int), "a list of strings or integers")]

    def element(self, key):
        """The ring element at `key`, a string or an integer, as text."""
        return str(self._typed(key, (str, int), "a string or an integer"))

    def objects(self, key):
        """The list of JSON objects at `key`."""
        return self._list(key, dict, "a list of objects")


def load_json(path):
    """The JSON object in the file at `path`, its objects as `_Fields`."""
    try:
        with open(path) as fh:
            data = json.load(fh, object_hook=_Fields)
    except OSError as e:
        raise errors.ParseError("cannot read %s: %s" % (path, e)) from None
    except json.JSONDecodeError as e:
        raise errors.ParseError("%s is not valid JSON: %s" % (path, e)) from None
    if not isinstance(data, dict):
        raise errors.ParseError("%s holds a JSON %s, not an object" % (path, _json_type(data)))
    return data


def write_output(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_json(path, payload):
    write_output(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----- tables -----


def cmd_tables(args):
    rs = system_object(args.system)
    sc = compute_structure_constants(rs)
    roots = sorted(rs.roots)
    lines = ["system %s  roots %d" % (args.system, len(roots))]
    for r in roots:
        lines.append("root %s" % (",".join(str(x) for x in r)))
    for beta in roots:
        neg_beta = _vneg(beta)
        for gamma in roots:
            if beta == gamma or gamma == neg_beta:
                continue
            coeffs = [
                "(%d,%d)%+d" % (i, j, c)
                for (i, j), c in sc.comm_coeffs(beta, gamma)
            ]
            if coeffs:
                lines.append(
                    "pair %s %s  %s"
                    % (
                        ",".join(str(x) for x in beta),
                        ",".join(str(x) for x in gamma),
                        " ".join(coeffs),
                    )
                )
    write_output(args.out, "\n".join(lines) + "\n")
    return 0


# ----- randomized verification suites -----


def _random_element(ring, rng, gens=None):
    """Small random ring element, optionally a combination of ideal gens."""
    out = ring.zero()
    for _ in range(rng.randrange(1, 3)):
        term = ring.int_(rng.randrange(-4, 5))
        for name in ring.var_names:
            term = term * ring.var(name) ** rng.randrange(0, 2)
        if gens is not None:
            term = term * rng.choice(gens)
        out = out + term
    return out


def _random_word(rs, ring, rng, size, spec=None):
    """A product of `size` random generators; with `spec`, a level word
    whose arguments combine the generators of spec."""
    gens = None if spec is None else spec.expand()
    roots = sorted(rs.roots)
    factors = tuple(
        Gen(rng.choice(roots), _random_element(ring, rng, gens)) for _ in range(size)
    )
    return Prod(factors)


def _suite_steinberg(eng, i_spec, j_spec, rng, count):
    ring = eng.ring
    roots = sorted(eng.rs.roots)
    # for b != +-g, [x_b, x_g] = 1 exactly when b + g is not a root
    commuting = [
        (b, g)
        for b in roots
        for g in roots
        if b != g and g != _vneg(b) and eng.rs.add(b, g) is None
    ]
    failures = []
    for _ in range(count):
        beta = rng.choice(roots)
        u, v = _random_element(ring, rng), _random_element(ring, rng)
        lhs = Prod((Gen(beta, u), Gen(beta, v)))
        rhs = Prod((Gen(beta, u + v),))
        if not eng.equal(lhs, rhs):
            failures.append(word_to_text(lhs))
        if commuting:
            beta, gamma = rng.choice(commuting)
            w = Comm(Gen(beta, u), Gen(gamma, v))
            if not eng.equal(w, EMPTY):
                failures.append(word_to_text(w))
    return failures


# Each probe builder draws one (word, level) pair: a word the congruence
# oracle must find congruent to the identity modulo the level.


def _probe_absolute(rs, ring, i_spec, j_spec, rng):
    # conjugates of level words by arbitrary elementary words keep level
    w = _random_word(rs, ring, rng, rng.randrange(1, 3), i_spec)
    c = _random_word(rs, ring, rng, rng.randrange(1, 3))
    return Conj(w, c), i_spec


def _probe_gij(rs, ring, i_spec, j_spec, rng):
    g = _random_word(rs, ring, rng, rng.randrange(1, 3), i_spec)
    h = _random_word(rs, ring, rng, rng.randrange(1, 3), j_spec)
    return Comm(g, h), i_spec.product(j_spec)


def _probe_relcomm(rs, ring, i_spec, j_spec, rng):
    # congruence-level elements built as conjugates still commute into IJ
    w = _random_word(rs, ring, rng, rng.randrange(1, 3), i_spec)
    c = _random_word(rs, ring, rng, rng.randrange(1, 3))
    h = _random_word(rs, ring, rng, rng.randrange(1, 3), j_spec)
    return Comm(Conj(w, c), h), i_spec.product(j_spec)


def _probe_eee(rs, ring, i_spec, j_spec, rng):
    # the double commutator [[g_I, h_J], k_J] lands one level deeper
    g = _random_word(rs, ring, rng, 1, i_spec)
    h = _random_word(rs, ring, rng, 1, j_spec)
    k = _random_word(rs, ring, rng, 1, j_spec)
    return Comm(Comm(g, h), k), i_spec.product(j_spec).product(j_spec)


def _probe_suite(build):
    """The suite that checks `count` probes drawn by `build`."""

    def run(eng, i_spec, j_spec, rng, count):
        oracle = eng.congruence_oracle()
        failures = []
        for _ in range(count):
            probe, level = build(eng.rs, eng.ring, i_spec, j_spec, rng)
            if not oracle(probe, level):
                failures.append(word_to_text(probe))
        return failures

    return run


SUITES = {
    "steinberg": _suite_steinberg,
    "absolute": _probe_suite(_probe_absolute),
    "gij": _probe_suite(_probe_gij),
    "relcomm": _probe_suite(_probe_relcomm),
    "eee": _probe_suite(_probe_eee),
}


def cmd_verify(args):
    if args.suite not in SUITES:
        raise errors.InvalidType(
            "unknown suite %r (have: %s)" % (args.suite, ", ".join(sorted(SUITES)))
        )
    rs = system_object(args.system)
    ring = ring_from_text(args.ring)
    i_spec = ideal_from_texts(ring, args.ideal or ["1"])
    j_spec = ideal_from_texts(ring, args.ideal2 or ["1"])
    eng = RewriteEngine(rs, ring)
    rng = random.Random(args.seed)
    failures = SUITES[args.suite](eng, i_spec, j_spec, rng, args.count)
    payload = {
        "suite": args.suite,
        "system": args.system,
        "ring": ring.to_config(),
        "seed": args.seed,
        "count": args.count,
        "passed": not failures,
        "counterexamples": failures,
    }
    emit_json(args.out, payload)
    return 0 if not failures else 1


# ----- lemma demos -----


def _demo_root_value(method):
    """The demo that reads a root, two ideals and a value and hands them
    to the engine's `method`."""

    def run(eng, ring, inst):
        root = root_from_text(eng.rs, inst.text("root"))
        i_spec = ideal_from_texts(ring, inst.texts("ideal"))
        j_spec = ideal_from_texts(ring, inst.texts("ideal2"))
        value = ring.parse(inst.text("value"))
        out, rec = getattr(eng, method)(root, value, i_spec, j_spec)
        return out, rec, {}

    return run


def _demo_splitting(eng, ring, inst):
    w = word_from_text(inst.text("word"), ring, eng.rs)
    i_spec = ideal_from_texts(ring, inst.texts("ideal"))
    out, rec = eng.relative_split(w, i_spec, inst.text("var"))
    return out, rec, {}


def _demo_moving_t(eng, ring, inst):
    w = word_from_text(inst.text("word"), ring, eng.rs)
    j_spec = ideal_from_texts(ring, inst.texts("ideal"))
    k_spec = ideal_from_texts(ring, inst.texts("ideal2"))
    level, mixed, rec = eng.move_indeterminate(w, j_spec, k_spec)
    return Prod((level, mixed)), rec, {"level": word_to_text(level), "mixed": word_to_text(mixed)}


def _demo_for_dilation(eng, ring, inst):
    w = word_from_text(inst.text("word"), ring, eng.rs)
    k_spec = ideal_from_texts(ring, inst.texts("ideal"))
    out, rec = for_dilation(eng, w, k_spec, inst.text("var"))
    return out, rec, {}


def _demo_dilate(eng, ring, inst):
    w = word_from_text(inst.text("word"), ring, eng.rs)
    i_spec = ideal_from_texts(ring, inst.texts("ideal"))
    l, out, rec = dilate(eng, w, i_spec, var=inst.text("var", None))
    return out, rec, {"l": l}


DEMOS = {
    "decomposition": _demo_root_value("decompose_avoiding_root"),
    "sp-relinc": _demo_root_value("relative_generation_witness"),
    "splitting": _demo_splitting,
    "moving-t": _demo_moving_t,
    "for-dilation": _demo_for_dilation,
    "dilate": _demo_dilate,
}


def _emit_error(path, payload, exc):
    """Write the payload of a failed run with the error's family and exit
    code, and return that code."""
    payload["error"] = type(exc).__name__
    payload["message"] = str(exc)
    payload["exit_code"] = exc.exit_code
    emit_json(path, payload)
    return exc.exit_code


def cmd_demo(args):
    payload = {"lemma": None, "system": None, "ring": None}
    try:
        inst = load_json(args.instance)
        payload.update(lemma=inst.get("lemma"), system=inst.get("system"))
        lemma = inst.text("lemma", None)
        if lemma not in DEMOS:
            raise errors.InvalidType(
                "unknown lemma %r (have: %s)" % (lemma, ", ".join(sorted(DEMOS)))
            )
        rs = system_object(inst.text("system"))
        ring = ring_from_text(inst.text("ring"))
        payload["ring"] = ring.to_config()
        eng = RewriteEngine(rs, ring, node_budget=args.budget)
        out, rec, extra = DEMOS[lemma](eng, ring, inst)
    except errors.ChevCalcError as e:
        return _emit_error(args.out, payload, e)
    payload["word"] = word_to_text(out)
    payload["receipt"] = rec.to_dict()
    payload.update(extra)
    if not args.trace:
        payload["receipt"].pop("input", None)
        payload["receipt"].pop("output", None)
    emit_json(args.out, payload)
    return 0


# ----- local-global patching -----


def _load_patch_problem(inst, payload):
    """The PatchProblem of an instance; payload["ring"] is set as soon as
    the ring parses, so an error in a later field still reports it."""
    rs = system_object(inst.text("system"))
    base = ring_from_text(inst.text("ring"))
    payload["ring"] = base.to_config()
    ideal = ideal_from_texts(base, inst.texts("ideal"))
    var = inst.text("var", None)
    data = []
    if "data" in inst:
        for d in inst.objects("data"):
            s = base.parse(d.element("s"))
            loc = base.localize_at(s)
            data.append(LocalDatum(s, word_from_text(d.text("word"), loc, rs)))
    else:
        # a global word plus cover entries: localize to build the data
        g = word_from_text(inst.text("global"), base, rs)
        for s_text in inst.elements("cover"):
            s = base.parse(s_text)
            loc = base.localize_at(s)
            lifted = {n: loc.var(n) for n in base.var_names}
            data.append(LocalDatum(s, substitute_word(g, lifted, loc)))
    return PatchProblem(rs, base, ideal, tuple(data), var)


def cmd_lgp(args):
    payload = {"system": None, "ideal": None, "ring": None}
    try:
        inst = load_json(args.problem)
        payload.update(system=inst.get("system"), ideal=inst.get("ideal"))
        problem = _load_patch_problem(inst, payload)
        out, rec = patch(problem, node_budget=args.budget)
        text = word_to_text(out)
        # the emitted word must survive a parse round trip; patch has
        # already certified its level shape over the base
        if word_from_text(text, problem.base, problem.system) != out:
            raise errors.OracleMismatch("emitted word does not re-verify")
    except errors.ChevCalcError as e:
        return _emit_error(args.out, payload, e)
    payload["word"] = text
    payload["receipt"] = rec.to_dict()
    if not args.trace:
        payload["receipt"].pop("output", None)
    emit_json(args.out, payload)
    if args.word_out:
        write_output(args.word_out, text + "\n")
    return 0


# ----- entry point -----


def build_parser():
    # imported here so that importing the library does not load argparse
    import argparse

    def positive_int(text):
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError("must be at least 1, got %s" % text)
        return n

    p = argparse.ArgumentParser(prog="chevcalc", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="structure-constant table of a root system")
    t.add_argument("--system", required=True)
    t.add_argument("--out")
    t.set_defaults(func=cmd_tables)

    v = sub.add_parser("verify", help="seeded randomized relation suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--system", required=True)
    v.add_argument("--ring", required=True)
    v.add_argument("--ideal", action="append")
    v.add_argument("--ideal2", action="append")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=positive_int, default=100)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("demo", help="run one constructive rewrite on an instance file")
    d.add_argument("--instance", required=True)
    d.add_argument("--out")
    d.add_argument("--budget", type=positive_int, default=DEFAULT_NODE_BUDGET)
    d.add_argument("--trace", action="store_true")
    d.set_defaults(func=cmd_demo)

    g = sub.add_parser("lgp", help="solve a patching problem file")
    g.add_argument("--problem", required=True)
    g.add_argument("--out")
    g.add_argument("--word-out")
    g.add_argument("--budget", type=positive_int, default=DEFAULT_NODE_BUDGET)
    g.add_argument("--trace", action="store_true")
    g.set_defaults(func=cmd_lgp)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.ChevCalcError as e:
        sys.stderr.write("%s: %s\n" % (type(e).__name__, e))
        return e.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
