"""Spans around calls into chevcalc's public functions, kept in memory.

`Tracer.active()` rebinds each traced function where callers look it up:
methods on their class, module-level functions in every chevcalc module
that holds them (`from .gword import check_shape` in rewrite and lgp,
`from .lgp import patch` in cli, and so on).  Leaving the block restores
the originals.

A span has a name, a start and an end in integer nanoseconds, the id of
the span that was open when it started, and the item being run.  Self
time is the duration minus the durations of direct child spans, and
minus the tracer's own bookkeeping; integer clocks make it exact, so it
is never negative.  A call to a name that is already open (recursion,
`words_equal` calling `evaluate_word`, `contains` calling `witness`)
runs inside the open span and opens none.

Ring arithmetic and matrix products run millions of times per pass, so
they are counted per name and not stored as spans; they call no other
traced function, so no stored span has them as parent.

Which end-to-end metric each layer should move, and where:
  rootsys.build, rootsys.comm_coeffs  setup_s, every workload
  chevrep.build                       setup_s, mostly oracle_eval (E8)
  chevrep.evaluate (+ .gens, .share, .repeat_frac)
                                      wall_s on patch_ladder, oracle_eval
  chevrep.matmul, .generator_matrix   wall_s, item_tail_s on oracle_eval,
                                      then patch_ladder; not cli_instances
  exactring.* (+ mul.const_frac)      wall_s on oracle_eval, per ring
  exactring.witness (+ .fail_frac)    item_p50_s on cli_instances
  gword.check_shape (+ .attested), gword.parse
                                      item_p50_s on cli_instances
  gword.flatten, gword.substitute_word
                                      wall_s on patch_ladder
  rewrite.* (+ .nodes_out, .attested) out_gens, wall_s on patch_ladder;
                                      no change on oracle_eval
  lgp.* (+ for_dilation.gens_out)     wall_s, out_gens on patch_ladder
  cli.main                            item_p50_s on cli_instances
"""

import contextlib
import sys
import time

REWRITE_OPS = (
    "expand_commutator",
    "hall_witt_split",
    "absolute_split",
    "decompose_avoiding_root",
    "push_vaserstein_conjugate",
    "relative_generation_witness",
    "conjugation_normalize",
    "relative_split",
    "move_indeterminate",
    "check_commutator_level",
    "congruence_oracle",
)
# ops that return a RewriteReceipt
RECEIPT_OPS = (
    "absolute_split",
    "decompose_avoiding_root",
    "push_vaserstein_conjugate",
    "relative_generation_witness",
    "conjugation_normalize",
    "relative_split",
    "move_indeterminate",
)
LGP_FUNCS = ("patch", "dilate", "for_dilation", "unimodular_combination", "torsion_exponent")
RING_OPS = ("mul", "add", "sub")
RING_KINDS = ("int", "loc", "mod")
SETUP_SPANS = ("rootsys.build", "rootsys.comm_coeffs", "chevrep.build")
SPANS = SETUP_SPANS + (
    "chevrep.evaluate",
    "chevrep.matmul",
    "chevrep.generator_matrix",
    "exactring.witness",
    "gword.check_shape",
    "gword.parse",
    "gword.flatten",
    "gword.substitute_word",
) + tuple("rewrite." + op for op in REWRITE_OPS) + tuple(
    "lgp." + f for f in LGP_FUNCS) + ("cli.main",)
# per-name totals only; ring operators take the leaner path of `_ring_op`
HOT = frozenset(["chevrep.matmul", "chevrep.generator_matrix"])


def ring_kind(ring):
    """Coarse ring class used to split arithmetic counts."""
    if ring.base_mod:
        return "mod"
    return "int" if ring.loc_num is None else "loc"


def _metric(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


def layer_metric_specs():
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for name in SPANS:
        out += [_metric(name + ".calls", "count"), _metric(name + ".total_s", "s"),
                _metric(name + ".self_s", "s")]
    for op in RING_OPS:
        for kind in RING_KINDS:
            # ring operations call no traced function: self time is total time
            out += [_metric("exactring.%s.%s.calls" % (op, kind), "count"),
                    _metric("exactring.%s.%s.total_s" % (op, kind), "s")]
    out += [
        _metric("chevrep.evaluate.gens", "count"),
        _metric("chevrep.evaluate.share", "ratio"),
        _metric("chevrep.evaluate.repeat_frac", "ratio"),
        _metric("exactring.mul.const_frac", "ratio", "higher"),
        _metric("exactring.witness.fail_frac", "ratio"),
        _metric("gword.check_shape.attested", "count"),
    ]
    for op in RECEIPT_OPS:
        out += [_metric("rewrite.%s.nodes_out" % op, "count"),
                _metric("rewrite.%s.attested" % op, "count")]
    out += [
        _metric("rewrite.conjugation_normalize.attest_falls", "count"),
        _metric("rewrite.conjugation_normalize.decompositions", "count", "higher"),
        _metric("lgp.for_dilation.gens_out", "count"),
        _metric("receipts.attested", "count"),
        _metric("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    """Collects spans and per-name totals while `active()` is open."""

    def __init__(self):
        self.item = None
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, item)
        self.stats = {}  # name -> [calls, total_ns, self_ns]
        self.counts = {}
        self._stack = []  # open frames: [id, name, child_ns]
        self._open = set()
        self._paused = False
        self._next_id = 0
        self._seen_words = set()
        self._flatten = None

    def reset(self):
        """Drop totals, counts and the repeat memory; keep stored spans."""
        self.stats = {}
        self.counts = {}
        self._seen_words = set()

    def new_pass(self):
        """Start counting repeated words afresh: repeats are per pass."""
        self._seen_words = set()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # ----- spans -----

    def _call(self, name, fn, args, kwargs, after=None):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [self._next_id, name, 0]
        self._next_id += 1
        stack.append(frame)
        self._open.add(name)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.count(name + ".raised")
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._open.discard(name)
            dur = end - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0, 0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if name not in HOT:
                self.spans.append((frame[0], name, start, end, parent, self.item))
        if after is not None:
            self._bookkeep(after, args, result)
        return result

    def _bookkeep(self, fn, *args):
        """Run tracer bookkeeping without charging it to the open span;
        traced functions it calls (flatten recurses through its traced
        name) open no spans."""
        start = time.perf_counter_ns()
        self._paused = True
        try:
            fn(*args)
        finally:
            self._paused = False
        if self._stack:
            self._stack[-1][2] += time.perf_counter_ns() - start

    def _wrap(self, name, fn, after=None, before=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                tracer._bookkeep(before, args)
            if tracer._paused or name in tracer._open:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs, after)

        traced.__wrapped__ = fn
        return traced

    def _ring_op(self, op, fn):
        """A leaf span for one RingElement operator, kept as totals only.

        Ring operators run about a million times per pass, so this path
        skips the re-entry test and the stored span of `_call`."""
        tracer = self
        names = {kind: "exactring.%s.%s" % (op, kind) for kind in RING_KINDS}
        clock = time.perf_counter_ns
        is_mul = op == "mul"

        def traced(a, b):
            if tracer._paused:
                return fn(a, b)
            name = names[ring_kind(a.ring)]
            stack = tracer._stack
            start = clock()
            try:
                return fn(a, b)
            finally:
                end = clock()
                dur = end - start
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur
                if stack:
                    stack[-1][2] += dur
                if is_mul:
                    tracer._count_constant(a, b)
                    if stack:
                        stack[-1][2] += clock() - end

        traced.__wrapped__ = fn
        return traced

    # ----- bookkeeping hooks -----

    def _count_constant(self, a, b):
        """Count products, and those with an integer constant operand."""
        c = self.counts
        c["mul.products"] = c.get("mul.products", 0) + 1
        if isinstance(b, int) or _is_constant(a) or _is_constant(b):
            c["mul.const"] = c.get("mul.const", 0) + 1

    def _evaluated(self, args):
        rep, word, ring = args
        key = (id(rep), ring, tuple(
            (g.root, tuple(sorted(g.arg.num.items())), g.arg.den)
            for g in self._flatten(word)
        ))
        self.count("evaluate.words")
        if key in self._seen_words:
            self.count("evaluate.repeats")
        else:
            self._seen_words.add(key)

    def _generator(self, args):
        if self._stack and self._stack[-1][1] == "chevrep.evaluate":
            self.count("chevrep.evaluate.gens")

    def _contains(self, args, result):
        if result is False:
            self.count("exactring.witness.false")

    def _shape(self, args, report):
        self.count("gword.check_shape.attested", len(report.attested))

    def _receipt(self, op):
        from chevcalc.rewrite import RewriteReceipt

        def hook(args, result):
            for rec in result if isinstance(result, tuple) else ():
                if isinstance(rec, RewriteReceipt):
                    self.count("rewrite.%s.nodes_out" % op, rec.nodes_out)
                    self.count("rewrite.%s.attested" % op, rec.attested)
                    if op == "conjugation_normalize":
                        for key in ("attest_falls", "decompositions"):
                            self.count("rewrite.%s.%s" % (op, key), rec.details.get(key, 0))

        return hook

    def _for_dilation(self, args, result):
        self.count("lgp.for_dilation.gens_out", len(self._flatten(result[0])))

    def _oracle_factory(self, fn):
        tracer = self

        def congruence_oracle(*args, **kwargs):
            return tracer._wrap("rewrite.congruence_oracle", fn(*args, **kwargs))

        congruence_oracle.__wrapped__ = fn
        return congruence_oracle

    # ----- installation -----

    @contextlib.contextmanager
    def active(self):
        """Trace every call into chevcalc made inside the block."""
        patches = []
        try:
            self._install(patches)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def _install(self, patches):
        from chevcalc import chevrep, cli, exactring, gword, lgp, rewrite, rootsys

        self._flatten = gword.flatten
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "chevcalc" or n.startswith("chevcalc."))]

        def on_class(cls, attr, wrapper_for):
            orig = cls.__dict__.get(attr)
            if orig is None:
                return
            wrapped = wrapper_for(orig)
            # aliases such as __radd__ = __add__ share the wrapper
            for key, val in list(vars(cls).items()):
                if val is orig:
                    patches.append((cls, key, orig))
                    setattr(cls, key, wrapped)

        def on_function(home, attr, name, **hooks):
            orig = getattr(home, attr, None)
            if orig is None:
                return
            wrapped = self._wrap(name, orig, **hooks)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

        on_function(rootsys, "build_root_system", "rootsys.build")
        on_function(rootsys, "compute_structure_constants", "rootsys.build")
        on_class(rootsys.StructureConstants, "comm_coeffs",
                 lambda f: self._wrap("rootsys.comm_coeffs", f))
        on_function(chevrep, "get_representation", "chevrep.build")
        rep = chevrep.Representation
        on_class(rep, "evaluate_word",
                 lambda f: self._wrap("chevrep.evaluate", f, before=self._evaluated))
        on_class(rep, "words_equal", lambda f: self._wrap("chevrep.evaluate", f))
        on_class(rep, "generator_matrix",
                 lambda f: self._wrap("chevrep.generator_matrix", f, before=self._generator))
        on_class(chevrep.RepMatrix, "__mul__", lambda f: self._wrap("chevrep.matmul", f))
        elt = exactring.RingElement
        on_class(elt, "__mul__", lambda f: self._ring_op("mul", f))
        on_class(elt, "__add__", lambda f: self._ring_op("add", f))
        on_class(elt, "__sub__", lambda f: self._ring_op("sub", f))
        spec = exactring.IdealSpec
        on_class(spec, "contains",
                 lambda f: self._wrap("exactring.witness", f, after=self._contains))
        on_class(spec, "witness", lambda f: self._wrap("exactring.witness", f))
        on_function(gword, "check_shape", "gword.check_shape", after=self._shape)
        on_function(gword, "word_from_text", "gword.parse")
        on_function(gword, "flatten", "gword.flatten")
        on_function(gword, "substitute_word", "gword.substitute_word")
        engine = rewrite.RewriteEngine
        for op in REWRITE_OPS:
            if op == "congruence_oracle":
                on_class(engine, op, self._oracle_factory)
            else:
                hook = self._receipt(op) if op in RECEIPT_OPS else None
                on_class(engine, op,
                         lambda f, op=op, hook=hook: self._wrap("rewrite." + op, f, after=hook))
        for f in LGP_FUNCS:
            on_function(lgp, f, "lgp." + f,
                        after=self._for_dilation if f == "for_dilation" else None)
        on_function(cli, "main", "cli.main")

    # ----- report -----

    def layer_values(self, setup, passes, traced_s, overhead_s, attested):
        """Per-layer values: set-up spans from `setup`, a snapshot of
        `stats` taken after the traced set-up; everything else averaged
        over `passes` traced passes that took `traced_s` in all."""
        c = self.counts
        out = {}
        for name in SPANS:
            st = (setup if name in SETUP_SPANS else self.stats).get(name, (0, 0, 0))
            per = 1 if name in SETUP_SPANS else passes
            out[name + ".calls"] = st[0] / per
            out[name + ".total_s"] = st[1] / per / 1e9
            out[name + ".self_s"] = st[2] / per / 1e9
        for op in RING_OPS:
            for kind in RING_KINDS:
                st = self.stats.get("exactring.%s.%s" % (op, kind), (0, 0, 0))
                out["exactring.%s.%s.calls" % (op, kind)] = st[0] / passes
                out["exactring.%s.%s.total_s" % (op, kind)] = st[1] / passes / 1e9
        evaluate = self.stats.get("chevrep.evaluate", (0, 0, 0))
        witness = self.stats.get("exactring.witness", (0, 0, 0))
        out["chevrep.evaluate.gens"] = c.get("chevrep.evaluate.gens", 0) / passes
        out["chevrep.evaluate.share"] = evaluate[1] / 1e9 / traced_s
        out["chevrep.evaluate.repeat_frac"] = _frac(c, "evaluate.repeats", "evaluate.words")
        out["exactring.mul.const_frac"] = _frac(c, "mul.const", "mul.products")
        fails = c.get("exactring.witness.false", 0) + c.get("exactring.witness.raised", 0)
        out["exactring.witness.fail_frac"] = fails / witness[0] if witness[0] else 0.0
        out["gword.check_shape.attested"] = c.get("gword.check_shape.attested", 0) / passes
        for op in RECEIPT_OPS:
            for key in ("nodes_out", "attested"):
                name = "rewrite.%s.%s" % (op, key)
                out[name] = c.get(name, 0) / passes
        for key in ("attest_falls", "decompositions"):
            name = "rewrite.conjugation_normalize." + key
            out[name] = c.get(name, 0) / passes
        out["lgp.for_dilation.gens_out"] = c.get("lgp.for_dilation.gens_out", 0) / passes
        out["receipts.attested"] = attested
        out["trace.overhead_s"] = overhead_s
        return out


def _is_constant(x):
    num = getattr(x, "num", None)
    if num is None or x.den:
        return False
    return not num or (len(num) == 1 and not any(next(iter(num))))


def _frac(counts, part, whole):
    return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0
