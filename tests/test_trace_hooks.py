"""The functions and methods the benchmark's tracer wraps by name.

`perfbench/tracer.py` rebinds each traced function in every chevcalc
module that holds it, and each traced method in its class's own
namespace.  A name that moves or is renamed is wrapped nowhere, and its
layer metrics read 0 without any error; these tests fail instead.
"""

import sys

import pytest

from chevcalc import chevrep, cli, exactring, gword, lgp, rewrite, rootsys

FUNCTIONS = [
    (gword, "substitute_word", (lgp, rewrite)),
    (gword, "check_shape", (rewrite,)),
    (gword, "flatten", (rewrite,)),
    (gword, "word_from_text", (cli,)),
    (lgp, "dilate", ()),
    (lgp, "torsion_exponent", ()),
    (lgp, "patch", (cli,)),
    (lgp, "for_dilation", (cli,)),
    (lgp, "unimodular_combination", ()),
    (rootsys, "build_root_system", ()),
    (rootsys, "compute_structure_constants", (cli, rewrite)),
    (chevrep, "get_representation", (rewrite,)),
    (cli, "main", ()),
]

METHODS = [
    (exactring.RingElement, "__mul__"),
    (exactring.RingElement, "__add__"),
    (exactring.RingElement, "__sub__"),
    (exactring.IdealSpec, "contains"),
    (exactring.IdealSpec, "witness"),
    (chevrep.Representation, "evaluate_word"),
    (chevrep.Representation, "words_equal"),
    (rootsys.StructureConstants, "comm_coeffs"),
] + [
    (rewrite.RewriteEngine, op)
    for op in (
        "decompose_avoiding_root",
        "relative_generation_witness",
        "conjugation_normalize",
        "relative_split",
        "move_indeterminate",
        "congruence_oracle",
    )
]


@pytest.mark.parametrize("home, name, callers", FUNCTIONS,
                         ids=[n for _, n, _ in FUNCTIONS])
def test_traced_function_is_bound_where_callers_look_it_up(home, name, callers):
    fn = vars(home).get(name)
    assert callable(fn) and fn.__module__ == home.__name__
    for mod in callers:
        assert vars(mod).get(name) is fn
    # a module holding another object under the name would escape the hook
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("chevcalc"):
            assert vars(mod).get(name, fn) is fn, mod_name


@pytest.mark.parametrize("cls, name", METHODS,
                         ids=["%s.%s" % (c.__name__, n) for c, n in METHODS])
def test_traced_method_is_in_its_class_namespace(cls, name):
    assert callable(vars(cls).get(name))
