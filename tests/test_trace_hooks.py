"""The functions and methods the benchmark's tracer wraps by name.

`perfbench/tracer.py` rebinds each traced function in every chevcalc
module that holds it, and each traced method in its class's own
namespace.  A name that moves or is renamed is wrapped nowhere, and its
layer metrics read 0 without any error; these tests fail instead.
"""

import sys

import pytest

from chevcalc import exactring, gword, lgp, rewrite

FUNCTIONS = [
    (gword, "substitute_word", (lgp, rewrite)),
    (lgp, "dilate", ()),
    (lgp, "torsion_exponent", ()),
]

METHODS = [
    (exactring.RingElement, "__mul__"),
    (exactring.RingElement, "__add__"),
    (exactring.RingElement, "__sub__"),
    (exactring.IdealSpec, "contains"),
    (exactring.IdealSpec, "witness"),
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
