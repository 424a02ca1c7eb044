"""The CLI flags, and input files that are not well-formed instances.

The golden runs in test_cli_golden.py pass no flag; these cases run
`cli.main` on the shipped instance files with each remaining flag, and
on copies of them with a field taken out.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chevcalc import cli, errors
from chevcalc.gword import word_from_text

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_argparse_loads_with_the_first_parser_only():
    # a fresh interpreter, since this one has argparse loaded already
    code = (
        "import sys\n"
        "import chevcalc.lgp, chevcalc.chevrep, chevcalc.cli\n"
        "assert 'argparse' not in sys.modules\n"
        "chevcalc.cli.build_parser()\n"
        "assert 'argparse' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _argv(name, path=None):
    path = str(path or INSTANCES / (name + ".json"))
    return ["lgp", "--problem", path] if name.startswith("lgp_") else ["demo", "--instance", path]


def _instance(name):
    return json.loads((INSTANCES / (name + ".json")).read_text())


def _parse(inst, text):
    """A word of the instance, read over its ring (the base for lgp)."""
    ring, rs = cli.ring_from_text(inst["ring"]), cli.system_object(inst["system"])
    return word_from_text(text, ring, rs)


# ----- flags -----


@pytest.mark.parametrize("name", ["dilate_a2", "lgp_cover23"])
def test_budget_flag_caps_the_nodes_of_every_step(name):
    code, out, _ = _run(_argv(name) + ["--budget", "2"])
    assert code == 15
    payload = json.loads(out)
    assert payload["error"] == "NodeBudgetExceeded"
    assert payload["exit_code"] == 15
    assert "(budget 2)" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "steinberg", "--system", "A2", "--ring", "Z[t]", "--count", "0"],
    ["verify", "--suite", "steinberg", "--system", "A2", "--ring", "Z[t]", "--count", "-1"],
    _argv("dilate_a2") + ["--budget", "0"],
    _argv("lgp_cover23") + ["--budget", "0"],
    _argv("lgp_cover23") + ["--budget", "-5"],
], ids=["count-0", "count-negative", "demo-budget-0", "lgp-budget-0", "lgp-budget-negative"])
def test_a_count_or_budget_below_one_is_a_usage_error(argv):
    # refused while the arguments are parsed: nothing runs, nothing is
    # checked, and no payload is written
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("usage: chevcalc " + argv[0])
    assert "must be at least 1, got %s" % argv[-1] in err.getvalue()


def test_word_out_writes_the_payload_word(tmp_path):
    path = tmp_path / "word.txt"
    code, out, _ = _run(_argv("lgp_cover23") + ["--word-out", str(path)])
    assert code == 0
    inst = _instance("lgp_cover23")
    assert _parse(inst, path.read_text()) == _parse(inst, json.loads(out)["word"])


@pytest.mark.parametrize("name,words", [
    ("dilate_a2", ("input", "output")),
    # a patch receipt has no input word: the data are its input
    ("lgp_cover23", ("output",)),
])
def test_trace_keeps_the_receipt_words(name, words):
    code, plain, _ = _run(_argv(name))
    assert code == 0
    code, traced, _ = _run(_argv(name) + ["--trace"])
    assert code == 0
    plain, traced = json.loads(plain), json.loads(traced)
    kept = {k: traced["receipt"].pop(k) for k in words}
    assert kept["output"] == traced["word"]
    if "input" in kept:
        inst = _instance(name)
        assert _parse(inst, kept["input"]) == _parse(inst, inst["word"])
    # the words are all that --trace adds
    assert traced == plain


# ----- input files that are not instances -----


def _drop(name, field):
    inst = _instance(name)
    del inst[field]
    return inst


@pytest.mark.parametrize("name,inst,named", [
    ("dilate_a2", _drop("dilate_a2", "system"), "'system'"),
    ("dilate_a2", _drop("dilate_a2", "word"), "'word'"),
    ("lgp_cover23", _drop("lgp_cover23", "ring"), "'ring'"),
    ("lgp_cover23_global", _drop("lgp_cover23_global", "global"), "'global'"),
    ("dilate_a2", [_instance("dilate_a2")], "JSON list"),
    ("lgp_cover23", [_instance("lgp_cover23")], "JSON list"),
], ids=["demo-system", "demo-word", "lgp-ring", "lgp-global", "demo-list", "lgp-list"])
def test_a_bad_instance_file_is_a_parse_error(tmp_path, name, inst, named):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    code, out, err = _run(_argv(name, path))
    assert code == 18
    assert named in out + err
    payload = json.loads(out)
    assert (payload["error"], payload["exit_code"]) == ("ParseError", 18)


def _with(name, **fields):
    return dict(_instance(name), **fields)


def _datum(**fields):
    inst = _instance("lgp_cover23")
    inst["data"] = [dict(inst["data"][0], **fields)] + inst["data"][1:]
    return inst


@pytest.mark.parametrize("name,inst,field,expected", [
    ("lgp_cover23", _with("lgp_cover23", data=["x"]), "data", "a list of objects"),
    ("lgp_cover23", _with("lgp_cover23", ideal=3), "ideal", "a list of strings"),
    ("lgp_cover23", _datum(word=5), "word", "a string"),
    ("lgp_cover23", _datum(s=[2]), "s", "a string or an integer"),
    ("lgp_cover23", _datum(s=True), "s", "a string or an integer"),
    ("lgp_cover23", _with("lgp_cover23", ring=5), "ring", "a string"),
    ("lgp_cover23", _with("lgp_cover23", var=5), "var", "a string"),
    ("lgp_cover23", _with("lgp_cover23", system=5), "system", "a string"),
    ("lgp_cover23_global", _with("lgp_cover23_global", cover="23"), "cover",
     "a list of strings or integers"),
    ("lgp_cover23_global", _with("lgp_cover23_global", cover=[True, 3]), "cover",
     "a list of strings or integers"),
    ("dilate_a2", _with("dilate_a2", ring=5), "ring", "a string"),
    ("dilate_a2", _with("dilate_a2", var=5), "var", "a string"),
    ("dilate_a2", _with("dilate_a2", system=5), "system", "a string"),
    ("dilate_a2", _with("dilate_a2", lemma=["dilate"]), "lemma", "a string"),
    ("decomposition_a2", _with("decomposition_a2", root=5), "root", "a string"),
    ("decomposition_a2", _with("decomposition_a2", ideal2=[3]), "ideal2", "a list of strings"),
], ids=["lgp-data", "lgp-ideal", "lgp-word", "lgp-s", "lgp-s-bool", "lgp-ring", "lgp-var",
        "lgp-system", "lgp-cover", "lgp-cover-bool", "demo-ring", "demo-var", "demo-system", "demo-lemma", "demo-root",
        "demo-ideal2"])
def test_a_field_of_the_wrong_json_type_is_a_parse_error(tmp_path, name, inst, field, expected):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    code, out, _ = _run(_argv(name, path))
    assert code == 18
    payload = json.loads(out)
    assert (payload["error"], payload["exit_code"]) == ("ParseError", 18)
    assert payload["message"].startswith("field %r must be %s" % (field, expected))
    # the ring is in the payload as soon as it parses, whatever fails later
    read = field not in ("ring", "system", "lemma")
    assert payload["ring"] == (cli.ring_from_text(inst["ring"]).to_config() if read else None)


@pytest.mark.parametrize("name", ["dilate_a2", "for_dilation_a2", "splitting_a2", "lgp_cover23"])
def test_an_unknown_variable_is_one_typed_error_from_every_lemma(tmp_path, name):
    inst = _with(name, var="q")
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    code, out, _ = _run(_argv(name, path))
    assert code == 9
    payload = json.loads(out)
    assert payload["error"] == "NotSplittingIdeal"
    ring = cli.ring_from_text(inst["ring"])
    assert payload["message"] == "'q' is not a polynomial variable of %s" % ring


def test_dilate_refuses_a_non_level_word_over_an_unlocalized_ring(tmp_path):
    # the level gate runs before dilate's return for an unlocalized ring,
    # so the word exits 12 over Z[X] as it does over Z[X][1/2]
    for ring in ("Z[X]", "Z[X][1/2]"):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"lemma": "dilate", "system": "A2", "ring": ring,
                                    "word": "(prod (x 1,-1,0 {X}))", "ideal": ["3"]}))
        code, out, _ = _run(_argv("dilate", path))
        assert code == 12
        payload = json.loads(out)
        assert payload["error"] == "ConditionViolated"
        assert payload["message"].startswith("input is not a level word")


def test_an_integer_cover_element_is_read_as_text(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_with("lgp_cover23_global", cover=[2, 3])))
    code, out, _ = _run(_argv("lgp_cover23_global", path))
    assert code == 0
    _, plain, _ = _run(_argv("lgp_cover23_global"))
    assert out == plain


@pytest.mark.parametrize("inst,code,known", [
    (_with("dilate_a2", lemma="no-such-lemma"), 3, {"lemma": "no-such-lemma", "system": "A2"}),
    (_with("dilate_a2", ring="Q[t]"), 18, {"lemma": "dilate", "system": "A2"}),
    (_drop("dilate_a2", "system"), 18, {"lemma": "dilate"}),
], ids=["unknown-lemma", "bad-ring", "no-system"])
def test_demo_writes_its_payload_for_every_failure(tmp_path, inst, code, known):
    # as lgp does: the fields read before the failure, the others null
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    got, out, _ = _run(_argv("dilate_a2", path))
    assert got == code
    payload = json.loads(out)
    assert payload["exit_code"] == code
    assert payload["ring"] is None
    assert {k: payload[k] for k in ("lemma", "system")} == dict({"system": None}, **known)


def test_a_key_error_inside_a_lemma_is_not_a_missing_field(monkeypatch):
    def lemma(eng, ring, inst):
        raise KeyError("a tag the library did not find")

    monkeypatch.setitem(cli.DEMOS, "decomposition", lemma)
    with pytest.raises(KeyError):
        _run(_argv("decomposition_a2"))


# ----- refusals -----


# the exit code of each error family, as scripted callers branch on it
EXIT_CODES = [
    ("InvalidType", 3),
    ("OppositeRoots", 4),
    ("UnsupportedRing", 5),
    ("SubstitutionMismatch", 6),
    ("UndecidableIdealClass", 7),
    ("NotInIdeal", 8),
    ("NotSplittingIdeal", 9),
    ("NotExtendedIdeal", 10),
    ("CongruenceFailed", 11),
    ("ConditionViolated", 12),
    ("NoUnitCombination", 13),
    ("BudgetExhausted", 14),
    ("NodeBudgetExceeded", 15),
    ("LocalizationMismatch", 16),
    ("NotUnimodular", 17),
    ("ParseError", 18),
    ("OracleMismatch", 19),
    ("InconsistentData", 20),
]


def test_each_error_family_declares_its_exit_code():
    families = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.ChevCalcError)
    }
    assert errors.ChevCalcError.exit_code == 1
    assert sorted(families) == sorted([name for name, _ in EXIT_CODES] + ["ChevCalcError"])
    for name, code in EXIT_CODES:
        assert families[name].exit_code == code
    assert len({cls.exit_code for cls in families.values()}) == len(families)


@pytest.mark.parametrize("argv,code,message", [
    (["--suite", "nope", "--ring", "Z[t]"], 3, "unknown suite 'nope'"),
    (["--suite", "steinberg", "--ring", "Z[t]q"], 18, "unrecognized ring descriptor 'Z[t]q'"),
    (["--suite", "steinberg", "--ring", "Q[t]"], 18, "must start with Z or Z/m: 'Q[t]'"),
], ids=["unknown-suite", "ring-trailer", "ring-head"])
def test_verify_refuses_a_bad_suite_or_ring(argv, code, message):
    got, out, err = _run(["verify", "--system", "A2"] + argv)
    assert got == code
    assert message in out + err


@pytest.mark.parametrize("name", ["lgp_cover23", "dilate_a2"])
@pytest.mark.parametrize("text,message", [
    (None, "cannot read"),
    ("{", "is not valid JSON"),
], ids=["missing", "not-json"])
def test_an_unreadable_instance_file_is_a_parse_error(tmp_path, name, text, message):
    path = tmp_path / "instance.json"
    if text is not None:
        path.write_text(text)
    code, out, _ = _run(_argv(name, path))
    assert code == 18
    payload = json.loads(out)
    assert (payload["error"], payload["exit_code"]) == ("ParseError", 18)
    assert message in payload["message"] and str(path) in payload["message"]
    assert (payload["ring"], payload["system"]) == (None, None)
