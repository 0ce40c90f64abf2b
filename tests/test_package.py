"""The public API: each module's ``__all__`` is re-exported from the package root,
and its value classes compare, hash, print and refuse assignment as before."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import twobridge
from twobridge import bounds, enumeration, parsing, rationals, seams, vectors

MODULES = (bounds, enumeration, parsing, rationals, seams, vectors)

# The package root's names, frozen in their published order.
PUBLIC_NAMES = [
    "BudgetExceededError",
    "CFDivisionError",
    "CatalogEntry",
    "CmEntry",
    "DEFAULT_BUDGET",
    "EvenCF",
    "Fraction",
    "InvalidFractionError",
    "KnotCatalog",
    "KnotClass",
    "NoCommonFamilyError",
    "Parsing",
    "SEvenVector",
    "SeamSet",
    "TWO_SMALLER_WITNESSES",
    "TwoConnectorForm",
    "VectorClass",
    "WitnessReport",
    "assemble_two_connector",
    "bound_entry",
    "bound_table",
    "canonical_fraction",
    "canonical_vector",
    "connector_vector",
    "contract",
    "crossing_number",
    "ek_exact_at_bound",
    "enumerate_knots",
    "epimorphism_number",
    "evaluate_terms",
    "even_expansion",
    "expand",
    "find_parsings",
    "find_seams",
    "is_strictly_greater",
    "knot_classes",
    "knot_from_vector",
    "least_odd_with_divisors",
    "lift_construction",
    "minimal_upper_bound",
    "most_divisors_up_to",
    "negate_segments",
    "nontrivial_proper_divisor_count",
    "parses_with_respect_to",
    "smaller_knots",
    "torus_vector",
    "two_connector_decompose",
    "vector_from_knot",
    "verify_witness_table",
]


def test_root_all_is_frozen():
    assert twobridge.__all__ == PUBLIC_NAMES


def test_module_names_are_the_same_objects_at_the_root():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(twobridge, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_root_all_is_the_union_of_module_lists():
    assert set().union(*(mod.__all__ for mod in MODULES)) == set(twobridge.__all__)


def test_star_import_binds_every_name():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "from twobridge import *\n"
        "import twobridge\n"
        "missing = [n for n in twobridge.__all__ if n not in globals()]\n"
        "print(len(twobridge.__all__), missing)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "49 []\n"


# A python -S child (no site hook imports anything first) with src put
# on sys.path by hand: it imports the package, runs main on its argv if
# it has one, and prints the twobridge submodules it has loaded.
FOOTPRINT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import twobridge
if sys.argv[2:]:
    import twobridge.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert twobridge.cli.main(sys.argv[2:]) == 0
print(sorted(m.partition(".")[2] for m in sys.modules if m.startswith("twobridge.")))
"""


def _child(code, *args):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src), *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    assert _child(FOOTPRINT) == "[]\n"


# A python -S child that reads each name it is given through the root, in
# turn, and prints the twobridge submodules loaded after each read.
LOOKUP = """
import sys
sys.path.insert(0, sys.argv[1])
import twobridge
for name in sys.argv[2:]:
    getattr(twobridge, name, None)
    print(sorted(m.partition(".")[2] for m in sys.modules if m.startswith("twobridge.")))
"""


def test_root_lookup_loads_the_layers_up_to_the_name():
    # A name of rationals, vectors, parsing or enumeration loads what its
    # module imports; a name of seams or bounds also loads every layer
    # listed before it, and an unknown name loads every layer; a dunder
    # loads nothing.
    steps = [
        ("Fraction", {"_value", "rationals"}),
        ("SEvenVector", {"vectors"}),
        ("smaller_knots", {"parsing"}),
        ("enumerate_knots", {"enumeration", "bounds"}),
    ]
    loaded, want = set(), ""
    for _, modules in steps:
        loaded |= modules
        want += f"{sorted(loaded)}\n"
    assert _child(LOOKUP, *(name for name, _ in steps)) == want
    every = f"{sorted(loaded | {'seams'})}\n"
    assert _child(LOOKUP, "find_seams") == every
    assert _child(LOOKUP, "least_odd_with_divisors") == every
    assert _child(LOOKUP, "no_such_name") == every
    assert _child(LOOKUP, "__wrapped__") == "[]\n"


def test_dir_reads_the_bound_all(monkeypatch):
    # Once __all__ is bound, dir() reads it and imports no layer again.
    names = dir(twobridge)
    assert set(twobridge.__all__) <= set(names)

    def no_import(*args):
        raise AssertionError("dir() imported a layer again")

    monkeypatch.setattr(twobridge, "import_module", no_import)
    assert dir(twobridge) == names


# Each verb loads the layers it runs and no others.
LIGHT = {"_value", "cli", "rationals", "vectors"}
ORDER = LIGHT | {"parsing"}
SEAMS = ORDER | {"seams"}
COUNTS = ORDER | {"bounds", "enumeration"}
FOOTPRINTS = [
    (["cr", "2,2"], LIGHT),
    (["convert", "1/3"], LIGHT),
    (["smaller", "1/45"], ORDER),
    (["compare", "1/9", "1/3"], ORDER),
    (["torus", "9"], ORDER),
    (["seams", "1/27"], SEAMS),
    (["negate", "1/27", "--segments", "3"], SEAMS),
    (["lift", "2,2", "--target", "12"], SEAMS),
    (["cm", "40"], {"_value", "bounds", "cli"}),
    (["ek", "9"], COUNTS),
    (["enumerate", "9"], COUNTS),
    (["verify-paper", "--budget", "9"], COUNTS | {"seams"}),
]


@pytest.mark.parametrize("argv, modules", FOOTPRINTS, ids=[argv[0] for argv, _ in FOOTPRINTS])
def test_each_verb_loads_only_its_layers(argv, modules):
    assert _child(FOOTPRINT, *argv) == f"{sorted(modules)}\n"


def test_cli_start_up_loads_no_typing_or_pathlib():
    # what the interpreter loads for argparse and re on its own is allowed
    code = "import sys\n{}\nprint(sorted({{'typing', 'pathlib'}} & set(sys.modules)))\n"
    bare = _child(code.format("import argparse, re"))
    run = "sys.path.insert(0, sys.argv[1])\nimport twobridge.cli\ntwobridge.cli.main(['cr', '2,2'])"
    assert _child(code.format(run)) == "4\n" + bare


# One instance of each public value class, by its fields in order, with
# its repr.  Fractions and classes are given in their normalized form, so
# the fields read back as given.
V22 = twobridge.SEvenVector((2, 2))
KNOT3 = twobridge.KnotClass(twobridge.Fraction(1, 3))
ENTRY3 = twobridge.CatalogEntry(KNOT3, twobridge.VectorClass(twobridge.SEvenVector((2, -2))), ())
VALUE_CASES = [
    (twobridge.Fraction, {"p": 1, "q": 3}, "Fraction(p=1, q=3)"),
    (twobridge.EvenCF, {"r": 0, "terms": (2, 2)}, "EvenCF(r=0, terms=(2, 2))"),
    (twobridge.KnotClass, {"canonical": twobridge.Fraction(1, 3)}, "KnotClass(canonical=Fraction(p=1, q=3))"),
    (twobridge.SEvenVector, {"entries": (2, 2)}, "SEvenVector(entries=(2, 2))"),
    (twobridge.VectorClass, {"representative": V22}, "VectorClass(representative=SEvenVector(entries=(2, 2)))"),
    (
        twobridge.Parsing,
        {"base": V22, "signs": (1, 1, 1), "connectors": (0, 0)},
        "Parsing(base=SEvenVector(entries=(2, 2)), signs=(1, 1, 1), connectors=(0, 0))",
    ),
    (
        twobridge.TwoConnectorForm,
        {"generator": V22, "m": 2, "n": 0, "count": 3},
        "TwoConnectorForm(generator=SEvenVector(entries=(2, 2)), m=2, n=0, count=3)",
    ),
    (
        twobridge.SeamSet,
        {"vector": V22, "parsings": (), "cuts": ()},
        "SeamSet(vector=SEvenVector(entries=(2, 2)), parsings=(), cuts=())",
    ),
    (
        twobridge.CatalogEntry,
        {"knot": KNOT3, "vector": ENTRY3.vector, "smaller": ()},
        "CatalogEntry(knot=KnotClass(canonical=Fraction(p=1, q=3)), "
        "vector=VectorClass(representative=SEvenVector(entries=(2, -2))), smaller=())",
    ),
    (
        twobridge.KnotCatalog,
        {"crossing_number": 3, "entries": (ENTRY3,)},
        "KnotCatalog(crossing_number=3, entries=(CatalogEntry(knot=KnotClass(canonical=Fraction(p=1, q=3)), "
        "vector=VectorClass(representative=SEvenVector(entries=(2, -2))), smaller=()),))",
    ),
    (
        twobridge.WitnessReport,
        {"n": 27, "fraction": twobridge.Fraction(1, 27), "crossing_number": 27, "smaller_count": 2},
        "WitnessReport(n=27, fraction=Fraction(p=1, q=27), crossing_number=27, smaller_count=2)",
    ),
    (twobridge.CmEntry, {"m": 0, "value": 3}, "CmEntry(m=0, value=3)"),
]


def test_value_classes_behave_as_before():
    # Equal exactly to an equal instance of the same class; hashed as the
    # tuple of its fields, so set and dict orders stay the same; the repr
    # names each field; no field can be assigned or deleted.  A value
    # filled without the constructor's checks, as the catalog builds its
    # own, is the same value.
    assert len(VALUE_CASES) == 12
    for i, (cls, kw, text) in enumerate(VALUE_CASES):
        fields = tuple(kw.values())
        x, y, filled = cls(*fields), cls(**kw), object.__new__(cls)._fill(*fields)
        other_cls, other_kw, _ = VALUE_CASES[i - 1]
        sub = type("Sub", (cls,), {})(*fields)
        assert x == y and not x != y and hash(x) == hash(y), cls
        assert type(filled) is cls and filled == x and x == filled and hash(filled) == hash(x), cls
        assert x != fields and x != other_cls(**other_kw) and x != sub and sub != x, cls
        assert hash(x) == hash(fields), cls
        assert repr(x) == repr(filled) == text, cls
        for z in (x, filled):
            assert tuple(getattr(z, name) for name in kw) == fields, cls
            for name in (*kw, "extra"):
                with pytest.raises(AttributeError):
                    setattr(z, name, 0)
                with pytest.raises(AttributeError):
                    delattr(z, name)
            assert tuple(getattr(z, name) for name in kw) == fields, cls
        assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x, cls
    assert twobridge.Fraction(5) == twobridge.Fraction(5, 1) == twobridge.Fraction(p=10, q=2)
    assert twobridge.EvenCF(3) == twobridge.EvenCF(3, ()) and twobridge.EvenCF(0, [2, 2]).terms == (2, 2)
    assert twobridge.SEvenVector().entries == () and twobridge.SEvenVector([2, 2]) == V22
    assert twobridge.KnotClass(twobridge.Fraction(2, 3)) == KNOT3
    assert twobridge.VectorClass(twobridge.SEvenVector((-2, -2))) == twobridge.VectorClass(V22)
    p = twobridge.Parsing(base=V22, signs=[1, 1, 1], connectors=[0, 0])
    assert (p.signs, p.connectors) == ((1, 1, 1), (0, 0))
