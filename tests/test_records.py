"""The result records: field access, keyword construction, value equality,
a repr naming the class and immutability, plus the start-up guard that the
package loads them without ``dataclasses``."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from pclie import (
    Alphabet,
    Ambiguity,
    ExprAst,
    GradedBasis,
    GsbReport,
    LiePoly,
    Occurrence,
    ReductionStep,
    ReductionTrace,
    Rule,
    bracket,
)
from pclie.quotient import CommGraph

A3 = Alphabet.from_decl("x > y > z")
F = Rule(LiePoly.basis(A3.word("xy")))
G = Rule(LiePoly.basis(A3.word("yz")))
P = LiePoly.basis(A3.word("xyz"))

# each record with the keyword arguments of one value; the values are made
# afresh on every call, so two calls give equal records that are not the same
FIELDS = {
    Ambiguity: lambda: dict(
        kind="intersection", f_index=0, g_index=1, f=F, g=G, w=A3.word("xyz"), position=1
    ),
    ReductionStep: lambda: dict(
        rule_index=None, rule=F, word=A3.word("xxy"), position=1, coefficient=Fraction(3, 2)
    ),
    Occurrence: lambda: dict(host=A3.word("xyz"), sub=A3.word("yz"), position=1),
    ExprAst: lambda: dict(alphabet=A3, parts=((Fraction(-2), bracket(A3.word("xy"))),)),
    ReductionTrace: lambda: dict(input=P, steps=[], remainder=P),
    GsbReport: lambda: dict(ok=False, max_deg=5, ambiguities_checked=3, failures=[(1, P)]),
    GradedBasis: lambda: dict(
        graph=CommGraph(A3, [("x", "y")]), max_degree=1, by_degree=((bracket(A3.word("x")),),)
    ),
}
FROZEN = (Ambiguity, ReductionStep, Occurrence, ExprAst)
RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


@RECORDS
def test_keyword_construction_field_access_and_equality(cls):
    kwargs = FIELDS[cls]()
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(record, name) == value
    assert record == cls(*FIELDS[cls]().values())  # equal values, built afresh


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_equal_frozen_records_hash_alike(cls):
    a, b = cls(**FIELDS[cls]()), cls(**FIELDS[cls]())
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@RECORDS
def test_repr_names_the_class_and_its_fields(cls):
    kwargs = FIELDS[cls]()
    text = repr(cls(**kwargs))
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in kwargs)


@RECORDS
def test_fields_cannot_be_assigned(cls):
    kwargs = FIELDS[cls]()
    record = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


def test_gsb_report_defaults_to_no_failures():
    a, b = GsbReport(True, 5, 3), GsbReport(True, 5, 3)
    assert a.failures == [] and a.ok and a.max_deg == 5 and a.ambiguities_checked == 3
    assert a.failures is not b.failures  # never a shared default


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site (and any .pth hook it runs) from importing modules first
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys, pclie.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
