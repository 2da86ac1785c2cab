"""The plain record classes: dataclass-style ==, repr and hashing,
frozen fields, and an import of misdyn that generates no code."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import misdyn
from misdyn.analysis import SweepEntry, SweepReport
from misdyn.constructions import ClockSpec, clock_spec
from misdyn.parsing import Decomposition
from misdyn.system import EXACT_PERIODIC, Cell, Hyperplane, OrbitTrace, PeriodVerdict, StochasticMatrix


def test_records_compare_field_by_field_and_print_like_dataclasses():
    v = PeriodVerdict(EXACT_PERIODIC, transient=2, period=4, tau_block=F(1, 2), horizon=9)
    assert v == PeriodVerdict(EXACT_PERIODIC, 2, 4, F(1, 2), 9)
    assert v != PeriodVerdict(EXACT_PERIODIC, 2, 4, F(1, 2), 10)
    assert v != (EXACT_PERIODIC, 2, 4, F(1, 2), 9)
    assert repr(v) == (
        "PeriodVerdict(status='exact-periodic', transient=2, period=4, "
        "tau_block=Fraction(1, 2), horizon=9)"
    )
    assert repr(SweepEntry(F(1, 8), 0)) == (
        "SweepEntry(delta=Fraction(1, 8), x0_index=0, verdict=None, error=None)"
    )
    trace = OrbitTrace([], [], v)
    assert trace.inexact is False and trace == OrbitTrace([], [], v, False)
    v.horizon = 10  # unfrozen records take assignment, and no hash
    assert v.horizon == 10
    for record in (v, trace, SweepReport([], []), Decomposition(1, [], [], None)):
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_records_hash_and_refuse_assignment():
    m = StochasticMatrix([[1]])
    a, b = Cell("", m, label="a"), Cell("", m, label="b")
    assert a == b and hash(a) == hash(b)  # the label is not compared
    assert repr(a) == "Cell(pattern='', matrix=StochasticMatrix(((Fraction(1, 1),),)), label='a')"
    assert Hyperplane((1, 2)) == Hyperplane((F(1), F(2)))
    assert hash(clock_spec(2)) == hash(ClockSpec(2, 4, 8, F(1, 3)))
    for record, name in ((a, "label"), (Hyperplane((1, 2)), "normal"), (clock_spec(1), "n")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for clone in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and clone.label == "a"


def test_import_generates_no_dataclass_code():
    """The records are written out, so importing misdyn never loads the
    dataclasses module, whose decorators compile code at import."""
    src = str(Path(misdyn.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import misdyn.digraph, misdyn.parsing, misdyn.system\n"
        "import misdyn.rational, misdyn.analysis, misdyn.constructions\n"
        "print('dataclasses' in sys.modules)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
