"""The column report of ``refreeze_goldens.py``: how far each CSV column moved."""

import math

import pytest

from refreeze_goldens import column_changes

OLD = "param,err,order\n4,0.5,\n8,0.125,2.0\n"


def test_an_unchanged_text_moves_no_column():
    assert column_changes(OLD, OLD) == {"param": 0.0, "err": 0.0, "order": 0.0}


def test_a_moved_cell_gives_its_relative_change():
    new = OLD.replace("0.125,", "0.1250001,")
    changes = column_changes(OLD, new)
    assert changes["err"] == pytest.approx(8e-7, rel=1e-9)
    assert changes["param"] == changes["order"] == 0.0


@pytest.mark.parametrize("old, new, column", [
    ("4,0.5,\n", "4,nan,\n", "err"),       # a number became NaN
    ("4,0.0,\n", "4,1e-300,\n", "err"),    # a zero moved: no relative change exists
    ("4,0.5,\n", "4,0.5,1.0\n", "order"),  # an empty cell was filled
])
def test_nan_a_moved_zero_or_text_gives_inf(old, new, column):
    changes = column_changes(OLD.replace("4,0.5,\n", old), OLD.replace("4,0.5,\n", new))
    assert changes[column] == math.inf
    assert changes["param"] == 0.0


@pytest.mark.parametrize("new", [
    OLD + "16,0.03125,2.0\n",               # an added row
    OLD.replace("order", "rate"),           # a renamed column
    "param,err\n4,0.5\n8,0.125\n",           # a dropped column
])
def test_added_rows_or_renamed_columns_stop_the_report(new):
    with pytest.raises(SystemExit, match="rows or the columns changed"):
        column_changes(OLD, new)
