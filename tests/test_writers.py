"""Differential tests of the three writers of ``analyze``.

Each writer formats whole columns at once; the oracles here render one unit
(or one unit and replicate) at a time, as a ``csv.writer`` row or a dict for
``json.dumps(rows, indent=2)``. The drawn scopes hold keys the formats must
quote or escape, the characters of a JSON row's seams, ties in |d| (signed
zeros among them), NaN and infinite values, k = 2, single units and, for
the writers that take a ``Significance``, none.
"""

import csv
import io
import json
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from venuepref.nullmodel import (
    DIRECTIONS,
    Significance,
    write_null_distribution_csv,
    write_significance_json,
)
from venuepref.popularity import AnalysisMode, popularity_table, write_popularity_csv

_keys = st.text(st.sampled_from([",", '"', "\\", "\n", "\r", "\u2028", " ", "é", "\U0001f600",
                                 "a", "B", "{", "}", ":", "[", "]", "%"]), max_size=5)
_ds = st.sampled_from([0.0, -0.0, 0.125, -0.125, 0.25, -0.25, 1 / 3, 1e-300])
_floats = st.sampled_from([0.0, -0.0, 1e-300, -2.5, 1 / 3, float("nan"), float("inf"),
                           float("-inf")]) | st.floats()


@st.composite
def scopes(draw):
    """The columns of one scope's units, in sorted key order, as a
    ``ScopeIndex`` gives them, and a k x units null matrix."""
    keys = sorted(draw(st.lists(_keys, min_size=1, max_size=6, unique=True)))
    n, k = len(keys), draw(st.integers(2, 4))
    column = lambda values: np.array(draw(st.lists(values, min_size=n, max_size=n)))
    mode = draw(st.sampled_from(list(AnalysisMode)))
    return SimpleNamespace(
        keys=keys, mode=mode, scope=draw(_keys),
        scope_subcategory=(draw(_keys) if mode is AnalysisMode.VENUE_WITHIN_SUBCATEGORY
                           else draw(st.none() | _keys)),
        p_male=column(st.floats(0, 1)), p_female=column(st.floats(0, 1)), d=column(_ds),
        n_checkins=column(st.integers(1, 10**6)), observed_d=column(_ds | _floats),
        delta_min=column(_floats), delta_max=column(_floats),
        significant=column(st.booleans()), direction=column(st.integers(0, 2)),
        null=np.array(draw(st.lists(st.lists(_floats | _ds, min_size=n, max_size=n),
                                    min_size=k, max_size=k))))


def _units(n):
    """A scope of ``n`` units keyed "", with k = 2."""
    same = lambda value: np.array([value] * n)
    return SimpleNamespace(
        keys=[""] * n, mode=AnalysisMode.VENUE, scope="", scope_subcategory=None,
        p_male=same(0.5), p_female=same(0.25), d=same(-0.0), n_checkins=same(3),
        observed_d=same(-0.0), delta_min=same(float("nan")), delta_max=same(float("inf")),
        significant=same(True), direction=same(0), null=np.full((2, n), -0.0))


def _significance(scope):
    return Significance(scope.keys, scope.mode, scope.scope, scope.scope_subcategory,
                        scope.observed_d, scope.delta_min, scope.delta_max, scope.significant,
                        scope.direction, scope.null)


@given(scopes())
@example(_units(1))
def test_popularity_csv_is_a_csv_row_per_unit(scope):
    # popularity_table reads the index's popularity, mode, keys and totals
    index = SimpleNamespace(mode=scope.mode, keys=scope.keys, unit_total=scope.n_checkins,
                            popularity=lambda: (scope.p_male, scope.p_female, scope.d))
    rows = [(key, float(scope.p_male[j]), float(scope.p_female[j]), float(scope.d[j]),
             int(scope.n_checkins[j])) for j, key in enumerate(scope.keys)]
    rows.sort(key=lambda row: (-abs(row[3]), row[0]))
    p_max = max(max(row[1], row[2]) for row in rows)
    assume(p_max > 0)  # a scope's popularities sum to 1 per gender
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["unit_key", "mode", "p_male", "p_female",
                     "p_male_norm", "p_female_norm", "d_s", "n_checkins"])
    for key, p_male, p_female, d, n in rows:
        writer.writerow([key, scope.mode.value, f"{p_male:.10g}", f"{p_female:.10g}",
                         f"{p_male / p_max:.10g}", f"{p_female / p_max:.10g}",
                         f"{d:.10g}", n])
    sink = io.StringIO()
    write_popularity_csv(popularity_table(index), sink)
    assert sink.getvalue() == expected.getvalue()


@given(scopes())
@example(_units(1))
@example(_units(0))
def test_significance_json_is_a_dict_per_unit(scope):
    rows = [{"unit_key": key, "mode": scope.mode.value, "scope": scope.scope,
             "scope_subcategory": scope.scope_subcategory,
             "observed_d": float(scope.observed_d[j]), "delta_min": float(scope.delta_min[j]),
             "delta_max": float(scope.delta_max[j]),
             "significant": bool(scope.significant[j]),
             "direction": DIRECTIONS[scope.direction[j]].value}
            for j, key in enumerate(scope.keys)]
    sink = io.StringIO()
    write_significance_json(_significance(scope), sink)
    assert sink.getvalue() == json.dumps(rows, indent=2) + "\n"


@given(scopes())
@example(_units(1))
@example(_units(0))
def test_null_distribution_csv_is_a_csv_row_per_cell(scope):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["unit_key", "replicate", "d"])
    for j, key in enumerate(scope.keys):
        for i in range(len(scope.null)):
            writer.writerow([key, i, f"{float(scope.null[i, j]):.10g}"])
    sink = io.StringIO()
    write_null_distribution_csv(_significance(scope), sink)
    assert sink.getvalue() == expected.getvalue()
