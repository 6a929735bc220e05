"""The report's JSON writer against the stdlib encoder it replaces."""
import gc
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import Report, screen  # noqa: E402
from fdahp.report import _json  # noqa: E402

# Any text (non-ASCII and control characters included), every scalar JSON
# encodes, and the floats it spells specially.
SCALARS = st.one_of(
    st.text(),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
KEYS = st.one_of(st.text(max_size=4), st.integers(), st.booleans(), st.none(), st.floats())
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)
# Lists of records that share one key order, as reports hold them, so that each
# column is written in one pass: keys with `%`, and columns of one kind each.
RECORD_KEYS = st.text('%sd"é a', max_size=3)
COLUMN_KINDS = st.sampled_from([
    st.text('%s"\\é\u2028a', max_size=3),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.one_of(st.integers(), st.floats(), st.just(10 ** 400)),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5]),
    st.none(),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
    st.fixed_dictionaries({"%s": st.floats(), "b": st.text(max_size=2)}),
    st.lists(st.floats(), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(), min_size=1, max_size=1), min_size=2, max_size=2),
    st.lists(SCALARS, max_size=3),
    st.just([]),
    TREES,
])
RECORDS = st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(*[COLUMN_KINDS] * len(keys)).flatmap(
        lambda kinds: st.lists(st.fixed_dictionaries(dict(zip(keys, kinds))),
                               min_size=1, max_size=4)
    )
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(TREES, RECORDS, st.dictionaries(st.text(max_size=4), RECORDS, max_size=2)))
def test_writer_matches_stdlib_indented_json(tree):
    assert _json(tree) == json.dumps(tree, indent=2, ensure_ascii=False)


def test_json_report_without_warnings_leaves_no_cyclic_garbage(study):
    # an empty container written by an indented json.dumps leaves its encoder's closures
    built = Report.build({"ratings": {"path": "r.csv"}}, screen(study.delphi_panel))
    made = Report(tool={}, inputs={}, screening=None, ranking=None)  # warnings=()
    for report in (built, made):
        assert not report.warnings
        gc.collect()
        text = report.to_json()
        assert gc.collect() == 0
        assert '"warnings": [],' in text
