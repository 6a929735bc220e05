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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TREES)
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
