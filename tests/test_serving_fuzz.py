"""Fuzzed query routes: bad input to the service is a 4xx, never a 500.

:meth:`SearchService.dispatch` runs in process over the ``tiny`` preset,
so a handler exception propagates here as an exception instead of being
turned into a 500 by the HTTP handler's catch-all.  Query text is drawn
from arbitrary unicode (quotes, control characters, non-ASCII), the
numeric and id parameters from a mix of valid and invalid strings.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.presets import get_preset
from repro.pipeline import Pipeline
from repro.serving.service import SearchService

TINY = get_preset("tiny")

#: Valid and invalid values of the numeric parameters; invalid draws
#: also include arbitrary text.
COUNTS = st.sampled_from(["1", "3", "10", " 2 "])
THRESHOLDS = st.sampled_from(["0", "0.1", "0.5", "1.5", "-1", "1e-9"])
BAD_NUMBERS = st.sampled_from(
    ["0", "-1", "1.5", "nan", "inf", "-inf", "1e400", ""]
) | st.text(max_size=6)
QUERIES = st.text(max_size=40) | st.sampled_from(
    ['"cell cycle" repair', '"', '""', 'gene "expression', "\x00\n\t"]
)


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline.from_dataset(
        TINY.generate(seed=0), min_context_size=TINY.min_context_size
    )


@pytest.fixture(scope="module")
def service(pipeline):
    live = SearchService(pipeline, port=0)  # dispatch only; never started
    yield live
    live.stop()


def _param(valid, invalid):
    """One parameter's value list: absent, valid, invalid, or repeated."""
    one = lambda values: st.lists(values, min_size=1, max_size=1)  # noqa: E731
    return st.one_of(
        one(valid), one(valid), st.just([]), one(invalid),
        st.lists(valid | invalid, min_size=2, max_size=2),
    )


@st.composite
def requests(draw, pipeline):
    path = draw(st.sampled_from(["/search", "/search_grouped", "/explain"]))
    contexts = st.sampled_from(pipeline.paper_set("text").context_ids()[:20])
    papers = st.sampled_from(pipeline.corpus.paper_ids()[:20])
    raw = {
        "q": [draw(QUERIES)],
        "top_k": draw(_param(COUNTS, BAD_NUMBERS)),
        "threshold": draw(_param(THRESHOLDS, BAD_NUMBERS)),
        "max_contexts": draw(_param(COUNTS, BAD_NUMBERS)),
        "context": draw(st.lists(contexts | st.text(max_size=10), max_size=3)),
        "paper_id": draw(_param(papers, st.text(max_size=10))),
    }
    return path, {name: values for name, values in raw.items() if values}


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_query_routes_never_500(pipeline, service, data):
    path, params = data.draw(requests(pipeline), label="request")
    response = service.dispatch("GET", path, params)
    assert response is not None
    assert response.status < 500, (path, params, response.body)
    json.loads(response.body)


def test_quoted_query_ranks_like_unquoted(service):
    quoted = service.dispatch("GET", "/search", {"q": ['"cell cycle" repair']})
    plain = service.dispatch("GET", "/search", {"q": ["cell cycle repair"]})
    assert quoted.status == plain.status == 200
    hits = json.loads(plain.body)["hits"]
    assert hits and json.loads(quoted.body)["hits"] == hits


@pytest.mark.parametrize("body", [
    "[]", '"add"', "1", "null",
    '{"add": {}}', '{"add": "P1"}',
    '{"remove": [1]}', '{"remove": [null]}', '{"remove": "P1"}',
])
def test_malformed_ingest_bodies_are_400(service, body):
    response = service.dispatch("POST", "/admin/ingest", {}, body)
    assert response.status == 400, response.body
