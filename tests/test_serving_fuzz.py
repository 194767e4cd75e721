"""Fuzzed query routes: bad input to the service is a 4xx, never a 500.

:meth:`SearchService.dispatch` runs in process over the ``tiny`` preset,
so a handler exception propagates here as an exception instead of being
turned into a 500 by the HTTP handler's catch-all.  Query text is drawn
from arbitrary unicode (quotes, control characters, non-ASCII), the
numeric and id parameters from a mix of valid and invalid strings.
"""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference.prestige import pre_maps
from repro.corpus.corpus import Corpus
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


#: Paper ids an ``add`` list draws from: fresh, blank, and already present.
NEW_IDS = ["FZ1", "FZ2", "FZ3", "", "  ", "\t"]
WRONG_TYPES = st.sampled_from([None, 7, 1.5, True, ["x"], {"k": "v"}])


@pytest.fixture(scope="module")
def ingest_pipeline():
    pipeline = Pipeline.from_dataset(
        TINY.generate(seed=0), min_context_size=TINY.min_context_size
    )
    pipeline.prestige("pattern", "pattern")  # the delta patches a warm memo
    return pipeline


@pytest.fixture(scope="module")
def ingest_service(ingest_pipeline):
    live = SearchService(ingest_pipeline, port=0)  # dispatch only; never started
    yield live
    live.stop()


@st.composite
def paper_objects(draw, pipeline):
    """One ``add`` entry: mostly well-formed, sometimes not."""
    corpus_ids = pipeline.corpus.paper_ids()[:5]
    paper_id = draw(st.sampled_from(NEW_IDS + corpus_ids) | WRONG_TYPES)
    texts = st.sampled_from(
        ["", "   ", "the of and with"]
        + [pipeline.corpus.paper(pid).title for pid in corpus_ids]
    )
    # Duplicates, unknown ids and (for a string id) self-citations.
    cited = corpus_ids + ["UNKNOWN"] + ([paper_id] if isinstance(paper_id, str) else [])
    references = st.lists(st.sampled_from(cited), max_size=4)
    fields = {
        "title": texts,
        "abstract": texts,
        "body": texts,
        "index_terms": st.lists(texts, max_size=2),
        "references": references,
        "year": st.integers(min_value=1990, max_value=2010),
    }
    paper = {"paper_id": paper_id}
    for name, valid in fields.items():
        value = draw(st.none() | st.just(valid) | st.just(WRONG_TYPES))
        if value is not None:
            paper[name] = draw(value)
    return paper


def _pattern_scores(pipeline):
    scores = pipeline.prestige("pattern", "pattern")
    return {cid: scores.of(cid) for cid in scores.context_ids()}, pre_maps(scores)


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_ingest_add_lists_never_500(ingest_pipeline, ingest_service, data):
    """Fuzzed ``add`` lists: 200, 400 or 409; the corpus moves only on a
    delta that applied, and pattern prestige then equals a scratch build."""
    add = data.draw(st.lists(paper_objects(ingest_pipeline), max_size=3), label="add")
    remove = data.draw(
        st.lists(st.sampled_from(ingest_pipeline.corpus.paper_ids()[:5]), max_size=1),
        label="remove",
    )
    before = ingest_pipeline.corpus.paper_ids()
    response = ingest_service.dispatch(
        "POST", "/admin/ingest", {}, json.dumps({"add": add, "remove": remove})
    )
    assert response.status in (200, 400, 409), response.body
    event(f"status {response.status}")
    if response.status == 400:
        assert ingest_pipeline.corpus.paper_ids() == before
        return
    scratch = Pipeline(
        Corpus(list(ingest_pipeline.corpus)),
        ingest_pipeline.ontology,
        ingest_pipeline.training_papers,
        min_context_size=TINY.min_context_size,
    )
    assert _pattern_scores(ingest_pipeline) == _pattern_scores(scratch)
