"""Differential test: the batch cosine kernel against :mod:`reference.text`.

Every kernel answer must equal the per-pair reference's with ``==``, and
dicts must keep the reference's key order.  Hypothesis draws sparse
vectors with equal-length pairs (``dot`` walks ``self`` on a tie),
shared terms in different insertion orders, rows of more than eight
shared terms (where pairwise summation would round differently), empty
rows, and subnormal or huge weights (``cosine``'s rescaling fallback),
and demo pipelines before and after add/remove deltas.  Text assignment
is also drawn on small generated corpora: representatives of more than
30 terms, papers that share only low-weight terms with them, empty
papers, and thresholds equal to a pair's exact cosine.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference.prestige import pre_maps
from reference.strategies import delta_pipeline
from reference.text import (
    ReferenceVector,
    ReferenceVectors,
    needs_fallback,
    reference_representative_strengths,
    reference_similarity,
    reference_text_contexts,
)
from repro import scoring
from repro.core.assignment import TextContextAssigner
from repro.core.cosine import VectorRows, cosine_pairs
from repro.core.representative import select_representative
from repro.core.search import ContextSearchEngine
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper, TEXT_SECTIONS
from repro.obs import get_registry
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.pipeline import build_demo_pipeline
from repro.text.analyze import AnalyzedPaperCache
from repro.text.vectorize import SparseVector, centroid


# -- the kernel on drawn vectors ---------------------------------------------------

NORMAL = st.one_of(
    st.floats(min_value=1e-3, max_value=10.0),
    st.sampled_from((0.0, 0.1, 0.2, 0.3, 1.0, 1 / 3)),
)
SUBNORMAL = st.floats(min_value=5e-324, max_value=2e-308)
HUGE = st.floats(min_value=1e300, max_value=1e307)
#: A vector's weights are all normal, all subnormal, all huge, or mixed.
WEIGHTS = st.sampled_from(
    (NORMAL, NORMAL, SUBNORMAL, HUGE, st.one_of(NORMAL, SUBNORMAL, HUGE))
)


@st.composite
def vector_pools(draw):
    """Vectors over a small vocabulary: many share terms, some are empty."""
    pool = []
    for _ in range(draw(st.integers(1, 7))):
        weights = draw(WEIGHTS)
        terms = draw(st.lists(st.integers(0, 24), unique=True, max_size=20))
        pool.append({term: draw(weights) for term in terms})
    return pool


@settings(max_examples=300, deadline=None)
@given(vector_pools(), vector_pools(), st.data())
def test_cosine_pairs_equal_dict_cosine(left_pool, right_pool, data):
    pairs = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(left_pool) - 1), st.integers(0, len(right_pool) - 1)
        ),
        max_size=25,
    ))
    if data.draw(st.booleans()):  # one hub row, as the scorers call it
        pairs = [(left, pairs[0][1]) for left, _ in pairs] if pairs else pairs
    left = VectorRows.of_vectors([SparseVector(v) for v in left_pool])
    right = VectorRows.of_vectors([SparseVector(v) for v in right_pool])
    left_rows = np.array([a for a, _ in pairs], dtype=np.int64)
    right_rows = np.array([b for _, b in pairs], dtype=np.int64)
    registry = get_registry()
    before = dict(registry.snapshot()["counters"])

    got = cosine_pairs(left, left_rows, right, right_rows).tolist()

    references = [
        (ReferenceVector(left_pool[a]), ReferenceVector(right_pool[b]))
        for a, b in pairs
    ]
    assert got == [a.cosine(b) for a, b in references]
    assert got == [
        SparseVector(left_pool[a]).cosine(SparseVector(right_pool[b]))
        for a, b in pairs
    ]
    assert left.norms.tolist() == [ReferenceVector(v).norm for v in left_pool]
    after = registry.snapshot()["counters"]
    assert after.get("text.kernel.pairs", 0) - before.get("text.kernel.pairs", 0) == (
        len(pairs)
    )
    assert after.get("text.kernel.fallbacks", 0) - before.get(
        "text.kernel.fallbacks", 0
    ) == sum(needs_fallback(a, b) for a, b in references)


def test_long_rows_sum_left_to_right():
    """Forty shared terms: a pairwise sum would round differently."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        terms = rng.permutation(60)[:40].tolist()
        a = dict(zip(terms, rng.random(40).tolist()))
        b = dict(zip(rng.permutation(terms).tolist(), rng.random(40).tolist()))
        got = cosine_pairs(
            VectorRows.of_vectors([SparseVector(a)]), np.zeros(1, dtype=np.int64),
            VectorRows.of_vectors([SparseVector(b)]), np.zeros(1, dtype=np.int64),
        )
        assert got.tolist() == [ReferenceVector(a).cosine(ReferenceVector(b))]


@settings(max_examples=200, deadline=None)
@given(vector_pools(), st.data())
def test_centroid_equals_dict_centroid(pool, data):
    rows = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    vectors = VectorRows.of_vectors([SparseVector(v) for v in pool])
    got = vectors.centroid(np.array(rows, dtype=np.int64)).vector(0)
    expected = centroid(SparseVector(pool[row]) for row in rows)
    assert list(got.weights.items()) == list(expected.weights.items())
    assert got.norm == ReferenceVector(expected.weights).norm


# -- the scorers on demo pipelines ----------------------------------------------------


def assert_kernel_matches_reference(pipeline):
    store = pipeline.substrates
    vectors = store.vectors
    reference = ReferenceVectors(vectors)
    for paper_id in pipeline.corpus.paper_ids():
        assert list(vectors.full_vector(paper_id).weights.items()) == list(
            reference(paper_id).weights.items()
        )
        for section in TEXT_SECTIONS:
            assert list(vectors.section_vector(paper_id, section).weights.items()) == (
                list(reference(paper_id, section).weights.items())
            )

    paper_set = store.text_paper_set
    representatives = store.representatives
    scores = store.prestige("text", "text")
    prestige = scoring.get("text").factory(store)
    for context in paper_set:
        representative = representatives.get(context.term_id)
        expected = {
            pid: reference_similarity(reference, prestige, pid, representative)
            for pid in context.paper_ids
        }
        got = pre_maps(scores).get(context.term_id, {})
        assert list(got.items()) == list(expected.items())

    assert [
        (c.term_id, c.paper_ids, c.training_paper_ids, c.representative)
        for c in paper_set
    ] == reference_text_contexts(
        reference, store.corpus, store.ontology, store.training_papers,
        store.text_similarity_threshold,
    )
    for context in paper_set:
        assert select_representative(vectors, context.training_paper_ids) == (
            context.representative
        )
    assert representatives == {c.term_id: c.representative for c in paper_set}

    engine = ContextSearchEngine(
        store.ontology, paper_set, scores, store.keyword_engine,
        selection_strategy="representative", vectors=vectors,
        representatives=representatives,
    )
    names = [term.name for term in store.ontology][:6]
    first_paper = pipeline.corpus.paper(pipeline.corpus.paper_ids()[0])
    long_query = " ".join(first_paper.body.split()[:400])
    for query in names + [long_query, "zzzz unknown"]:
        rows, strengths = engine._representative_strengths(query)
        expected = reference_representative_strengths(
            reference, paper_set, representatives, query
        )
        context_ids = paper_set.columns.context_ids
        assert [(context_ids[row], strength) for row, strength in zip(
            rows.tolist(), strengths.tolist()
        )] == list(expected.items())


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 40),
    n_add=st.integers(0, 3),
    n_remove=st.integers(0, 3),
)
def test_scorers_equal_reference_after_delta(seed, n_add, n_remove):
    assume(n_add + n_remove > 0)
    pipeline, _ = delta_pipeline(seed, n_add, n_remove, warm=[("text", "text")])
    assert_kernel_matches_reference(pipeline)


def test_scorers_equal_reference_on_a_fresh_pipeline():
    pipeline = build_demo_pipeline(seed=7, n_papers=120, n_terms=30)
    assert_kernel_matches_reference(pipeline)


@pytest.fixture(scope="module")
def golden_pipeline():
    import json
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_rankings.json").read_text()
    )
    demo = golden["demo"]
    return build_demo_pipeline(
        seed=demo["seed"], n_papers=demo["n_papers"], n_terms=demo["n_terms"]
    )


def test_no_fallbacks_on_the_golden_corpus(golden_pipeline):
    """The golden corpus never needs ``cosine``'s scalar rescaling path."""
    pipeline = golden_pipeline
    pipeline.prestige("text", "text")
    for query in ("immune repair process", "cell signaling"):
        pipeline.search(query, selection_strategy="representative", use_cache=False)
    counters = get_registry().snapshot()["counters"]
    assert counters.get("text.kernel.pairs", 0) > 0
    assert counters.get("text.kernel.fallbacks", 0) == 0


# -- text assignment on generated corpora ----------------------------------------------

#: Words the analyzer keeps as they are (no stop words, no stemming).
WORDS = ["zq" + a + b for a in "bcdfghjklm" for b in "bcdfghjklm"]


def assignment_inputs(bodies, training):
    """A corpus of one body per paper and a flat ontology of the training keys."""
    corpus = Corpus(
        [Paper(paper_id=pid, title="", body=body) for pid, body in bodies.items()]
    )
    terms = [Term("root", "process")] + [
        Term(term_id, f"context {term_id}", parent_ids=("root",))
        for term_id in training
    ]
    return corpus, Ontology(terms), PaperVectorStore(AnalyzedPaperCache(corpus))


def assert_assigner_matches_reference(corpus, ontology, vectors, training, threshold):
    paper_set = TextContextAssigner(
        corpus, ontology, vectors, similarity_threshold=threshold
    ).build(training)
    assert [
        (c.term_id, c.paper_ids, c.training_paper_ids, c.representative)
        for c in paper_set
    ] == reference_text_contexts(
        ReferenceVectors(vectors), corpus, ontology, training, threshold
    )
    return paper_set


@st.composite
def assignment_cases(draw):
    """Papers over a small vocabulary (some long, some empty), training
    lists per context (some naming unknown papers), and a threshold."""
    vocabulary = WORDS[: draw(st.integers(5, len(WORDS)))]
    bodies = {}
    for i in range(draw(st.integers(2, 12))):
        length = draw(st.sampled_from((0, 3, 12, 40, 90)))
        words = draw(st.lists(st.sampled_from(vocabulary), min_size=length, max_size=length))
        bodies[f"P{i:02d}"] = " ".join(words)
    paper_ids = sorted(bodies) + ["MISSING"]
    training = {
        f"t{j}": draw(st.lists(st.sampled_from(paper_ids), max_size=4))
        for j in range(draw(st.integers(1, 5)))
    }
    threshold = draw(
        st.one_of(
            st.sampled_from((0.05, 0.1, 0.18, 0.5, 1.0)),
            st.floats(min_value=1e-6, max_value=1.0),
        )
    )
    return bodies, training, threshold


@settings(max_examples=150, deadline=None)
@given(assignment_cases())
def test_assigner_equals_per_pair_reference(case):
    bodies, training, threshold = case
    corpus, ontology, vectors = assignment_inputs(bodies, training)
    assert_assigner_matches_reference(corpus, ontology, vectors, training, threshold)


def pruned_away_inputs():
    """``REP`` holds 31 heavy terms and 20 light ones, ``LIGHT`` only the
    light ones: no top-30 term of ``REP`` is in ``LIGHT``, yet their
    cosine is about 0.37."""
    heavy, light = WORDS[:31], WORDS[31:51]
    bodies = {
        "REP": " ".join(heavy * 2 + light),
        "LIGHT": " ".join(light),
        "OTHER": " ".join(WORDS[60:80]),
    }
    return assignment_inputs(bodies, {"t0": ["REP"]})


def test_a_paper_sharing_only_low_weight_terms_joins():
    corpus, ontology, vectors = pruned_away_inputs()
    rows = vectors.full_rows
    similarity = cosine_pairs(
        rows, vectors.paper_rows.rows(["LIGHT"]), rows, vectors.paper_rows.rows(["REP"])
    )[0]
    assert 0.3 < similarity < 0.4
    paper_set = assert_assigner_matches_reference(
        corpus, ontology, vectors, {"t0": ["REP"]}, 0.1
    )
    assert paper_set.context("t0").paper_ids == ("LIGHT", "REP")


def test_threshold_equal_to_an_exact_cosine():
    corpus, ontology, vectors = pruned_away_inputs()
    rows = vectors.full_rows
    similarity = float(
        cosine_pairs(
            rows, vectors.paper_rows.rows(["LIGHT"]), rows, vectors.paper_rows.rows(["REP"])
        )[0]
    )
    for threshold, members in (
        (similarity, ("LIGHT", "REP")),
        (math.nextafter(similarity, 1.0), ("REP",)),
        (math.nextafter(similarity, 0.0), ("LIGHT", "REP")),
    ):
        registry = get_registry()
        before = registry.snapshot()["counters"].get(
            "assignment.text.borderline_pairs", 0
        )
        paper_set = assert_assigner_matches_reference(
            corpus, ontology, vectors, {"t0": ["REP"]}, threshold
        )
        assert paper_set.context("t0").paper_ids == members
        after = registry.snapshot()["counters"]["assignment.text.borderline_pairs"]
        assert after - before >= 1  # LIGHT went back to cosine_pairs
