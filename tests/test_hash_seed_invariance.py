"""Regression test: results must not depend on PYTHONHASHSEED.

Python randomises string hashing per process; any code path that lets a
set's iteration order influence results (rather than just performance)
produces run-to-run drift.  This test runs the core pipeline in two
subprocesses with different hash seeds and requires identical artefacts.

This guards against the class of bug fixed twice during development: the
topic model iterating ``ontology.ancestors()`` (chunk order changed which
chunk each RNG draw selected), and AC citation expansion breaking
PageRank ties by set order.
"""

import os
import subprocess
import sys

import pytest

_PROBE = """
import hashlib, json
from repro.datagen import CorpusGenerator, OntologyGenerator, generate_queries
from repro.eval.ac_answer import ACAnswerBuilder
from repro.pipeline import Pipeline

gen = CorpusGenerator(
    n_papers=150,
    ontology_generator=OntologyGenerator(n_terms=40, max_depth=5),
)
ds = gen.generate(seed=13)
pipeline = Pipeline.from_dataset(ds, min_context_size=3)
builder = ACAnswerBuilder(
    pipeline.keyword_engine, pipeline.vectors, pipeline.citation_graph
)
queries = [w.query for w in generate_queries(ds, n_queries=3, seed=2)]
engine = pipeline.search_engine("text", "text")
artefacts = {
    "corpus": [p.to_dict() for p in ds.corpus],
    "text_set": {c.term_id: list(c.paper_ids) for c in pipeline.text_paper_set},
    "pattern_set": {
        c.term_id: list(c.paper_ids) for c in pipeline.pattern_paper_set
    },
    "scores": {
        c: {k: round(v, 12) for k, v in pipeline.prestige("text", "text").of(c).items()}
        for c in pipeline.prestige("text", "text").context_ids()
    },
    # Unrounded, in key order: the exact floats a workspace stores.
    "citation_text": {
        c: list(pipeline.prestige("citation", "text").of(c).items())
        for c in pipeline.prestige("citation", "text").context_ids()
    },
    "ac": {q: sorted(builder.build(q).papers) for q in queries},
    "search": {
        q: [(h.paper_id, round(h.relevancy, 12)) for h in engine.search(q)]
        for q in queries
    },
}
digest = hashlib.md5(
    json.dumps(artefacts, sort_keys=True).encode()
).hexdigest()
print(digest)
"""


#: PageRank of contexts holding papers the citation graph lacks: they
#: join the subgraph as isolated nodes, whose order reaches the scores.
_ABSENT_PROBE = """
from repro.citations.graph import CitationGraph
from repro.citations.pagerank import pagerank
from repro.core.context import Context
from repro.scoring.citation import CitationPrestige

graph = CitationGraph(edges=[("A", "B"), ("C", "B"), ("B", "D")])
members = ("Q7", "B", "absent-x", "A", "Z0", "Q7", "m12", "D")
print(list(pagerank(graph.subgraph(members)).scores.items()))
print(CitationPrestige(graph).score_context(Context("T", members)))
"""


def _run_under_hash_seeds(probe):
    outputs = []
    for hash_seed in ("1", "987654321"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        outputs.append(result.stdout.strip())
    return outputs


def test_absent_members_pagerank_invariant_to_hash_seed():
    outputs = _run_under_hash_seeds(_ABSENT_PROBE)
    assert outputs[0] == outputs[1]


@pytest.mark.slow
def test_results_invariant_to_hash_seed():
    digests = _run_under_hash_seeds(_PROBE)
    assert digests[0] == digests[1], (
        "pipeline artefacts drift with PYTHONHASHSEED: a set's iteration "
        "order is leaking into results somewhere"
    )
