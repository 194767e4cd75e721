"""Stateful delta parity: any add/remove/replace sequence equals a scratch
build and the naive reference build.

A hypothesis ``RuleBasedStateMachine`` drives one small demo pipeline
through random corpus deltas -- adding held-out papers, removing papers,
and replacing a paper in one delta with changed references and text --
while every arm's prestige stays memoised, so each delta takes the
incremental paths (patched citation scores, cached pattern extractions,
patched coverage counts and middle hits).  A reopen rule persists the
workspace and carries on with a pipeline opened from it, whose pattern
memo is seeded from the persisted extractions, by a delta applied at
once or by the next pattern build.  After every step, every live index,
vector store, paper set and score table must hold the corpus's current
:class:`~repro.corpus.rows.PaperRows` object, with every row in range
(a -1 a remap left for a removed paper would name the last paper), and
no removed id among them; every kept coverage count and middle hit list
must equal a fresh count and scan of the corpus, the index must save
the bytes of a scratch build's, and every artifact's content -- index postings and
document frequencies, vectors, both paper sets, pattern sets and
extractions, and every evaluation arm's scores -- must equal, with
``==``, both a pipeline built from scratch on the same corpus and
:func:`reference.build.reference_build`.  The scratch build runs the
same array kernels as the incremental paths; the reference build runs
none of them, but shares the TF-IDF fit, the pattern builder's scalar
helpers and subgraph PageRank (``pagerank_arrays``) with both.
"""

import dataclasses
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from reference.build import pipeline_artifacts, reference_build
from repro.core.patterns import PatternSetBuilder
from repro.corpus.corpus import Corpus
from repro.datagen.corpus_gen import CorpusGenerator
from repro.datagen.ontology_gen import OntologyGenerator
from repro.index import save_index
from repro.pipeline import Pipeline
from repro.workspace import open_workspace

#: Papers held out of the starting corpus, available to add.
HELD_OUT = 6


@lru_cache(maxsize=1)
def _dataset():
    generator = CorpusGenerator(
        n_papers=40, ontology_generator=OntologyGenerator(n_terms=10, max_depth=6)
    )
    return generator.generate(seed=11)


def _hit_rows(memo, hits):
    """Paper id -> (section, position) rows of one middle's hits."""
    rows = {}
    columns = (hits.paper.tolist(), hits.section.tolist(), hits.position.tolist())
    for key, section, position in zip(*columns):
        rows.setdefault(memo.paper_ids[key], []).append((section, position))
    return rows


class DeltaParity(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        dataset = _dataset()
        papers = list(dataset.corpus)
        self.outside = {paper.paper_id: paper for paper in papers[-HELD_OUT:]}
        self.pipeline = Pipeline(
            Corpus(papers[:-HELD_OUT]), dataset.ontology, dataset.training_papers
        )
        self.workspace = Path(tempfile.mkdtemp(prefix="delta-parity-"))
        #: Ids removed and not added back since.
        self.gone = set()

    def teardown(self):
        shutil.rmtree(self.workspace, ignore_errors=True)

    def _apply(self, added=(), removed=()):
        for paper_id in removed:
            self.outside[paper_id] = self.pipeline.corpus.paper(paper_id)
            self.gone.add(paper_id)
        for paper in added:
            self.outside.pop(paper.paper_id, None)
            self.gone.discard(paper.paper_id)
        self.pipeline.substrates.apply_delta(added_papers=added, removed_ids=removed)

    @precondition(lambda self: self.outside)
    @rule(data=st.data())
    def add(self, data):
        pool = st.sampled_from(sorted(self.outside))
        ids = data.draw(st.lists(pool, min_size=1, max_size=2, unique=True))
        self._apply(added=[self.outside[pid] for pid in ids])

    @precondition(lambda self: len(self.pipeline.corpus) > 30)
    @rule(data=st.data())
    def remove(self, data):
        pool = st.sampled_from(self.pipeline.corpus.paper_ids())
        ids = data.draw(st.lists(pool, min_size=1, max_size=2, unique=True))
        self._apply(removed=ids)

    @rule(data=st.data(), retitle=st.booleans())
    def replace(self, data, retitle):
        """Remove and re-add one id in one delta with changed content."""
        self._replace(data, retitle)

    @rule(data=st.data(), then_replace=st.booleans(), retitle=st.booleans())
    def reopen(self, data, then_replace, retitle):
        """Persist the workspace and carry on with a pipeline opened from it."""
        pipeline = self.pipeline
        pipeline.build_workspace(self.workspace)
        self.pipeline = Pipeline(
            Corpus(list(pipeline.corpus)), pipeline.ontology, pipeline.training_papers
        )
        open_workspace(self.pipeline, self.workspace)
        if then_replace:
            self._replace(data, retitle)

    def _replace(self, data, retitle):
        paper_ids = self.pipeline.corpus.paper_ids()
        old = self.pipeline.corpus.paper(data.draw(st.sampled_from(paper_ids)))
        cited = data.draw(st.lists(st.sampled_from(paper_ids), max_size=3, unique=True))
        new = dataclasses.replace(
            old,
            references=tuple(pid for pid in cited if pid != old.paper_id),
            title=f"{old.body} {old.title}" if retitle else old.title,
        )
        self.pipeline.substrates.apply_delta(
            added_papers=[new], removed_ids=[old.paper_id]
        )

    @invariant()
    def arrays_hold_the_current_rows(self):
        store = self.pipeline.substrates
        paper_rows = store.corpus.paper_rows
        assert self.gone.isdisjoint(paper_rows.ids)
        columns = []
        if store.has("index"):
            assert store.index.paper_rows is paper_rows
            columns += [store.index.term_run(t).rows for t in store.index.vocabulary()]
        if store.has("vectors"):
            assert store.vectors.paper_rows is paper_rows
            for model in store.vectors._models.values():
                assert len(model.indptr) == len(model.rows.indptr) == len(paper_rows) + 1
        for name in ("text_paper_set", "pattern_paper_set"):
            if store.has(name):
                paper_set = store.paper_set(name.split("_")[0])
                assert paper_set.columns.paper_rows is paper_set.paper_rows is paper_rows
                columns.append(paper_set.columns.members)
        for scores in store.scores.values():
            assert scores.paper_rows is paper_rows
            columns += [rows.rows for rows in (scores.scores, scores.pre) if rows]
        graph = store._graph  # derived: None until a score function reads it
        if graph is not None:
            assert graph.paper_rows is paper_rows
            columns += [graph.out_targets, graph.in_sources]
        for rows in columns:
            assert ((rows >= 0) & (rows < len(paper_rows))).all()

    @invariant()
    def equals_scratch_and_reference_builds(self):
        pipeline = self.pipeline
        scratch = Pipeline(
            Corpus(list(pipeline.corpus)),
            pipeline.ontology,
            pipeline.training_papers,
        )
        # The rebuild this triggers adds entries but reuses the kept ones.
        memo = pipeline.pattern_assigner.pattern_builder.memo
        fresh = PatternSetBuilder(scratch.ontology, scratch.index, scratch.tokens)
        for middle, count in memo.coverage.items():
            assert count == len(fresh.papers_containing_all(middle)), middle
        fresh_hits = fresh.middle_hits(list(memo.hits))
        for middle, hits in memo.hits.items():
            assert _hit_rows(memo, hits) == _hit_rows(
                fresh.memo, fresh_hits[middle]
            ), middle
        with tempfile.TemporaryDirectory() as directory:
            saved = Path(directory) / "got.bin", Path(directory) / "scratch.bin"
            save_index(pipeline.index, saved[0])
            save_index(scratch.index, saved[1])
            assert saved[0].read_bytes() == saved[1].read_bytes()
        assert pipeline.index.vocabulary() == scratch.index.vocabulary()
        got = pipeline_artifacts(pipeline)
        for expected in (pipeline_artifacts(scratch), reference_build(pipeline)):
            assert list(got) == list(expected)
            for name, content in expected.items():
                assert got[name] == content, name


DeltaParity.TestCase.settings = settings(
    max_examples=6,
    stateful_step_count=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDeltaParity = DeltaParity.TestCase
