"""Unit tests for GAF parsing."""

import io

from repro.ingest.gaf import EXPERIMENTAL_EVIDENCE_CODES, read_gaf_training_map

SAMPLE_GAF = """!gaf-version: 2.2
!generated-by: test
UniProtKB\tP00001\tGENE1\t\tGO:0003700\tPMID:100|GO_REF:0000033\tIDA\t\tF\t\t\tprotein\ttaxon:9606\t20200101\tUniProt\t\t
UniProtKB\tP00002\tGENE2\t\tGO:0003700\tPMID:200\tIEA\t\tF\t\t\tprotein\ttaxon:9606\t20200101\tUniProt\t\t
UniProtKB\tP00003\tGENE3\t\tGO:0006355\tPMID:300\tIMP\t\tP\t\t\tprotein\ttaxon:9606\t20200101\tUniProt\t\t
UniProtKB\tP00004\tGENE4\t\tGO:0006355\tPMID:100\tEXP\t\tP\t\t\tprotein\ttaxon:9606\t20200101\tUniProt\t\t
UniProtKB\tP00005\tGENE5\t\tGO:0006355\tPMID:100\tIDA\t\tP\t\t\tprotein\ttaxon:9606\t20200101\tUniProt\t\t
short\trow
"""


class TestReadGafTrainingMap:
    def test_experimental_rows_kept(self):
        training = read_gaf_training_map(io.StringIO(SAMPLE_GAF))
        assert training["GO:0003700"] == ["PMID:100"]
        assert training["GO:0006355"] == ["PMID:300", "PMID:100"]

    def test_iea_filtered_by_default(self):
        training = read_gaf_training_map(io.StringIO(SAMPLE_GAF))
        assert "PMID:200" not in training.get("GO:0003700", [])

    def test_custom_evidence_codes(self):
        training = read_gaf_training_map(
            io.StringIO(SAMPLE_GAF), evidence_codes={"IEA"}
        )
        assert training == {"GO:0003700": ["PMID:200"]}

    def test_duplicate_pmid_per_term_deduplicated(self):
        training = read_gaf_training_map(io.StringIO(SAMPLE_GAF))
        # PMID:100 appears twice for GO:0006355 (EXP and IDA rows).
        assert training["GO:0006355"].count("PMID:100") == 1

    def test_restrict_to_corpus_ids(self):
        training = read_gaf_training_map(
            io.StringIO(SAMPLE_GAF),
            restrict_to_paper_ids={"PMID:100"},
        )
        assert training == {
            "GO:0003700": ["PMID:100"],
            "GO:0006355": ["PMID:100"],
        }

    def test_max_papers_per_term(self):
        training = read_gaf_training_map(
            io.StringIO(SAMPLE_GAF), max_papers_per_term=1
        )
        assert training["GO:0006355"] == ["PMID:300"]

    def test_non_pmid_references_ignored(self):
        training = read_gaf_training_map(io.StringIO(SAMPLE_GAF))
        for papers in training.values():
            assert all(pid.startswith("PMID:") for pid in papers)

    def test_malformed_rows_skipped(self):
        # The 'short\trow' line must not raise.
        read_gaf_training_map(io.StringIO(SAMPLE_GAF))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "annotations.gaf"
        path.write_text(SAMPLE_GAF, encoding="utf-8")
        training = read_gaf_training_map(str(path))
        assert "GO:0003700" in training

    def test_evidence_code_set_sane(self):
        assert "IDA" in EXPERIMENTAL_EVIDENCE_CODES
        assert "IEA" not in EXPERIMENTAL_EVIDENCE_CODES


class TestEndToEndIngest:
    def test_medline_plus_gaf_feed_pipeline(self):
        """The full real-data path: XML + GAF -> Pipeline -> search."""
        from repro.ingest.medline import read_medline_xml
        from repro.ontology import Ontology
        from repro.ontology.term import Term
        from repro.pipeline import Pipeline

        xml = """<?xml version="1.0"?>
        <PubmedArticleSet>
          <PubmedArticle><MedlineCitation><PMID>100</PMID>
            <Article><ArticleTitle>transcription factor binding</ArticleTitle>
            <Abstract><AbstractText>dna binding transcription factor activity assays</AbstractText></Abstract>
            </Article></MedlineCitation></PubmedArticle>
          <PubmedArticle><MedlineCitation><PMID>300</PMID>
            <Article><ArticleTitle>regulation of transcription</ArticleTitle>
            <Abstract><AbstractText>transcription regulation experiments and analysis</AbstractText></Abstract>
            </Article></MedlineCitation></PubmedArticle>
        </PubmedArticleSet>"""
        corpus = read_medline_xml(io.StringIO(xml))
        ontology = Ontology(
            [
                Term("GO:0003674", "molecular function"),
                Term(
                    "GO:0003700",
                    "dna binding transcription factor activity",
                    parent_ids=("GO:0003674",),
                ),
                Term(
                    "GO:0006355",
                    "regulation of transcription",
                    parent_ids=("GO:0003674",),
                ),
            ]
        )
        training = read_gaf_training_map(
            io.StringIO(SAMPLE_GAF), restrict_to_paper_ids=corpus.paper_ids()
        )
        pipeline = Pipeline(
            corpus=corpus,
            ontology=ontology,
            training_papers=training,
            min_context_size=1,
        )
        hits = pipeline.search("transcription factor")
        assert hits
        assert hits[0].paper_id in {"PMID:100", "PMID:300"}
