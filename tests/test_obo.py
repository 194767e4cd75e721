"""Unit tests for the OBO reader/writer."""

import io

from repro.ontology.obo import read_obo, write_obo
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term

SAMPLE_OBO = """format-version: 1.2
ontology: go-test

[Term]
id: GO:0008150
name: biological_process
namespace: biological_process

[Term]
id: GO:0008152
name: metabolic process
namespace: biological_process
is_a: GO:0008150 ! biological_process

[Term]
id: GO:0009987
name: cellular process
namespace: biological_process
is_a: GO:0008150 ! biological_process

[Term]
id: GO:0044237
name: cellular metabolic process
namespace: biological_process
is_a: GO:0008152 ! metabolic process
is_a: GO:0009987 ! cellular process

[Term]
id: GO:9999999
name: withdrawn thing
is_obsolete: true
is_a: GO:0008150

[Typedef]
id: part_of
name: part of
"""


class TestReadObo:
    def test_parses_terms(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO))
        assert len(onto) == 4
        assert onto.term("GO:0008152").name == "metabolic process"

    def test_is_a_edges(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO))
        assert set(onto.parents("GO:0044237")) == {"GO:0008152", "GO:0009987"}
        assert onto.roots == ["GO:0008150"]

    def test_obsolete_skipped_by_default(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO))
        assert "GO:9999999" not in onto

    def test_obsolete_kept_when_requested(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO), skip_obsolete=False)
        assert "GO:9999999" in onto

    def test_trailing_comment_stripped(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO))
        assert "GO:0008150" in onto.parents("GO:0008152")

    def test_namespace_parsed(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO))
        assert onto.term("GO:0008150").namespace == "biological_process"

    def test_typedef_stanza_ignored(self):
        onto = read_obo(io.StringIO(SAMPLE_OBO))
        assert "part_of" not in onto

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "sample.obo"
        path.write_text(SAMPLE_OBO, encoding="utf-8")
        onto = read_obo(path)
        assert len(onto) == 4

    def test_dangling_is_a_dropped(self):
        text = (
            "[Term]\nid: A\nname: a\n\n"
            "[Term]\nid: B\nname: b\nis_a: MISSING\nis_a: A\n"
        )
        onto = read_obo(io.StringIO(text))
        assert onto.parents("B") == ["A"]


class TestWriteObo:
    def test_round_trip(self, tmp_path):
        original = Ontology(
            [
                Term("T:1", "root thing", namespace="test"),
                Term("T:2", "child thing", namespace="test", parent_ids=("T:1",)),
            ]
        )
        path = tmp_path / "out.obo"
        write_obo(original, path)
        loaded = read_obo(path)
        assert len(loaded) == 2
        assert loaded.term("T:2").name == "child thing"
        assert loaded.parents("T:2") == ["T:1"]
        assert loaded.term("T:1").namespace == "test"

    def test_write_to_handle(self):
        onto = Ontology([Term("T:1", "solo")])
        buffer = io.StringIO()
        write_obo(onto, buffer)
        assert "id: T:1" in buffer.getvalue()
