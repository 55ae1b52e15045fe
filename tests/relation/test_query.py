"""Unit tests for the annotation-propagating query operators."""

import pytest

from repro.errors import SchemaError
from repro.relation.query import join, project, select, union
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.tuples import AnnotationAnchor


@pytest.fixture
def genes():
    relation = AnnotatedRelation(Schema(["gene", "tissue"]),
                                 name="genes")
    t0 = relation.insert(("BRCA1", "breast"), ("Annot_flag",))
    relation.annotate(t0, "Annot_cell", AnnotationAnchor.cell(1))
    relation.insert(("TP53", "lung"), ("Annot_ref",))
    relation.insert(("BRCA1", "lung"))
    relation.set_labels(0, {"QualityIssue"})
    return relation


class TestSelect:
    def test_keeps_matching_tuples_with_annotations(self, genes):
        result = select(genes, lambda row: row[0] == "BRCA1")
        assert len(result) == 2
        assert result.relation.tuple(0).annotation_ids \
            == {"Annot_flag", "Annot_cell"}
        assert result.relation.tuple(0).labels == {"QualityIssue"}

    def test_provenance(self, genes):
        result = select(genes, lambda row: row[1] == "lung")
        assert result.provenance == ((1,), (2,))

    def test_does_not_mutate_input(self, genes):
        version = genes.version
        select(genes, lambda row: True)
        assert genes.version == version

    def test_empty_result(self, genes):
        result = select(genes, lambda row: False)
        assert len(result) == 0
        assert result.provenance == ()


class TestProject:
    def test_row_annotations_survive(self, genes):
        result = project(genes, [0])
        assert "Annot_flag" in result.relation.tuple(0).annotation_ids

    def test_cell_annotations_follow_their_column(self, genes):
        kept = project(genes, [1])  # the annotated cell's column
        assert "Annot_cell" in kept.relation.tuple(0).annotation_ids
        anchor = kept.relation.tuple(0).anchor("Annot_cell")
        assert anchor.column == 0  # re-anchored to the new position
        dropped = project(genes, [0])  # cell's column projected away
        assert "Annot_cell" not in dropped.relation.tuple(0).annotation_ids

    def test_schema_renamed(self, genes):
        result = project(genes, [1])
        assert result.relation.schema.attributes[0].name == "tissue"

    def test_distinct_merges_annotations(self, genes):
        result = project(genes, [0], distinct=True)
        assert len(result) == 2  # BRCA1, TP53
        brca_tid = next(row.tid for row in result.relation
                        if row.values == ("BRCA1",))
        # Both BRCA1 tuples merged; provenance records both sources.
        assert set(result.provenance[brca_tid]) == {0, 2}

    def test_bad_column_rejected(self, genes):
        with pytest.raises(SchemaError):
            project(genes, [7])
        with pytest.raises(SchemaError):
            project(genes, [])


class TestJoin:
    def test_equi_join_unions_annotations(self, genes):
        experiments = AnnotatedRelation(Schema(["gene", "result"]),
                                        name="experiments")
        experiments.insert(("BRCA1", "positive"), ("Annot_exp",))
        result = join(genes, experiments, on=(0, 0))
        assert len(result) == 2  # two BRCA1 gene tuples x one experiment
        for row in result.relation:
            assert "Annot_exp" in row.annotation_ids
        flagged = result.relation.tuple(0)
        assert "Annot_flag" in flagged.annotation_ids

    def test_right_cell_anchor_shifted(self, genes):
        experiments = AnnotatedRelation(Schema(["gene", "result"]))
        tid = experiments.insert(("BRCA1", "positive"))
        experiments.annotate(tid, "Annot_cell_r", AnnotationAnchor.cell(1))
        result = join(genes, experiments, on=(0, 0))
        anchor = result.relation.tuple(0).anchor("Annot_cell_r")
        assert anchor.column == 3  # 1 + left arity (2)

    def test_join_schema_dedupes_names(self, genes):
        experiments = AnnotatedRelation(Schema(["gene", "tissue"]))
        experiments.insert(("BRCA1", "breast"))
        result = join(genes, experiments, on=(0, 0))
        names = [attribute.name
                 for attribute in result.relation.schema.attributes]
        assert len(set(names)) == 4

    def test_provenance_pairs(self, genes):
        experiments = AnnotatedRelation(Schema(["gene", "result"]))
        experiments.insert(("TP53", "negative"))
        result = join(genes, experiments, on=(0, 0))
        assert result.provenance == ((1, 0),)


class TestUnion:
    def test_distinct_merges_duplicate_rows(self, genes):
        other = AnnotatedRelation(Schema(["gene", "tissue"]))
        other.insert(("BRCA1", "breast"), ("Annot_other",))
        result = union(genes, other)
        assert len(result) == 3  # BRCA1/breast merged
        merged = next(row for row in result.relation
                      if row.values == ("BRCA1", "breast"))
        assert {"Annot_flag", "Annot_other"} <= merged.annotation_ids

    def test_bag_union_keeps_duplicates(self, genes):
        other = AnnotatedRelation(Schema(["gene", "tissue"]))
        other.insert(("BRCA1", "breast"))
        result = union(genes, other, distinct=False)
        assert len(result) == 4

    def test_mismatched_schemas_rejected(self, genes):
        other = AnnotatedRelation(Schema(["x"]))
        other.insert(("1",))
        with pytest.raises(SchemaError):
            union(genes, other)


class TestComposition:
    def test_query_output_is_minable(self, genes):
        """Query results are ordinary annotated relations — they feed
        straight into the rule manager (annotations survived the query,
        so correlations can be mined on views)."""
        from repro.core.engine import CorrelationEngine

        view = select(genes, lambda row: True).relation
        manager = CorrelationEngine(view, min_support=0.1,
                                    min_confidence=0.5)
        manager.mine()
        assert manager.verify_against_remine().equivalent
