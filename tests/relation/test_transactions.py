"""Unit tests for relation -> transaction encoding."""

from repro.mining.bitmap import tids_from_bits
from repro.mining.itemsets import ItemKind, ItemVocabulary
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.transactions import (
    TokenInterner,
    annotation_item_ids,
    encode_relation,
    encode_tuple,
)


def build_relation():
    relation = AnnotatedRelation()
    relation.insert(("1", "2"), ("A",))
    relation.insert(("3", "4"))
    return relation


class TestEncodeTuple:
    def test_data_and_annotations(self):
        relation = build_relation()
        vocabulary = ItemVocabulary()
        transaction = encode_tuple(relation, 0, vocabulary)
        tokens = {vocabulary.item(item).token for item in transaction}
        assert tokens == {"1", "2", "A"}

    def test_labels_included_by_default(self):
        relation = build_relation()
        relation.set_labels(0, {"L"})
        vocabulary = ItemVocabulary()
        transaction = encode_tuple(relation, 0, vocabulary)
        kinds = {vocabulary.item(item).kind for item in transaction}
        assert ItemKind.LABEL in kinds

    def test_labels_can_be_excluded(self):
        relation = build_relation()
        relation.set_labels(0, {"L"})
        vocabulary = ItemVocabulary()
        transaction = encode_tuple(relation, 0, vocabulary,
                                   include_labels=False)
        kinds = {vocabulary.item(item).kind for item in transaction}
        assert ItemKind.LABEL not in kinds

    def test_schema_qualified_tokens(self):
        relation = AnnotatedRelation(Schema(["x", "y"]))
        relation.insert(("1", "1"))
        vocabulary = ItemVocabulary()
        transaction = encode_tuple(relation, 0, vocabulary)
        tokens = {vocabulary.item(item).token for item in transaction}
        assert tokens == {"x=1", "y=1"}
        assert len(transaction) == 2  # same value, distinct items

    def test_column_annotations_opt_in(self):
        relation = AnnotatedRelation(Schema(["x", "y"]))
        relation.insert(("1", "2"))
        relation.annotate_column(0, "Annot_col")
        vocabulary = ItemVocabulary()
        default = encode_tuple(relation, 0, vocabulary)
        tokens = {vocabulary.item(item).token for item in default}
        assert "Annot_col" not in tokens
        included = encode_tuple(relation, 0, vocabulary,
                                include_column_annotations=True)
        tokens = {vocabulary.item(item).token for item in included}
        assert "Annot_col" in tokens


class TestEncodeRelation:
    def test_tid_alignment(self):
        relation = build_relation()
        vocabulary = ItemVocabulary()
        transactions = encode_relation(
            relation, TokenInterner(vocabulary)).transactions
        assert len(transactions) == 2
        tokens_0 = {vocabulary.item(item).token for item in transactions[0]}
        assert tokens_0 == {"1", "2", "A"}

    def test_tombstones_encode_empty(self):
        relation = build_relation()
        relation.delete(0)
        encoded = encode_relation(relation, TokenInterner(ItemVocabulary()))
        assert encoded.transactions[0] == ()
        assert encoded.transactions[1] != ()
        assert all(not encoded.bitmaps.bits(item) & 1
                   for item in encoded.bitmaps.items())

    def test_existing_vocabulary_reused(self):
        relation = build_relation()
        vocabulary = ItemVocabulary()
        pre_interned = vocabulary.intern_data("1")
        transactions = encode_relation(
            relation, TokenInterner(vocabulary)).transactions
        assert pre_interned in transactions[0]

    def test_labels_can_be_excluded(self):
        relation = build_relation()
        relation.set_labels(0, {"L"})
        vocabulary = ItemVocabulary()
        transactions = encode_relation(relation, TokenInterner(vocabulary),
                                       include_labels=False).transactions
        assert {vocabulary.item(item).token
                for item in transactions[0]} == {"1", "2", "A"}

    def test_repeated_values_pack_once(self):
        relation = AnnotatedRelation()
        relation.insert(("1", "1", "2"), ("A",))
        encoded = encode_relation(relation, TokenInterner(ItemVocabulary()))
        assert len(encoded.transactions[0]) == 3
        assert encoded.bitmaps.count(encoded.transactions[0]) == 1

    def test_bitmaps_index_the_transactions(self):
        relation = build_relation()
        relation.insert(("1", "4"), ("A", "B"))
        encoded = encode_relation(relation, TokenInterner(ItemVocabulary()))
        for item in encoded.bitmaps.items():
            assert tids_from_bits(encoded.bitmaps.bits(item)) == [
                tid for tid, transaction in enumerate(encoded.transactions)
                if item in transaction]

    def test_annotations_and_labels_intern_in_sorted_order(self):
        relation = AnnotatedRelation()
        relation.insert(("1",), ("Annot_b", "Annot_c", "Annot_a"))
        relation.set_labels(0, {"L2", "L1"})
        for encode in (
                lambda vocabulary: encode_tuple(relation, 0, vocabulary),
                lambda vocabulary: encode_relation(
                    relation, TokenInterner(vocabulary))):
            vocabulary = ItemVocabulary()
            encode(vocabulary)
            assert [item.token for item in vocabulary] == [
                "1", "Annot_a", "Annot_b", "Annot_c", "L1", "L2"]


class TestAnnotationItemIds:
    def test_returns_annotation_ids_only(self):
        relation = build_relation()
        vocabulary = ItemVocabulary()
        ids = annotation_item_ids(relation, vocabulary, 0)
        assert {vocabulary.item(item).token for item in ids} == {"A"}
        assert all(vocabulary.is_annotation_like(item) for item in ids)
