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

    def test_schema_value_in_two_columns_is_two_items(self):
        relation = AnnotatedRelation(Schema(("a", "b")))
        relation.insert(("x", "x"), ("A",))
        relation.insert(("x", "y"))
        vocabulary = ItemVocabulary()
        encoded = encode_relation(relation, TokenInterner(vocabulary))
        assert [vocabulary.item(item).token
                for item in encoded.transactions[0]] == ["a=x", "b=x", "A"]
        assert encoded.transactions[1][0] == encoded.transactions[0][0]
        assert encoded.bitmaps.count(encoded.transactions[0][:2]) == 1

    def test_repeated_schemaless_value_matches_encode_tuple(self):
        relation = AnnotatedRelation()
        relation.insert(("2", "1", "2", "1"), ("A",))
        bulk, single = ItemVocabulary(), ItemVocabulary()
        encoded = encode_relation(relation, TokenInterner(bulk))
        assert encoded.transactions[0] == (0, 1, 2)
        assert frozenset(encoded.transactions[0]) == encode_tuple(
            relation, 0, single)
        assert list(bulk) == list(single)

    def test_one_interner_across_two_schemas(self):
        """Shards share one interner; relations with different schemas
        must not share per-column caches."""
        first = AnnotatedRelation(Schema(("a", "b")))
        first.insert(("x", "y"))
        second = AnnotatedRelation(Schema(("c", "a")))
        second.insert(("x", "y"))
        interner = TokenInterner(ItemVocabulary())
        bulk = [encode_relation(relation, interner).transactions[0]
                for relation in (first, second)]
        single_vocabulary = ItemVocabulary()
        single = [encode_tuple(relation, 0, single_vocabulary)
                  for relation in (first, second)]
        assert list(map(frozenset, bulk)) == single
        assert list(interner.vocabulary) == list(single_vocabulary)

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
