"""The bulk encoder equals the per-tuple encoder.

Every from-scratch mine encodes its relation in one bulk pass
(:func:`~repro.relation.transactions.encode_relation`); incremental
updates, the audit and the re-mine oracle encode one tuple at a time
(:func:`~repro.relation.transactions.encode_tuple`).  The two must be
interchangeable: on random relations with tombstones, with and without
a schema, and with generalization labels, the bulk pass yields
``encode_tuple``'s items (packed as a tuple of distinct ids) for every
live tid, ``()`` for every dead tid, a bitmap index over exactly those
transactions, and a vocabulary interned in the same order.
"""

from hypothesis import given, settings, strategies as st

from repro.mining.bitmap import BitmapIndex
from repro.mining.itemsets import ItemVocabulary
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.transactions import (
    TokenInterner,
    encode_relation,
    encode_tuple,
)

# Small alphabets so tokens repeat across tuples and columns.
value_strategy = st.sampled_from("abcde")
annotation_strategy = st.sampled_from(["A1", "A2", "A3", "A4"])
label_strategy = st.sampled_from(["L1", "L2", "L3"])


@st.composite
def relations(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    with_schema = draw(st.booleans())
    relation = AnnotatedRelation(
        Schema([f"c{position}" for position in range(arity)])
        if with_schema else None)
    rows = draw(st.lists(
        st.tuples(
            st.lists(value_strategy, min_size=arity, max_size=arity),
            st.frozensets(annotation_strategy, max_size=3),
            st.frozensets(label_strategy, max_size=2)),
        max_size=20))
    for values, annotations, labels in rows:
        tid = relation.insert(values, annotations)
        # The generalizer pass labels tuples exactly this way.
        relation.set_labels(tid, labels)
    if rows:
        dead = draw(st.sets(st.integers(min_value=0,
                                        max_value=len(rows) - 1)))
        for tid in sorted(dead):
            relation.delete(tid)
    return relation


@given(relation=relations(), include_labels=st.booleans())
@settings(max_examples=120, deadline=None)
def test_bulk_encoder_matches_encode_tuple(relation, include_labels):
    bulk_vocabulary = ItemVocabulary()
    encoded = encode_relation(relation, TokenInterner(bulk_vocabulary),
                              include_labels=include_labels)
    transactions = encoded.transactions
    tuple_vocabulary = ItemVocabulary()
    assert len(transactions) == relation.tid_range
    for tid, transaction in enumerate(transactions):
        assert isinstance(transaction, tuple), f"tid {tid}"
        assert len(set(transaction)) == len(transaction), f"tid {tid}"
        if relation.is_live(tid):
            assert frozenset(transaction) == encode_tuple(
                relation, tid, tuple_vocabulary,
                include_labels=include_labels), f"tid {tid}"
        else:
            assert transaction == (), f"dead tid {tid}"
    assert list(bulk_vocabulary) == list(tuple_vocabulary)
    # The bitmaps the same pass emitted index exactly those transactions.
    rebuilt = BitmapIndex.from_transactions(transactions)
    assert encoded.bitmaps.items() == rebuilt.items()
    assert all(encoded.bitmaps.bits(item) == rebuilt.bits(item)
               for item in rebuilt.items())
