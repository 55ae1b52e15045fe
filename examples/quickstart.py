"""Quickstart: discover and incrementally maintain annotation rules.

Builds a small annotated relation, configures a correlation engine
with an ``EngineConfig``, mines data-to-annotation and
annotation-to-annotation rules, applies each of the paper's three
update cases incrementally, and verifies the maintained rule set
against a full re-mine — then checks the initial mine against the
paper's hash-tree Apriori.

Run with:  python examples/quickstart.py
"""

import repro
from repro import AnnotatedRelation, CorrelationEngine, EngineConfig, RuleKind

ROWS = [
    # (data values, annotations) — Figure 4 style, opaque value ids.
    (("28", "85", "17"), ("Annot_4", "Annot_5")),
    (("28", "85", "17"), ("Annot_1", "Annot_4")),
    (("28", "85", "3"), ("Annot_1",)),
    (("28", "85", "3"), ("Annot_1", "Annot_4")),
    (("41", "12", "17"), ("Annot_5",)),
    (("41", "12", "3"), ()),
    (("28", "85", "9"), ("Annot_1",)),
    (("41", "85", "9"), ()),
]


def build_relation() -> AnnotatedRelation:
    relation = AnnotatedRelation()
    for values, annotations in ROWS:
        relation.insert(values, annotations)
    return relation


def print_rules(engine: CorrelationEngine) -> None:
    for kind in (RuleKind.DATA_TO_ANNOTATION,
                 RuleKind.ANNOTATION_TO_ANNOTATION):
        print(f"  {kind.value}:")
        for rule in engine.rules.sorted_rules():
            if rule.kind is kind:
                print(f"    {rule.render(engine.vocabulary)}")


def main() -> None:
    config = EngineConfig(min_support=0.25, min_confidence=0.6)
    engine = CorrelationEngine(build_relation(), config)
    report = engine.mine()
    print(f"Mined {len(engine.rules)} rules from {engine.db_size} tuples "
          f"in {report.duration_seconds * 1000:.1f} ms")
    print_rules(engine)

    print("\nCase 3 — add annotations to existing tuples (the δ batch):")
    report = engine.add_annotations([(5, "Annot_1"), (7, "Annot_1")])
    print(f"  {report.summary()}")

    print("Case 1 — add annotated tuples:")
    report = engine.insert_annotated([(("28", "85", "9"), ("Annot_1",))])
    print(f"  {report.summary()}")

    print("Case 2 — add un-annotated tuples:")
    report = engine.insert_unannotated([("41", "12", "9")])
    print(f"  {report.summary()}")

    verification = engine.verify_against_remine()
    print(f"\nIncremental == full re-mine: {verification.equivalent} "
          f"({verification.explain()})")
    print("\nFinal rules:")
    print_rules(engine)

    print("\nThe engine's mine() and the paper's hash-tree Apriori agree:")
    fresh = repro.engine(build_relation(), config)
    fresh.mine()
    paper = repro.remine(build_relation(), min_support=config.min_support,
                         min_confidence=config.min_confidence)
    print(f"  mine() -> {len(fresh.rules)} rules, remine -> "
          f"{len(paper.rules)} rules, identical: "
          f"{fresh.signature() == paper.signature()}")


if __name__ == "__main__":
    main()
