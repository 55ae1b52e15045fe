"""Planted-rule synthetic workload generator.

The paper evaluates on a private ~8000-line dataset of opaque value ids
(its Figure 4) whose "association rules would be the same regardless" of
the true values.  This generator produces datasets with the same shape
and *known ground truth*: data-to-annotation and annotation-to-annotation
rules are planted with target support and confidence, on top of
background value distributions and noise annotations.  Everything is
driven by a seeded :class:`random.Random`, so every workload in the
benchmark suite is exactly reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import MiningError
from repro.relation.relation import AnnotatedRelation


@dataclass(frozen=True, slots=True)
class PlantedD2A:
    """A data-to-annotation rule to plant.

    ``pattern`` maps column index -> forced value index.  A fraction
    ``pattern_rate`` of tuples receives the pattern; each of those
    carries ``annotation`` with probability ``confidence``.  The planted
    rule's expected support is therefore ``pattern_rate * confidence``.
    """

    pattern: tuple[tuple[int, int], ...]
    annotation: str
    pattern_rate: float
    confidence: float

    def __post_init__(self) -> None:
        if not self.pattern:
            raise MiningError("planted D2A rule needs a non-empty pattern")
        if not 0.0 < self.pattern_rate <= 1.0:
            raise MiningError(
                f"pattern_rate must be in (0, 1], got {self.pattern_rate}")
        if not 0.0 < self.confidence <= 1.0:
            raise MiningError(
                f"confidence must be in (0, 1], got {self.confidence}")

    @property
    def expected_support(self) -> float:
        return self.pattern_rate * self.confidence


@dataclass(frozen=True, slots=True)
class PlantedA2A:
    """An annotation-to-annotation rule to plant.

    Whenever every annotation of ``lhs`` ended up on a tuple, the tuple
    additionally receives ``rhs`` with probability ``confidence``.
    """

    lhs: tuple[str, ...]
    rhs: str
    confidence: float

    def __post_init__(self) -> None:
        if not self.lhs:
            raise MiningError("planted A2A rule needs a non-empty LHS")
        if self.rhs in self.lhs:
            raise MiningError(f"A2A RHS {self.rhs!r} also in the LHS")
        if not 0.0 < self.confidence <= 1.0:
            raise MiningError(
                f"confidence must be in (0, 1], got {self.confidence}")


@dataclass(frozen=True)
class SyntheticConfig:
    """Full description of a synthetic annotated database."""

    n_tuples: int
    n_columns: int = 6
    values_per_column: int = 40
    #: Zipf-ish skew: value v in a column has weight ``1 / (v + 1) ** skew``.
    skew: float = 1.1
    planted_d2a: tuple[PlantedD2A, ...] = ()
    planted_a2a: tuple[PlantedA2A, ...] = ()
    #: Pool of noise annotations sprinkled independently of the data.
    noise_annotations: int = 4
    noise_rate: float = 0.03
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_tuples < 1:
            raise MiningError(f"n_tuples must be >= 1, got {self.n_tuples}")
        if self.n_columns < 1:
            raise MiningError(f"n_columns must be >= 1, got {self.n_columns}")
        if self.values_per_column < 2:
            raise MiningError("values_per_column must be >= 2")
        for rule in self.planted_d2a:
            for column, value in rule.pattern:
                if not 0 <= column < self.n_columns:
                    raise MiningError(
                        f"planted pattern column {column} outside schema")
                if not 0 <= value < self.values_per_column:
                    raise MiningError(
                        f"planted pattern value {value} outside domain")


def value_token(column: int, value: int) -> str:
    """The opaque token for value index ``value`` of column ``column``."""
    return f"c{column}v{value}"


def noise_annotation_id(index: int) -> str:
    return f"Annot_N{index}"


@dataclass
class GroundTruth:
    """What was planted, kept for recall/precision scoring (E7)."""

    d2a: tuple[PlantedD2A, ...]
    a2a: tuple[PlantedA2A, ...]
    #: tids that carry each planted D2A pattern (with or without the
    #: annotation) — the denominator of the rule's true confidence.
    pattern_tids: dict[int, set[int]] = field(default_factory=dict)
    #: tids where the planted annotation was actually attached.
    annotated_tids: dict[int, set[int]] = field(default_factory=dict)


def generate(config: SyntheticConfig) -> tuple[AnnotatedRelation, GroundTruth]:
    """Build the relation and its ground truth."""
    rng = random.Random(config.seed)
    weights = [1.0 / (value + 1) ** config.skew
               for value in range(config.values_per_column)]
    truth = GroundTruth(d2a=config.planted_d2a, a2a=config.planted_a2a)
    for rule_index in range(len(config.planted_d2a)):
        truth.pattern_tids[rule_index] = set()
        truth.annotated_tids[rule_index] = set()

    relation = AnnotatedRelation()
    for tid in range(config.n_tuples):
        values = [rng.choices(range(config.values_per_column),
                              weights=weights)[0]
                  for _ in range(config.n_columns)]
        annotations: set[str] = set()
        for rule_index, rule in enumerate(config.planted_d2a):
            if rng.random() < rule.pattern_rate:
                for column, value in rule.pattern:
                    values[column] = value
                truth.pattern_tids[rule_index].add(tid)
                if rng.random() < rule.confidence:
                    annotations.add(rule.annotation)
                    truth.annotated_tids[rule_index].add(tid)
        for rule in config.planted_a2a:
            if all(annotation in annotations for annotation in rule.lhs):
                if rng.random() < rule.confidence:
                    annotations.add(rule.rhs)
        for noise_index in range(config.noise_annotations):
            if rng.random() < config.noise_rate:
                annotations.add(noise_annotation_id(noise_index))
        tokens = [value_token(column, value)
                  for column, value in enumerate(values)]
        relation.insert(tokens, sorted(annotations))  # hash-seed free
    return relation, truth


def generate_annotation_batch(relation: AnnotatedRelation,
                              *,
                              size: int,
                              seed: int,
                              annotation_pool: Sequence[str] | None = None
                              ) -> list[tuple[int, str]]:
    """A Case 3 δ batch: ``size`` random (tid, annotation) pairs.

    Pairs always target live tuples and annotations the tuple does not
    already carry; annotations come from the relation's registry unless
    a pool is supplied.  Returns fewer pairs only if the database is
    saturated.
    """
    rng = random.Random(seed)
    if annotation_pool is None:
        annotation_pool = sorted(
            annotation.annotation_id for annotation in relation.registry)
    if not annotation_pool:
        raise MiningError("no annotations available for a δ batch")
    live_tids = list(relation.tids())
    batch: list[tuple[int, str]] = []
    seen: set[tuple[int, str]] = set()
    attempts = 0
    while len(batch) < size and attempts < size * 50:
        attempts += 1
        tid = rng.choice(live_tids)
        annotation_id = rng.choice(list(annotation_pool))
        pair = (tid, annotation_id)
        if pair in seen:
            continue
        if relation.tuple(tid).has_annotation(annotation_id):
            continue
        seen.add(pair)
        batch.append(pair)
    return batch


def hide_annotations(relation: AnnotatedRelation,
                     *,
                     fraction: float,
                     seed: int) -> list[tuple[int, str]]:
    """Remove a random fraction of (tuple, annotation) attachments.

    Returns the hidden pairs — the ground truth for the exploitation
    experiment (predicting missing annotations, paper section 5).
    The relation is mutated in place; callers typically copy first.
    """
    if not 0.0 < fraction < 1.0:
        raise MiningError(f"fraction must be in (0, 1), got {fraction}")
    rng = random.Random(seed)
    pairs = [(row.tid, annotation_id)
             for row in relation
             for annotation_id in sorted(row.annotation_ids)]
    rng.shuffle(pairs)
    hidden = pairs[:int(len(pairs) * fraction)]
    for tid, annotation_id in hidden:
        relation.detach(tid, annotation_id)
    return hidden
