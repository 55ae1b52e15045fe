"""Reproduction of *Discovering Correlations in Annotated Databases*.

Public API re-exported here; see DESIGN.md for the system inventory and
the committed ``BENCH_*.json`` rows at the repository root for the
measured record.

Only the core that :func:`repro.engine` needs is imported with the
package: the relation, the mining items and constraints, rules, stats,
events, the catalog, the engine config, delta plans, the engine and its
maintenance reports.  Every other public name (the service, session and
server, the journal, sharding, audit and explain, the timeline,
persistence, the re-mine oracle, closed itemsets, generalization and
exploitation) is imported on first access through ``_LAZY`` (PEP 562),
so ``import repro; repro.engine(...)`` loads neither the service nor
the HTTP server.  ``from repro import X``, ``from repro import *`` and
``repro.X`` behave as if every name were imported eagerly.
"""

import importlib

from repro.errors import CatalogError, DeltaPlanError, ReproError
from repro.mining.itemsets import (
    Item,
    ItemKind,
    ItemVocabulary,
    TransactionDatabase,
)
from repro.mining.constraints import MiningTask
from repro.relation.annotation import Annotation
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.tuples import AnchorScope, AnnotationAnchor
from repro.core.rules import AssociationRule, RuleKind, RuleSet
from repro.core.stats import Thresholds
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.core.catalog import (
    CatalogQuery,
    CatalogStats,
    QueryExplain,
    RuleCatalog,
)
from repro.core.config import EngineConfig
from repro.core.deltas import DeltaPlan, EventAudit, compile_plan
from repro.core.engine import (
    CorrelationEngine,
    EncodedSubstrate,
    VerificationResult,
    engine,
)
from repro.core.maintenance import BatchReport, MaintenanceReport

__version__ = "1.0.0"

#: Public names outside the core: name -> (defining module, attribute),
#: where an attribute of ``None`` exports the module itself.
_LAZY: dict[str, tuple[str, str | None]] = {
    name: (module, name)
    for module, names in {
        "repro.core.journal": (
            "EventJournal", "JournalStore", "RecoveryResult", "ReplayStats"),
        "repro.shard": ("ShardedEngine", "modulo_partitioner"),
        "repro.app.service": ("CorrelationService", "RuleSnapshot"),
        "repro.app.session": ("Session",),
        "repro.server": ("CorrelationServer", "ServerConfig"),
        "repro.core.audit": ("AuditReport", "audit"),
        "repro.core.explain": (
            "RuleEvidence", "explain_rule", "render_evidence"),
        "repro.core.timeline": ("Direction", "TimelineRecorder"),
        "repro.baselines.remine": ("remine",),
        "repro.mining.closed": (
            "closed_itemsets", "compress_rules", "maximal_itemsets"),
        "repro.mining.interest": ("RuleCounts",),
        "repro.generalization.engine": ("Generalizer",),
        "repro.generalization.hierarchy": ("ConceptHierarchy",),
        "repro.generalization.rules": (
            "GeneralizationRule", "GeneralizationRuleSet", "IdMatcher",
            "KeywordMatcher"),
        "repro.exploitation.recommender": (
            "MissingAnnotationRecommender", "Recommendation"),
        "repro.exploitation.curation": ("CurationSession",),
        "repro.exploitation.removal": (
            "RemovalSuggestion", "UnexplainedAnnotationFinder"),
    }.items()
    for name in names
}
_LAZY.update({
    "evaluate_rule": ("repro.mining.interest", "evaluate"),
    "persistence": ("repro.core.persistence", None),
})


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = module if attribute is None else getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AddAnnotatedTuples",
    "AddAnnotations",
    "AddUnannotatedTuples",
    "AnchorScope",
    "Annotation",
    "AnnotationAnchor",
    "AnnotatedRelation",
    "AssociationRule",
    "AuditReport",
    "BatchReport",
    "CatalogError",
    "CatalogQuery",
    "CatalogStats",
    "CorrelationEngine",
    "CorrelationServer",
    "CorrelationService",
    "DeltaPlan",
    "DeltaPlanError",
    "EncodedSubstrate",
    "EventAudit",
    "EngineConfig",
    "EventJournal",
    "JournalStore",
    "QueryExplain",
    "RecoveryResult",
    "ReplayStats",
    "RuleCatalog",
    "RuleSnapshot",
    "VerificationResult",
    "ConceptHierarchy",
    "CurationSession",
    "Direction",
    "GeneralizationRule",
    "GeneralizationRuleSet",
    "Generalizer",
    "IdMatcher",
    "Item",
    "ItemKind",
    "ItemVocabulary",
    "KeywordMatcher",
    "MaintenanceReport",
    "MiningTask",
    "MissingAnnotationRecommender",
    "Recommendation",
    "RuleCounts",
    "RuleEvidence",
    "RemovalSuggestion",
    "RemoveAnnotations",
    "RemoveTuples",
    "ReproError",
    "RuleKind",
    "RuleSet",
    "Schema",
    "ServerConfig",
    "Session",
    "ShardedEngine",
    "Thresholds",
    "TimelineRecorder",
    "UnexplainedAnnotationFinder",
    "TransactionDatabase",
    "audit",
    "closed_itemsets",
    "compress_rules",
    "engine",
    "evaluate_rule",
    "explain_rule",
    "maximal_itemsets",
    "modulo_partitioner",
    "persistence",
    "remine",
    "render_evidence",
]
