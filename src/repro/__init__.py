"""Reproduction of *Discovering Correlations in Annotated Databases*.

Public API re-exported here; see DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.errors import ReproError
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
from repro.errors import CatalogError
from repro.core.deltas import DeltaPlan, EventAudit, compile_plan
from repro.core.engine import (
    CorrelationEngine,
    EncodedSubstrate,
    VerificationResult,
    engine,
)
from repro.core.journal import (
    EventJournal,
    JournalStore,
    RecoveryResult,
    ReplayStats,
)
from repro.shard import (
    RebalancePlan,
    ShardSkew,
    ShardedEngine,
    modulo_partitioner,
    plan_rebalance,
    shard_skew,
)
from repro.core.maintenance import BatchReport, MaintenanceReport
from repro.errors import DeltaPlanError
from repro.app.service import (
    CorrelationService,
    RebalanceReport,
    RuleSnapshot,
)
from repro.core.audit import AuditReport, audit
from repro.core.explain import RuleEvidence, explain_rule, render_evidence
from repro.core.multilevel import LeveledRule, MultiLevelMiner
from repro.core.timeline import Direction, TimelineRecorder
from repro.core import persistence
from repro.baselines.remine import remine
from repro.mining.closed import (
    closed_itemsets,
    compress_rules,
    maximal_itemsets,
)
from repro.mining.interest import RuleCounts, evaluate as evaluate_rule
from repro.relation import query
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
    KeywordMatcher,
)
from repro.exploitation.recommender import (
    MissingAnnotationRecommender,
    Recommendation,
)
from repro.exploitation.insert_advisor import InsertAdvisor
from repro.exploitation.curation import CurationSession
from repro.exploitation.quality import (
    QualityReport,
    rule_yield,
    score_recommendations,
)
from repro.exploitation.removal import (
    RemovalSuggestion,
    UnexplainedAnnotationFinder,
)
from repro.app.session import Session
from repro.server import CorrelationServer, ServerConfig

__version__ = "1.0.0"

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
    "RebalancePlan",
    "RebalanceReport",
    "RecoveryResult",
    "ReplayStats",
    "RuleCatalog",
    "RuleSnapshot",
    "ShardSkew",
    "VerificationResult",
    "ConceptHierarchy",
    "CurationSession",
    "Direction",
    "GeneralizationRule",
    "GeneralizationRuleSet",
    "Generalizer",
    "IdMatcher",
    "InsertAdvisor",
    "Item",
    "ItemKind",
    "ItemVocabulary",
    "KeywordMatcher",
    "LeveledRule",
    "MaintenanceReport",
    "MiningTask",
    "MultiLevelMiner",
    "MissingAnnotationRecommender",
    "QualityReport",
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
    "compile_plan",
    "compress_rules",
    "engine",
    "evaluate_rule",
    "explain_rule",
    "maximal_itemsets",
    "modulo_partitioner",
    "persistence",
    "plan_rebalance",
    "query",
    "remine",
    "render_evidence",
    "rule_yield",
    "score_recommendations",
    "shard_skew",
]
