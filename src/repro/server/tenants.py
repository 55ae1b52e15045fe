"""Tenant creation and status, and the JSON wire codecs.

One *tenant* is one named :class:`~repro.app.service.CorrelationService`
session — its own relation, engine config, update queue and rule
catalog — created, listed and dropped over HTTP.  The service's session
table is the tenant table: every hosted session is served, however it
was created.  Reads go straight to the session's published
:class:`~repro.app.service.RuleSnapshot`, which the service replaces at
every commit and hands out without a session lock.  This module adds
what the service facade deliberately does not have:

* tenant-name validation and the engine-config template merge for
  ``POST /v1/tenants`` bodies (:func:`create_tenant`);
* the status row the tenant endpoints answer (:func:`tenant_status`);
* the rule JSON codec shared by the endpoints, the CLI and the
  benchmark load generator (events decode through the journal's
  codec, :func:`repro.core.journal.event_from_json`).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any

from repro.app.estimate import EstimatedRule
from repro.app.service import CorrelationService, RuleSnapshot
from repro.core.catalog import ALL_METRICS, RuleCatalog
from repro.core.config import EngineConfig
from repro.core.journal import annotated_row, annotated_rows
from repro.core.rules import AssociationRule, RuleKind
from repro.errors import (
    ItemKindError,
    ServerError,
    VocabularyError,
)
from repro.io.json_stream import ConvertedArray, loads_streaming
from repro.mining.itemsets import Item, ItemKind, ItemVocabulary
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema

#: Tenant names are one URL path segment, metrics-label safe, and must
#: not collide with the ``/v1/tenants`` collection route.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
RESERVED_TENANT_NAMES = frozenset({"tenants"})

#: ``EngineConfig`` fields a tenant-create body may set and tenant
#: status reports: every field but the generalizer, which is not JSON.
ENGINE_CONFIG_FIELDS = tuple(
    config_field.name for config_field in dataclasses.fields(EngineConfig)
    if config_field.name != "generalizer")


# -- engine config -------------------------------------------------------------

def engine_config_from_json(overrides: dict[str, Any] | None,
                            template: EngineConfig | None) -> EngineConfig:
    """Merge a JSON override dict onto the server's engine template.

    Without a template, ``min_support`` and ``min_confidence`` become
    required body fields.  Unknown keys are rejected by name — a typoed
    threshold must not silently fall back to the template.
    """
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides).difference(ENGINE_CONFIG_FIELDS))
    if unknown:
        raise ServerError(
            f"unknown engine config field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(ENGINE_CONFIG_FIELDS))}")
    try:
        if template is not None:
            return template.replace(**overrides)
        return EngineConfig(**overrides)
    except TypeError as error:
        raise ServerError(
            f"incomplete engine config: {error}") from None
    # Threshold/type validation errors (ReproError subclasses)
    # propagate — the endpoint layer maps them to 400.


def engine_config_to_json(config: EngineConfig) -> dict[str, Any]:
    return {name: getattr(config, name) for name in ENGINE_CONFIG_FIELDS}


# -- rule codec ----------------------------------------------------------------

def rule_to_json(rule: AssociationRule,
                 vocabulary: ItemVocabulary,
                 catalog: RuleCatalog | None = None) -> dict[str, Any]:
    """One exact rule on the wire.  With ``catalog`` the significance
    tier (chi-square / p-value from the enriched contingency table) is
    included too — passed by endpoints whose query touched it."""
    payload = {
        "kind": rule.kind.value,
        "lhs": [vocabulary.item(item_id).token for item_id in rule.lhs],
        "rhs": vocabulary.item(rule.rhs).token,
        "support": rule.support,
        "confidence": rule.confidence,
        "lift": rule.lift,
        "union_count": rule.union_count,
        "lhs_count": rule.lhs_count,
        "rendered": rule.render(vocabulary),
    }
    if catalog is not None:
        chi_square, p_value = catalog.significance(rule)
        payload["chi_square"] = chi_square
        payload["p_value"] = p_value
    return payload


def estimated_rule_to_json(estimated: EstimatedRule,
                           vocabulary: ItemVocabulary) -> dict[str, Any]:
    """One estimate-tier rule on the wire: every metric paired with its
    error bound (always 0.0: the counts are exact), plus the
    ``estimated`` discriminator."""
    rule = estimated.rule
    est = estimated.estimate
    return {
        "kind": rule.kind.value,
        "lhs": [vocabulary.item(item_id).token for item_id in rule.lhs],
        "rhs": vocabulary.item(rule.rhs).token,
        "support": est.support,
        "support_bound": 0.0,
        "confidence": est.confidence,
        "confidence_bound": 0.0,
        "lift": est.lift,
        "lift_bound": 0.0,
        "count": est.count,
        "exact": True,
        "estimated": True,
        "rendered": estimated.render(vocabulary),
    }


def parse_rule_kind(raw: str) -> RuleKind:
    for kind in RuleKind:
        if raw == kind.value:
            return kind
    raise ServerError(
        f"unknown rule kind {raw!r}; expected "
        f"{' or '.join(kind.value for kind in RuleKind)}")


def parse_metric(raw: str) -> str:
    if raw not in ALL_METRICS:
        raise ServerError(f"unknown metric {raw!r}; expected one of "
                          f"{', '.join(ALL_METRICS)}")
    return raw


# -- tenants -------------------------------------------------------------------

def create_tenant(service: CorrelationService, name: str, *,
                  columns: list[str] | None = None,
                  rows: Any = None,
                  config: dict[str, Any] | None = None,
                  mine: bool = True,
                  default_engine: EngineConfig | None = None
                  ) -> RuleSnapshot:
    """Create tenant ``name`` as a session of ``service`` (blocking:
    runs the initial mine); returns its first snapshot.

    ``config`` is merged onto ``default_engine``.  ``rows`` is a
    decoded list of ``[[value, ...], [annotation, ...]]`` rows, or the
    rows :func:`load_create_body` already checked and packed."""
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ServerError(
            f"tenant name must match [A-Za-z0-9._-]{{1,64}}, "
            f"got {name!r}")
    if name in RESERVED_TENANT_NAMES:
        raise ServerError(f"tenant name {name!r} is reserved")
    engine_config = engine_config_from_json(config, default_engine)
    relation = AnnotatedRelation(
        Schema([str(column) for column in columns]) if columns else None)
    if isinstance(rows, ConvertedArray):
        relation.insert_many(rows)
    elif rows is not None:
        relation.insert_many(annotated_rows(rows, ServerError))
    return service.create(name, relation, engine_config, mine=mine)


def tenant_status(service: CorrelationService, name: str) -> dict[str, Any]:
    """One tenant's status row (loop-safe: it takes no session lock,
    only the registry and queue mutexes)."""
    if name not in service:
        raise ServerError(f"unknown tenant {name!r}")
    snapshot = service.snapshot(name)
    status = {
        "tenant": name,
        "revision": snapshot.revision,
        "rules": len(snapshot),
        "db_size": snapshot.db_size,
        "pending_events": snapshot.pending_events,
        "config": engine_config_to_json(service.config_of(name)),
    }
    journal = service.journal_status(name)
    if journal is not None:
        status["journal"] = journal
    return status


def load_create_body(body: bytes) -> Any:
    """A ``POST /v1/tenants`` body, decoded as :func:`json.loads` would,
    except that a top-level ``rows`` array is checked and packed a row
    at a time (:func:`~repro.core.journal.annotated_row`), so the body's
    tree of rows is never built.  A malformed row raises its error when
    :func:`create_tenant` reaches it, after the checks on the
    other fields."""
    return loads_streaming(body, "rows", _checked_row)


def _checked_row(entry: object) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return annotated_row(entry, ServerError)


def resolve_item(vocabulary: ItemVocabulary, token: str) -> int | None:
    """Item id for ``token`` in a snapshot's vocabulary, or ``None``
    when no kind of item with that token was ever interned (such a
    token can appear in no rule)."""
    for kind in (ItemKind.ANNOTATION, ItemKind.LABEL, ItemKind.DATA):
        try:
            return vocabulary.id_of(Item(kind, token))
        except (VocabularyError, ItemKindError):
            continue
    return None


__all__ = [
    "ENGINE_CONFIG_FIELDS",
    "create_tenant",
    "engine_config_from_json",
    "engine_config_to_json",
    "estimated_rule_to_json",
    "load_create_body",
    "parse_metric",
    "parse_rule_kind",
    "resolve_item",
    "rule_to_json",
    "tenant_status",
]
