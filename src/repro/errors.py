"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an application boundary.  Subclasses are
organized by subsystem (vocabulary, relation, mining, formats, app) and
carry enough context in their messages to be actionable without a
debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""

    #: 1-based position of the event a batch failed on, set by the
    #: delta-plan compiler on whatever it raises for that event (``None``
    #: when the failure is not tied to one event, e.g. a stale engine).
    event_position: int | None = None


class VocabularyError(ReproError):
    """An item was used with a vocabulary that does not know it."""


class ItemKindError(ReproError):
    """An item of the wrong kind was used (e.g. data value as a rule RHS)."""


class SchemaError(ReproError):
    """A tuple does not match the relation schema."""


class UnknownTupleError(ReproError):
    """A tuple id does not exist in the relation."""


class UnknownAnnotationError(ReproError):
    """An annotation id does not exist in the relation's registry."""


class DuplicateAnnotationError(ReproError):
    """An annotation id was registered twice with conflicting content."""


class InvalidThresholdError(ReproError):
    """A support/confidence threshold is outside ``(0, 1]``."""


class MiningError(ReproError):
    """A mining routine was invoked with inconsistent arguments."""


class MaintenanceError(ReproError):
    """Incremental maintenance detected an inconsistent internal state."""


class DeltaPlanError(MaintenanceError):
    """A batch of update events could not be coalesced into a delta plan.

    Raised by the plan compiler *before any state is mutated* — e.g. an
    event targets an unknown tuple, or annotates a tuple that an earlier
    event in the same batch deleted.  The compiler records the failing
    event's position as :attr:`event_position`, so the flush paths
    (:meth:`~repro.core.engine.CorrelationEngine.compile_prefix`)
    journal and apply the valid prefix as one batch, drop the poison
    event and re-queue the tail.
    """


class CatalogError(ReproError):
    """A rule-catalog query was composed or executed inconsistently."""


class FormatError(ReproError):
    """A paper file format could not be parsed."""

    def __init__(self, message: str, *, line_number: int | None = None,
                 line: str | None = None) -> None:
        location = "" if line_number is None else f" (line {line_number})"
        shown = "" if line is None else f": {line!r}"
        super().__init__(f"{message}{location}{shown}")
        self.line_number = line_number
        self.line = line


class GeneralizationError(ReproError):
    """A generalization rule or hierarchy is malformed."""


class RecommendationError(ReproError):
    """The exploitation layer was used inconsistently."""


class SessionError(ReproError):
    """The application session was driven through an invalid transition."""


class ServerError(ReproError):
    """The serving tier was configured or driven inconsistently.

    Client-side protocol faults (malformed event JSON, unknown tenant,
    bad query parameters) are mapped to HTTP status codes at the
    endpoint layer; this type covers the server's own misuse — bad
    :class:`~repro.server.config.ServerConfig` values, metric type
    clashes, lifecycle violations (serving before ``start()``).
    """
