"""The interactive menu application — the paper's Figure 5.

The paper's app first asks for a dataset file, then offers numbered
operations; options prompt for thresholds or update-file paths as in
its Figures 6, 14 and 15.  This CLI reproduces that flow and adds a
non-interactive mode (``--commands``) where the same answers are read
from a script file, one per line — which is also how the test suite
drives it.

Usage::

    repro-annotations data.txt                 # interactive
    repro-annotations data.txt --commands ops.txt
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterator

from repro.core.rules import RuleKind
from repro.errors import ReproError
from repro.app.session import Session

MENU = """
Please select an operation:
 1. Discover data-to-annotation rules
 2. Discover annotation-to-annotation rules
 3. Load generalization rules (extended database)
 4. Add annotations to existing tuples (update file)
 5. Add annotated tuples (dataset-format file)
 6. Add un-annotated tuples (dataset-format file)
 7. Recommend missing annotations
 8. Write current rules to a file
 9. Show status
10. Show compressed rules (minimal generators)
11. Show candidate rules (near the thresholds)
12. Save session state (JSON snapshot)
13. Load session state (JSON snapshot)
14. Explain a rule (evidence tuples and measures)
15. Review unexplained annotations (removal suggestions)
16. Flush queued updates (coalesced batch)
17. Show top rules by a metric (paged)
18. Show rules predicting an annotation
19. Show estimated top rules (queued updates folded in)
20. Show significant rules (chi-square / p-value tier)
 0. Exit
""".rstrip()


class CommandLoop:
    """Menu loop with injectable input/output for scripted use."""

    def __init__(self,
                 read: Callable[[str], str],
                 write: Callable[[str], None],
                 *,
                 auto_flush_every: int | None = None,
                 shards: int = 1) -> None:
        self._read = read
        self._write = write
        self.session = Session(auto_flush_every=auto_flush_every,
                               shards=shards)

    # -- prompting helpers ----------------------------------------------------

    def _ask(self, prompt: str) -> str:
        return self._read(prompt).strip()

    def _ask_fraction(self, name: str) -> float:
        raw = self._ask(f"Enter the minimum {name} value: ")
        try:
            return float(raw)
        except ValueError:
            raise ReproError(f"{name} must be a number, got {raw!r}") from None

    # -- the loop ----------------------------------------------------------------

    def run(self, dataset_path: str | None = None) -> int:
        if dataset_path is None:
            dataset_path = self._ask("Enter the file path for the dataset: ")
        count = self.session.load_dataset(dataset_path)
        self._write(f"Loaded {count} tuples from {dataset_path}")
        while True:
            self._write(MENU)
            choice = self._ask("> ")
            if choice == "0" or choice == "":
                self._write("Goodbye.")
                return 0
            try:
                self._dispatch(choice)
            except ReproError as error:
                self._write(f"Error: {error}")
            except FileNotFoundError as error:
                self._write(f"Error: {error}")

    def _dispatch(self, choice: str) -> None:
        if choice == "1":
            self._mine_and_show(RuleKind.DATA_TO_ANNOTATION)
        elif choice == "2":
            self._mine_and_show(RuleKind.ANNOTATION_TO_ANNOTATION)
        elif choice == "3":
            path = self._ask("Enter the generalization rules file: ")
            count = self.session.load_generalizations(path)
            self._write(f"Loaded {count} generalization rule(s); "
                        f"re-run discovery to mine the extended database")
        elif choice == "4":
            path = self._ask("Enter the annotation update file: ")
            self._report_update(self.session.add_annotations_from_file(path))
        elif choice == "5":
            path = self._ask("Enter the annotated tuples file: ")
            self._report_update(
                self.session.add_annotated_tuples_from_file(path))
        elif choice == "6":
            path = self._ask("Enter the un-annotated tuples file: ")
            self._report_update(
                self.session.add_unannotated_tuples_from_file(path))
        elif choice == "7":
            self._recommend()
        elif choice == "8":
            path = self._ask("Enter the output file for the rules: ")
            written = self.session.write_rules(path)
            self._write(f"Wrote {written} rule(s) to {path}")
        elif choice == "9":
            for key, value in self.session.status().items():
                self._write(f"  {key}: {value}")
        elif choice == "10":
            from repro.app.report import rules_report
            self._write(rules_report(self.session._require_manager(),
                                     compress=True))
        elif choice == "11":
            from repro.app.report import candidates_report
            self._write(candidates_report(self.session._require_manager()))
        elif choice == "12":
            from repro.core import persistence
            manager = self.session._require_manager()
            path = self._ask("Enter the snapshot file to write: ")
            persistence.save(manager, path)
            self._write(f"Saved session state to {path}")
        elif choice == "13":
            from repro.core import persistence
            path = self._ask("Enter the snapshot file to load: ")
            manager = persistence.load(path)
            self.session.restore_snapshot(manager, f"(snapshot) {path}")
            self._write(f"Restored {manager.db_size} tuples and "
                        f"{len(manager.rules)} rule(s) from {path}")
        elif choice == "14":
            self._explain_rule()
        elif choice == "16":
            report = self.session.flush()
            if report is None:
                self._write("No updates queued.")
            else:
                self._write(report.summary())
        elif choice == "17":
            self._top_rules()
        elif choice == "18":
            self._rules_for_annotation()
        elif choice == "19":
            self._estimate_rules()
        elif choice == "20":
            self._significant_rules()
        elif choice == "15":
            from repro.exploitation.removal import (
                UnexplainedAnnotationFinder,
            )

            suggestions = UnexplainedAnnotationFinder(
                self.session._require_manager()).scan()
            if not suggestions:
                self._write("No unexplained annotations found.")
            else:
                self._write(f"{len(suggestions)} attachment(s) to review:")
                for suggestion in suggestions[:20]:
                    self._write(f"  {suggestion.render()}")
        else:
            self._write(f"Unknown option {choice!r}")

    def _report_update(self, report) -> None:
        """Print what an update-file option did (applied, batched, or
        just queued behind the ``--auto-flush-every`` threshold)."""
        if report is None:
            self._write(f"Queued ({self.session.pending()} pending; "
                        f"flush with option 16)")
        else:
            self._write(report.summary())

    def _top_rules(self) -> None:
        """Menu option 17: metric-ordered rule listing with paging,
        served from the catalog's presorted orderings."""
        from repro.core.catalog import ALL_METRICS

        manager = self.session._require_manager()
        metric = self._ask(f"Metric ({'/'.join(ALL_METRICS)}) "
                           f"[confidence]: ") or "confidence"
        # Validate here, not just in the query: the per-rule metric
        # display below asks the catalog for the value, and
        # "canonical" (a valid ordering, not a rule statistic) must be
        # rejected too.
        if metric not in ALL_METRICS:
            self._write(f"Error: unknown ordering metric {metric!r}; "
                        f"choose from {', '.join(ALL_METRICS)}")
            return
        raw = self._ask("Rules per page [10]: ")
        try:
            per_page = int(raw) if raw else 10
            raw = self._ask("Page number [1]: ")
            page = int(raw) if raw else 1
        except ValueError:
            self._write(f"Error: not a number: {raw!r}")
            return
        if per_page < 1 or page < 1:
            self._write("Error: page and size must be >= 1")
            return
        offset = (page - 1) * per_page
        rules = self.session.rules_page(offset=offset, limit=per_page,
                                        by=metric)
        total = len(manager.rules)
        if not rules:
            self._write(f"No rules on page {page} (total {total}).")
            return
        catalog = self.session.catalog()
        self._write(f"Rules {offset + 1}..{offset + len(rules)} of "
                    f"{total}, best {metric} first:")
        for rule in rules:
            self._write(f"  {rule.render(manager.vocabulary)}"
                        f"  [{metric} "
                        f"{catalog.metric_value(rule, metric):.4f}]")

    def _estimate_rules(self) -> None:
        """Menu option 19: estimated top rules, each metric shown with
        its error bound; queued updates are folded in without waiting
        for a flush."""
        from repro.app.estimate import ESTIMATE_METRICS

        manager = self.session._require_manager()
        metric = self._ask(f"Metric ({'/'.join(ESTIMATE_METRICS)}) "
                           f"[confidence]: ") or "confidence"
        if metric not in ESTIMATE_METRICS:
            self._write(f"Error: unknown estimate metric {metric!r}; "
                        f"choose from {', '.join(ESTIMATE_METRICS)}")
            return
        raw = self._ask("Number of rules [10]: ")
        try:
            count = int(raw) if raw else 10
        except ValueError:
            self._write(f"Error: not a number: {raw!r}")
            return
        snapshot = self.session.estimate_rules(count, by=metric)
        if not snapshot.rules:
            self._write("No rules to estimate.")
            return
        pending = (f"; {snapshot.pending_events} pending update(s) "
                   f"folded in" if snapshot.pending_events else "")
        self._write(f"Top {len(snapshot.rules)} estimated rule(s) by "
                    f"{metric} (value±bound at z={snapshot.z:g}"
                    f"{pending}):")
        for estimated in snapshot.rules:
            self._write(f"  {estimated.render(manager.vocabulary)}")

    def _significant_rules(self) -> None:
        """Menu option 20: the significance tier — rules whose 2x2
        contingency table survives a p-value ceiling, strongest
        evidence first."""
        manager = self.session._require_manager()
        raw = self._ask("Maximum p-value [0.05]: ")
        try:
            ceiling = float(raw) if raw else 0.05
        except ValueError:
            self._write(f"Error: not a number: {raw!r}")
            return
        rules = self.session.significant_rules(max_p_value=ceiling,
                                               limit=20)
        if not rules:
            self._write(f"No rules significant at p <= {ceiling:g}.")
            return
        catalog = self.session.catalog()
        self._write(f"{len(rules)} rule(s) significant at "
                    f"p <= {ceiling:g}, strongest first:")
        for rule in rules:
            self._write(
                f"  {rule.render(manager.vocabulary)}"
                f"  [chi2 {catalog.chi_square_of(rule):.2f}, "
                f"p {catalog.p_value_of(rule):.4g}]")

    def _rules_for_annotation(self) -> None:
        """Menu option 18: the catalog's by-RHS index as a command."""
        manager = self.session._require_manager()
        token = self._ask("Annotation id: ")
        rules = self.session.rules_for_annotation(token)
        if not rules:
            self._write(f"No rules predict {token!r}.")
            return
        self._write(f"{len(rules)} rule(s) predict {token!r}:")
        for rule in rules:
            self._write(f"  {rule.render(manager.vocabulary)}")

    def _explain_rule(self) -> None:
        from repro.core.explain import explain_rule, render_evidence

        manager = self.session._require_manager()
        rules = manager.rules.sorted_rules()
        if not rules:
            self._write("No rules to explain.")
            return
        for number, rule in enumerate(rules, start=1):
            self._write(f" {number:3d}. {rule.render(manager.vocabulary)}")
        raw = self._ask("Rule number to explain [1]: ")
        try:
            number = int(raw) if raw else 1
        except ValueError:
            self._write(f"Error: not a rule number: {raw!r}")
            return
        if not 1 <= number <= len(rules):
            self._write(f"Error: rule number out of range 1..{len(rules)}")
            return
        evidence = explain_rule(manager, rules[number - 1], max_tids=50)
        self._write(render_evidence(manager, evidence))

    def _mine_and_show(self, kind: RuleKind) -> None:
        support = self._ask_fraction("support")
        confidence = self._ask_fraction("confidence")
        report = self.session.mine(support, confidence)
        rules = self.session.rules_of_kind(kind)
        self._write(f"Discovered {len(rules)} {kind.value} rule(s) "
                    f"in {report.duration_seconds * 1000:.1f} ms:")
        manager = self.session.manager
        assert manager is not None
        for rule in rules:
            self._write(f"  {rule.render(manager.vocabulary)}")

    def _recommend(self) -> None:
        raw = self._ask("Maximum number of recommendations [20]: ")
        limit = int(raw) if raw else 20
        recommendations = self.session.recommendations(limit=limit)
        if not recommendations:
            self._write("No missing annotations suggested.")
            return
        manager = self.session.manager
        assert manager is not None
        self._write(f"{len(recommendations)} recommendation(s):")
        for recommendation in recommendations:
            self._write(f"  {recommendation.render(manager.vocabulary)}")


def _scripted_reader(lines: list[str]) -> Callable[[str], str]:
    iterator: Iterator[str] = iter(lines)

    def read(prompt: str) -> str:
        try:
            return next(iterator)
        except StopIteration:
            return "0"  # script exhausted: exit cleanly

    return read


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-annotations",
        description="Annotation correlation manager "
                    "(EDBT 2016 reproduction)")
    parser.add_argument("dataset", nargs="?",
                        help="dataset file (paper Figure 4 format)")
    parser.add_argument("--commands", metavar="FILE",
                        help="read menu answers from FILE instead of stdin")
    parser.add_argument("--auto-flush-every", metavar="N", type=int,
                        default=None,
                        help="queue update files and apply them as one "
                             "coalesced batch once N are pending "
                             "(default: apply each file immediately)")
    parser.add_argument("--shards", metavar="N", type=int, default=1,
                        help="hash-partition the relation into N shard "
                             "engines mined concurrently and merged "
                             "exactly (default: 1, monolithic)")
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    try:
        if args.commands:
            with open(args.commands, encoding="utf-8") as handle:
                lines = [line.rstrip("\n") for line in handle]
            loop = CommandLoop(_scripted_reader(lines), print,
                               auto_flush_every=args.auto_flush_every,
                               shards=args.shards)
        else:
            def read(prompt: str) -> str:
                return input(prompt)

            loop = CommandLoop(read, print,
                               auto_flush_every=args.auto_flush_every,
                               shards=args.shards)
        return loop.run(args.dataset)
    except (ReproError, FileNotFoundError) as error:
        print(f"fatal: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
