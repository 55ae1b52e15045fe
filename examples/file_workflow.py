"""The paper's application workflow, driven through its file formats.

Writes a dataset file (Figure 4), a generalization-rules file
(Figure 9) and an annotation-update file (Figure 14) to a temporary
directory (removed on exit), then drives the :class:`repro.Session`
through the same steps a user of the paper's menu application would
take, ending with the Figure 7 rules output file.

Run with:  python examples/file_workflow.py
"""

import tempfile
from pathlib import Path

from repro import Session
from repro.core.events import AddAnnotations
from repro.core.rules import RuleKind
from repro.io import dataset_format, updates_format
from repro.synth.generator import generate_annotation_batch
from repro.synth.workloads import dev_scale

GENERALIZATIONS = """\
# Figure 9 style generalization rules
Invalid_Values <= Annot_N0 | Annot_N1
Noise <= Annot_N2
[hierarchy]
Invalid_Values -> QualityIssue
Noise -> QualityIssue
"""


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro_workflow_") as workspace:
        run(Path(workspace))


def run(workspace: Path) -> None:
    """The workflow, writing its files into ``workspace``."""
    workload = dev_scale()

    dataset = workspace / "dataset.txt"
    dataset_format.write_dataset(workload.relation, dataset)
    generalizations = workspace / "generalizations.txt"
    generalizations.write_text(GENERALIZATIONS)

    session = Session()
    count = session.load_dataset(dataset)
    print(f"Loaded {count} tuples from {dataset}")

    session.load_generalizations(generalizations)
    report = session.mine(min_support=0.3, min_confidence=0.7)
    print(f"Mined in {report.duration_seconds * 1000:.1f} ms: "
          f"{len(session.manager.rules)} rules")
    for kind in (RuleKind.DATA_TO_ANNOTATION,
                 RuleKind.ANNOTATION_TO_ANNOTATION):
        print(f"  {kind.value}: {len(session.rules_of_kind(kind))}")

    batch = generate_annotation_batch(session.manager.relation, size=20,
                                      seed=9)
    updates = workspace / "updates.txt"
    updates_format.write_updates(AddAnnotations.build(batch), updates)
    report = session.add_annotations_from_file(updates)
    print(f"Applied update file ({len(batch)} pairs): {report.summary()}")

    rules_out = workspace / "rules.txt"
    written = session.write_rules(rules_out)
    print(f"Wrote {written} rules to {rules_out}; first lines:")
    for line in rules_out.read_text().splitlines()[:5]:
        print(f"  {line}")

    print(f"\nStatus: {session.status()}")
    print(f"Incremental state exact: "
          f"{session.manager.verify_against_remine().equivalent}")


if __name__ == "__main__":
    main()
