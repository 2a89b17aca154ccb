"""Structured outcomes of theorem verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field

STATUS_CONFIRMED = "confirmed"
STATUS_HYPOTHESES_NOT_MET = "hypotheses-not-met"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_SKIPPED = "skipped-too-large"

ALL_STATUSES = (
    STATUS_CONFIRMED,
    STATUS_HYPOTHESES_NOT_MET,
    STATUS_COUNTEREXAMPLE,
    STATUS_SKIPPED,
)


def status_counts(reports: list[VerdictReport], statuses: tuple[str, ...] = ()) -> dict[str, int]:
    """Report count per status: the given statuses first (zero-filled), then
    any other status in the order it first appears."""
    counts = dict.fromkeys(statuses, 0)
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    return counts


@dataclass(slots=True)
class Check:
    """One named pass/fail with enough witness data to replay a failure."""

    name: str
    passed: bool
    witness: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}

    @classmethod
    def from_dict(cls, d: dict) -> "Check":
        return cls(d["name"], d["passed"], d.get("witness", ""))


@dataclass(slots=True)
class VerdictReport:
    """Outcome of running one verifier on one subject."""

    theorem: str
    subject: dict
    hypothesis_checks: list[Check] = field(default_factory=list)
    conclusion_checks: list[Check] = field(default_factory=list)
    status: str = STATUS_HYPOTHESES_NOT_MET
    mode: str | None = None
    metadata: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @staticmethod
    def derive_status(hypothesis_checks: list[Check], conclusion_checks: list[Check]) -> str:
        if not all(c.passed for c in hypothesis_checks):
            return STATUS_HYPOTHESES_NOT_MET
        if all(c.passed for c in conclusion_checks):
            return STATUS_CONFIRMED
        return STATUS_COUNTEREXAMPLE

    def finalize(self) -> "VerdictReport":
        self.status = self.derive_status(self.hypothesis_checks, self.conclusion_checks)
        return self

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "subject": dict(self.subject),
            "hypothesis_checks": [c.to_dict() for c in self.hypothesis_checks],
            "conclusion_checks": [c.to_dict() for c in self.conclusion_checks],
            "status": self.status,
            "mode": self.mode,
            "metadata": dict(self.metadata),
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerdictReport":
        return cls(
            theorem=d["theorem"],
            subject=dict(d["subject"]),
            hypothesis_checks=[Check.from_dict(c) for c in d["hypothesis_checks"]],
            conclusion_checks=[Check.from_dict(c) for c in d["conclusion_checks"]],
            status=d["status"],
            mode=d.get("mode"),
            metadata=dict(d.get("metadata", {})),
            elapsed_s=d.get("elapsed_s", 0.0),
        )

    def sort_key(self):
        return (
            self.subject.get("group", ""),
            self.subject.get("subgroup", ""),
            self.theorem,
            self.mode or "",
        )
