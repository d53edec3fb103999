"""Result records shared by the closed forms, the oracle and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Provenance tags for fidelity values.
METHODS = ("general", "oracle", "optimal_general", "angular")

#: Slack above 1.0 tolerated for a fidelity before it is rejected as invalid.
FIDELITY_SLACK = 1e-9


@dataclass(frozen=True)
class FidelityReport:
    """A named fidelity value plus the provenance needed to reproduce it."""

    value: float
    method: str
    ports: int
    dim: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        v = self.value
        if not math.isfinite(v):
            raise ValueError("fidelity must be finite")
        if v < 0.0 or v > 1.0 + FIDELITY_SLACK:
            raise ValueError(f"fidelity {v} outside [0, 1 + {FIDELITY_SLACK}]")

    def as_dict(self) -> dict:
        return {"value": self.value, "method": self.method, "ports": self.ports, "dim": self.dim}


@dataclass(frozen=True)
class CheckResult:
    """One verification check: what was tested and how far off it was."""

    name: str
    passed: bool
    max_deviation: float
    detail: str = ""


@dataclass
class VerifyReport:
    """Aggregate of oracle verification checks for one parameter point."""

    ports: int
    dim: int
    tol: float
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, deviation: float, detail: str = ""):
        self.checks.append(CheckResult(name, bool(deviation <= self.tol), float(deviation), detail))

    def as_dict(self) -> dict:
        return {
            "ports": self.ports,
            "dim": self.dim,
            "tol": self.tol,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "max_deviation": c.max_deviation, "detail": c.detail}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }
