"""Verification outcome record shared by the identity registry and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IdentityReport:
    id: str
    order: int
    passed: bool
    witness: str | None = None
    elapsed: float = 0.0  # seconds
    serial_fallback: bool = False  # the worker pool failed and the entry reran serially

    def __post_init__(self) -> None:
        if not self.passed and not self.witness:
            raise ValueError("a failed report must carry a witness")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "order": self.order,
            "passed": self.passed,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "serial_fallback": self.serial_fallback,
        }

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{status}  {self.id}  (order {self.order}, {self.elapsed * 1000.0:.0f} ms)"
        if self.witness:
            line += f"\n      witness: {self.witness}"
        return line
