"""Verification outcome record shared by the identity registry and the CLI."""

from __future__ import annotations

from .record import Record


class IdentityReport(Record):
    """The outcome of one registry entry; it crosses the worker pool by pickle."""

    __slots__ = _fields = ("id", "order", "passed", "witness", "elapsed", "serial_fallback")

    def __init__(
        self,
        id: str,
        order: int,
        passed: bool,
        witness: str | None = None,
        elapsed: float = 0.0,  # seconds
        serial_fallback: bool = False,  # the worker pool failed and the entry reran serially
    ) -> None:
        if not passed and not witness:
            raise ValueError("a failed report must carry a witness")
        set_ = object.__setattr__
        set_(self, "id", id)
        set_(self, "order", order)
        set_(self, "passed", passed)
        set_(self, "witness", witness)
        set_(self, "elapsed", elapsed)
        set_(self, "serial_fallback", serial_fallback)

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
