"""Outcome records for verified identities."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IdentityReport:
    """One verified identity: stable id, source anchor, pass/fail (None
    when the check raised), and on failure a bounded digest of the nonzero
    witness or the exception."""

    ident: str
    anchor: str
    status: bool | None
    witness: str | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "id": self.ident,
            "anchor": self.anchor,
            "status": "error" if self.status is None else "pass" if self.status else "fail",
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.extras:
            out["extras"] = self.extras
        return out


def witness_digest(element):
    """First 20 terms of a nonzero difference, for debuggability without
    gigantic dumps."""
    text = repr(element)
    pieces = text.split(" + ")
    if len(pieces) > 20:
        text = " + ".join(pieces[:20]) + f" + ... ({len(pieces) - 20} more terms)"
    return text
