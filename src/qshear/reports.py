"""Outcome records for verified identities."""

from .ore import OreElement
from .torus import TorusElement


class IdentityReport:
    """One verified identity: stable id, source anchor, pass/fail (None
    when the check raised), and on failure a bounded digest of the nonzero
    witness or the exception."""

    __slots__ = ("ident", "anchor", "status", "witness", "extras")

    def __init__(self, ident, anchor, status, witness=None, extras=None):
        self.ident = ident
        self.anchor = anchor
        self.status = status
        self.witness = witness
        self.extras = {} if extras is None else extras

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
    """The text of a nonzero difference cut after its first 20 terms (the
    monomials of a torus element, the fractions of an Ore element), for
    debuggability without gigantic dumps."""
    more = len(element.terms) - 20
    if more <= 0:
        return repr(element)
    if isinstance(element, TorusElement):
        head = TorusElement(element.form, dict(element.monomials()[:20]))
    else:
        head = OreElement(element.form, element.terms[:20])
    return f"{head!r} + ... ({more} more terms)"
