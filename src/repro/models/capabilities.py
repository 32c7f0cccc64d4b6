"""Programmatic version of the paper's Table I (capability matrix).

Table I contrasts PrivBayes, "VAE with DP-SGD" (DP-VAE), DP-GM, and P3GM on
three requirements: differential privacy, sample diversity, and capacity for
high-dimensional data.  The matrix here is the source of truth the Table-I
benchmark prints, and the integration tests check that the *measured*
behaviour of the implementations is consistent with the claims (e.g. DP-GM's
per-cluster generators collapse diversity, PrivBayes degrades with
dimensionality).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Capability", "CAPABILITY_MATRIX", "capability_table"]


@dataclass(frozen=True)
class Capability:
    """Claimed capabilities of one synthesizer (a row of Table I)."""

    model: str
    differentially_private: bool
    diverse_samples: bool
    high_dimensional: bool


CAPABILITY_MATRIX: tuple = (
    Capability("PrivBayes", differentially_private=True, diverse_samples=True, high_dimensional=False),
    Capability("DP-VAE", differentially_private=True, diverse_samples=False, high_dimensional=False),
    Capability("DP-GM", differentially_private=True, diverse_samples=False, high_dimensional=True),
    Capability("P3GM", differentially_private=True, diverse_samples=True, high_dimensional=True),
)


def capability_table() -> str:
    """Render Table I as a fixed-width text table."""
    header = f"{'Model':<12}{'DP':<6}{'Diverse':<10}{'High-dim':<10}"
    lines = [header, "-" * len(header)]
    for row in CAPABILITY_MATRIX:
        lines.append(
            f"{row.model:<12}"
            f"{'yes' if row.differentially_private else 'no':<6}"
            f"{'yes' if row.diverse_samples else 'no':<10}"
            f"{'yes' if row.high_dimensional else 'no':<10}"
        )
    return "\n".join(lines)
