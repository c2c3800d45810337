"""Human-readable explanations of rank computations (paper §5).

The potential-flow model is easy to trust when you can see the flow: for
each matched keyword this module renders the path from the result node
to every terminal point, the child-count divisions along it, and the
potential that arrives — the arithmetic of the paper's Example 5,
reproduced per result.

``explain_rank`` works from a :class:`RankBreakdown` plus the index (for
child counts); ``GKSEngine.explain`` adds element tags from the
repository for readability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ranking import RankBreakdown, received_potential
from repro.index.builder import GKSIndex
from repro.xmltree.dewey import Dewey, format_dewey
from repro.xmltree.repository import Repository


@dataclass(frozen=True)
class FlowStep:
    """One division of the potential on its way down."""

    dewey: Dewey
    tag: str | None
    child_count: int


@dataclass(frozen=True)
class TerminalExplanation:
    keyword: str
    terminal: Dewey
    received: float
    steps: tuple[FlowStep, ...]


@dataclass(frozen=True)
class RankExplanation:
    dewey: Dewey
    score: float
    initial_potential: int
    terminals: tuple[TerminalExplanation, ...]
    #: a probabilistic node's rank; ``score`` is then its structural rank
    probability: float | None = None

    def render(self) -> str:
        rank = (f"rank = {self.score:.4f}" if self.probability is None
                else f"probability = {self.probability:.4f}, "
                     f"structural rank = {self.score:.4f}")
        lines = [
            f"node {format_dewey(self.dewey)}: "
            f"P = {self.initial_potential} distinct keyword(s), {rank}"
        ]
        for terminal in self.terminals:
            route = " / ".join(
                f"{step.tag or '?'}[{step.child_count}]"
                for step in terminal.steps) or "(at the node itself)"
            lines.append(
                f"  {terminal.keyword!r} -> "
                f"{format_dewey(terminal.terminal)}  via {route}  "
                f"receives {terminal.received:.4f}")
        return "\n".join(lines)


def explain_rank(index: GKSIndex, breakdown: RankBreakdown,
                 repository: Repository | None = None) -> RankExplanation:
    """Expand a :class:`RankBreakdown` into per-terminal flow accounts."""
    potential = float(breakdown.initial_potential)
    explanations: list[TerminalExplanation] = []
    for keyword, points in breakdown.terminals.items():
        for terminal in points:
            steps = _flow_steps(index, breakdown.dewey, terminal,
                                repository)
            received = received_potential(index, breakdown.dewey,
                                          terminal, potential)
            explanations.append(TerminalExplanation(
                keyword=keyword, terminal=terminal, received=received,
                steps=tuple(steps)))
    return RankExplanation(dewey=breakdown.dewey, score=breakdown.score,
                           initial_potential=breakdown.initial_potential,
                           terminals=tuple(explanations))


def _flow_steps(index: GKSIndex, root: Dewey, terminal: Dewey,
                repository: Repository | None) -> list[FlowStep]:
    steps: list[FlowStep] = []
    for length in range(len(root), len(terminal)):
        prefix = terminal[:length]
        children = index.hashes.child_count(index.layout.pack(prefix)) or 1
        tag = None
        if repository is not None:
            node = repository.node_at(prefix)
            tag = node.tag if node is not None else None
        steps.append(FlowStep(dewey=prefix, tag=tag,
                              child_count=children))
    return steps
