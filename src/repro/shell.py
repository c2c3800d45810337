"""``gks shell`` — an interactive exploration REPL.

A thin terminal front-end over :class:`ExplorationSession`: type
keywords to search, colon-commands to steer.

::

    > karen mike john
    3 node(s) ...
    > :s 2                 set the threshold for subsequent queries
    > :mode relaxed        switch query semantics (strict |
                           probabilistic [P] | relaxed)
    > :di                  show the current step's insights
    > :refine 1            apply refinement #1
    > :drill               re-query with the top DI keywords
    > :explain 0           rank arithmetic of result #0
    > :snippet 0           XML chunk of result #0
    > :back                undo the last step
    > :history             the session transcript
    > :quit
"""

from __future__ import annotations

from typing import Callable, TextIO

from repro.core.engine import GKSEngine
from repro.core.session import ExplorationSession
from repro.errors import GKSError


class Shell:
    """The REPL logic, separated from I/O for testability."""

    def __init__(self, engine: GKSEngine, out: Callable[[str], None]) -> None:
        self.engine = engine
        self.session = ExplorationSession(engine)
        self.out = out
        self.s = 1
        self.limit = 8
        self.mode = engine.config.mode
        self.threshold = engine.config.threshold
        self.running = True

    # ------------------------------------------------------------------
    def handle(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        if line.startswith(":"):
            self._command(line[1:])
        else:
            self._query(line)

    def _query(self, text: str) -> None:
        try:
            step = self.session.run(text, s=self.s, mode=self.mode,
                                    threshold=self.threshold)
        except GKSError as error:
            self.out(f"error: {error}")
            return
        self._show_results(step)

    def _show_results(self, step) -> None:
        response = step.response
        semantics = (f", mode={response.semantics.mode}"
                     if response.semantics is not None else "")
        self.out(f"{len(response)} node(s) for {response.query}  "
                 f"[{response.stats.total_seconds * 1000:.1f} ms"
                 f"{semantics}]")
        for position, node in enumerate(response.top(self.limit)):
            line = self.engine.describe(node)
            if node.probability is not None:
                line += f"  p={node.probability:.4f}"
            if node.relaxation is not None:
                line += f"  [{node.relaxation.describe()}]"
            self.out(f"  [{position}] {line}")
        if len(response) > self.limit:
            self.out(f"  ... {len(response) - self.limit} more")

    # ------------------------------------------------------------------
    def _command(self, body: str) -> None:
        parts = body.split()
        name, arguments = parts[0], parts[1:]
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            self.out(f"unknown command :{name} (try :help)")
            return
        try:
            handler(arguments)
        except GKSError as error:
            self.out(f"error: {error}")
        except (ValueError, IndexError) as error:
            self.out(f"error: {error}")

    def _cmd_help(self, arguments) -> None:
        self.out("commands: :s N  :mode M [P]  :di  :refine N  :drill  "
                 ":explain N  :snippet N  :back  :history  :stats  :quit")

    def _cmd_s(self, arguments) -> None:
        self.s = max(1, int(arguments[0]))
        self.out(f"s = {self.s}")

    def _cmd_mode(self, arguments) -> None:
        """``:mode strict | probabilistic [P] | relaxed`` — switch the
        query semantics for subsequent queries."""
        from repro.core.config import MODES

        if not arguments:
            threshold = (f" >= {self.threshold:g}"
                         if self.mode == "probabilistic" else "")
            self.out(f"mode = {self.mode}{threshold}")
            return
        from repro.errors import ConfigError

        mode = arguments[0]
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r} "
                              f"(one of {', '.join(sorted(MODES))})")
        self.mode = mode
        if len(arguments) > 1:
            self.threshold = float(arguments[1])
        if mode == "probabilistic" \
                and self.engine.config.mode != "probabilistic":
            self.out("note: this engine was opened without "
                     "mode='probabilistic'; probabilistic queries will "
                     "be rejected until it is reopened with compiled "
                     "probability tables")
        threshold = (f" >= {self.threshold:g}"
                     if mode == "probabilistic" else "")
        self.out(f"mode = {self.mode}{threshold}")

    def _cmd_di(self, arguments) -> None:
        step = self.session.current
        if not step.insights.insights:
            self.out("no insights for this step")
            return
        for insight in step.insights:
            self.out(f"  {insight.render()}  "
                     f"weight={insight.weight:.2f}")
        for position, refinement in enumerate(step.refinements):
            self.out(f"  refine[{position}] "
                     f"({refinement.kind.value}) "
                     f"{' '.join(refinement.keywords)}")

    def _cmd_refine(self, arguments) -> None:
        choice = int(arguments[0]) if arguments else 0
        step = self.session.refine(choice)
        self._show_results(step)

    def _cmd_drill(self, arguments) -> None:
        step = self.session.drill_down()
        self._show_results(step)

    def _cmd_explain(self, arguments) -> None:
        node = self._result(int(arguments[0]) if arguments else 0)
        self.out(self.engine.explain(node))

    def _cmd_snippet(self, arguments) -> None:
        node = self._result(int(arguments[0]) if arguments else 0)
        self.out(self.engine.highlighted_snippet(
            node, self.session.current.query))

    def _cmd_back(self, arguments) -> None:
        step = self.session.back()
        self._show_results(step)

    def _cmd_history(self, arguments) -> None:
        self.out(self.session.transcript())

    def _cmd_stats(self, arguments) -> None:
        """Session observability: searches, cache, slow queries."""
        searches = self.engine.metrics_registry.counter(
            "gks_searches_total").total()
        info = self.engine.cache_info()
        self.out(f"searches: {searches:.0f}  "
                 f"cache: {info['hits']} hit(s) / {info['misses']} "
                 f"miss(es) / {info['evictions']} eviction(s), "
                 f"{info['size']}/{info['capacity']} entries")
        slow = self.engine.slow_queries()
        threshold_ms = self.engine.slow_log.threshold_s * 1000
        self.out(f"slow queries (>= {threshold_ms:.0f} ms): {len(slow)}")
        for entry in slow:
            self.out(f"  {entry.render()}")

    def _cmd_quit(self, arguments) -> None:
        self.running = False

    def _result(self, position: int):
        nodes = self.session.current.response.nodes
        if not 0 <= position < len(nodes):
            raise IndexError(f"result {position} out of range "
                             f"(0..{len(nodes) - 1})")
        return nodes[position]


def run_shell(engine: GKSEngine, stdin: TextIO,
              write: Callable[[str], None],
              prompt: str = "> ") -> None:
    """Drive a :class:`Shell` from a text stream (stdin or a test)."""
    shell = Shell(engine, write)
    write("GKS shell — keywords to search, :help for commands")
    while shell.running:
        write(prompt)
        line = stdin.readline()
        if not line:
            break
        shell.handle(line)
