"""The paper, example by example.

Walks every worked example of the paper in order on this implementation
and prints the paper's claim next to the measured outcome:

  Table 1 / Example 1   GKS vs ELCA vs SLCA on the Fig. 1 tree
  Example 2 (QD2)       the four-author DBLP query
  Example 3 (Q4)        the 'imperfect' university query
  Example 4             the LCP/LCE bookkeeping on its merged list
  Example 5             the potential-flow ranks
  §6.1                  Q3's subset refinements
  §7.4                  the DI-driven refinement payoff

Run:  python examples/paper_walkthrough.py
"""

from repro import GKSEngine, Query, load_dataset
from repro.baselines import elca, slca_indexed_lookup_eager
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.refinement import suggest_subsets

NAMES = {(0,): "r", (0, 0): "x1", (0, 0, 3): "x2", (0, 1): "x3",
         (0, 2): "x4"}


def name_of(dewey):
    return NAMES.get(dewey, ".".join(map(str, dewey)))


def table1_and_example5() -> None:
    print("== Table 1 + Example 5 (Fig. 1) ==")
    engine = GKSEngine(load_dataset("figure1"))
    for qid, keywords, s in (("Q1", ["a", "b", "c"], 3),
                             ("Q2", ["a", "b", "e"], 2),
                             ("Q3", ["a", "b", "c", "d"], 2)):
        response = engine.search(Query.of(keywords, s=s))
        gks = [f"{name_of(node.dewey)}({node.score:g})"
               for node in response]
        full = Query.of(keywords, s=len(keywords))
        elcas = [name_of(dewey) for dewey in elca(engine.index, full)]
        slcas = [name_of(dewey)
                 for dewey in slca_indexed_lookup_eager(engine.index,
                                                        full)]
        print(f"  {qid} s={s}: GKS={gks or 'NULL'}  "
              f"ELCA={elcas or 'NULL'}  SLCA={slcas or 'NULL'}")
    print("  paper: Q3 ranks x2=3, x3=2.5, x4=2\n")


def example2() -> None:
    print("== Example 2 (QD2 on DBLP) ==")
    engine = GKSEngine(load_dataset("dblp"))
    response = engine.search(
        '"Peter Buneman" "Wenfei Fan" "Scott Weinstein" '
        '"Prithviraj Banerjee"', s=1)
    print(f"  {len(response)} articles for s=1 (paper: 234 on real DBLP)")
    trio_on_top = all(node.distinct_keywords == 3
                      for node in response.top(4))
    print(f"  top-4 are three-author articles: {trio_on_top} "
          f"(paper: 4 of the 5 joint articles rank top)")
    insights = engine.insights(response, top=6)
    rendered = [insight.render() for insight in insights]
    print(f"  DI: {rendered[:4]}")
    print("  paper DI: <ip: journal: SIGMOD Record>, <ip: year: 2001>, "
          "<ip: author: Alok N Choudhary>, <ip: booktitle: ICPP>\n")


def example3() -> None:
    print("== Example 3 (Q4 on Fig. 2(a)) ==")
    engine = GKSEngine(load_dataset("figure2a"))
    response = engine.search("student karen mike john harry", s=2)
    for node in response.top(3):
        element = engine.node_at(node.dewey)
        course = element.find_first("Name").text
        print(f"  <Course {course}> score={node.score:g} "
              f"keywords={node.matched_keywords}")
    print("  paper: the three courses, ranked, with course names as "
          "context\n")


def example4() -> None:
    print("== Example 4 (LCP list arithmetic) ==")
    engine = GKSEngine(load_dataset("figure2a"))
    query = Query.of(["karen", "mike"], s=2)
    sl = merged_list(engine.index, query)
    lcp = compute_lcp_list(sl, 2)
    print(f"  |SL|={len(sl)}, LCP entries={len(lcp)}")
    for dewey, entry in lcp.entries.items():  # packed ids
        print(f"    {engine.index.layout.format(dewey)}: "
              f"counter={entry.counter} "
              f"-> estimate {lcp.s + entry.counter - 1}")
    print("  paper: estimates are s + counter - 1\n")


def refinement_walk() -> None:
    print("== §6.1 + §7.4 (refinement) ==")
    engine = GKSEngine(load_dataset("figure1"))
    response = engine.search(Query.of(["a", "b", "c", "d"], s=2))
    subsets = [" ".join(refinement.keywords)
               for refinement in suggest_subsets(response)]
    print(f"  Q3 refines to: {subsets[:2]} (paper: {{a,b,c}}, {{a,b,d}})")

    dblp = GKSEngine(load_dataset("dblp"))
    qd1 = dblp.search('"Dimitrios Georgakopoulos" "Joe D. Morrison"')
    report = dblp.insights(qd1, top=10)
    coauthor = next((insight for insight in report
                     if "Rusinkiewicz" in insight.value), None)
    print(f"  QD1 DI reveals: {coauthor.render() if coauthor else '??'}")
    refined = dblp.search(
        '"Dimitrios Georgakopoulos" "Marek Rusinkiewicz"', s=2)
    print(f"  refined query finds {len(refined)} joint articles "
          f"(paper: 10)")


def main() -> None:
    table1_and_example5()
    example2()
    example3()
    example4()
    refinement_walk()


if __name__ == "__main__":
    main()
