"""Quickstart: index a small XML document and run Generic Keyword Search.

This walks the whole public API on the paper's own running example — the
university document of Fig. 2(a):

1. build an engine from XML text,
2. run an 'imperfect' keyword query (Example 3),
3. inspect the ranked response and its XML snippets,
4. read the Deeper analytical Insights (DI),
5. take a refinement suggestion and run it.

Run:  python examples/quickstart.py
"""

from repro import GKSEngine, Texts

UNIVERSITY_XML = """
<Dept>
  <Dept_Name>CS</Dept_Name>
  <Area>
    <Name>Databases</Name>
    <Courses>
      <Course>
        <Name>Data Mining</Name>
        <Students>
          <Student>Karen</Student><Student>Mike</Student>
          <Student>John</Student>
        </Students>
      </Course>
      <Course>
        <Name>Algorithms</Name>
        <Students>
          <Student>Karen</Student><Student>Julie</Student>
        </Students>
      </Course>
      <Course>
        <Name>AI</Name>
        <Students>
          <Student>Karen</Student><Student>Mike</Student>
          <Student>Serena</Student>
        </Students>
      </Course>
    </Courses>
  </Area>
</Dept>
"""


def main() -> None:
    engine = GKSEngine.open(Texts([UNIVERSITY_XML]))

    # Example 3's 'imperfect' query: the user lists students without
    # knowing who shares a course; harry is not even in the data.
    query = "student karen mike john harry"
    response = engine.search(query, s=2)

    print(f"query: {query!r} (s=2)")
    print(f"{len(response)} result node(s), "
          f"|SL|={response.stats.postings_scanned}, "
          f"{response.stats.total_seconds * 1000:.1f} ms\n")

    for node in response:
        print(engine.describe(node))
    print()

    top = response[0]
    print("top result as an XML chunk:")
    print(engine.snippet(top))

    # DI: the most relevant attribute keywords with their semantics —
    # the course names, exactly the paper's §2.3 discussion.
    print("deeper analytical insights (DI):")
    insights = engine.insights(response, top=5)
    for insight in insights:
        print(f"  {insight.render()}  "
              f"(weight {insight.weight:.2f}, "
              f"{insight.supporting_nodes} node(s))")
    print()

    # refinement: GKS suggests sub-queries from the observed keyword
    # distribution and DI-grown queries (§6.1)
    print("refinement suggestions:")
    for refinement in engine.refine(response, insights):
        keywords = " ".join(refinement.keywords)
        print(f"  [{refinement.kind.value:9s}] {keywords}  "
              f"(support {refinement.support:.2f})")

    # run the strongest subset refinement end-to-end
    best = engine.refine(response, insights)[0]
    refined = engine.search(best.as_query())
    print(f"\nrefined query {best.keywords} -> "
          f"{len(refined)} node(s); top: "
          f"{engine.describe(refined[0])}")


if __name__ == "__main__":
    main()
