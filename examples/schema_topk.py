"""Beyond the paper's evaluation: the future-work features.

* schema inference + schema-level categorization (§2.2 future work):
  single-author articles regain their entity-hood;
* top-k search (the head of the full ranking).

Run:  python examples/schema_topk.py
"""

from repro import GKSEngine, load_dataset
from repro.schema import (compare_with_instance_level, infer_schema)


def schema_demo() -> None:
    print("== schema inference & categorization smoothing ==")
    repository = load_dataset("dblp")
    schema = infer_schema(repository)
    article_type = schema.type_of(("dblp", "article"))
    print(f"inferred {len(schema)} element types; dblp/article -> "
          f"{article_type.content_model()}")

    counters = compare_with_instance_level(repository)
    print(f"instance vs schema categorization: "
          f"{counters['agree']}/{counters['total']} agree; "
          f"{counters['promoted_to_entity']} node(s) promoted to entity "
          f"(single-author articles regaining entity-hood)\n")


def topk_demo() -> None:
    print("== top-k search ==")
    engine = GKSEngine(load_dataset("interpro"))
    full = engine.search("kringle domain", s=1)
    top = engine.search_top_k("kringle domain", k=3, s=1)
    print(f"full response: {len(full)} node(s); top-3 equals the head: "
          f"{top.deweys == full.deweys[:3]}")
    for node in top:
        print(" ", engine.describe(node))


def main() -> None:
    schema_demo()
    topk_demo()


if __name__ == "__main__":
    main()
