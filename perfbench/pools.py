"""The fixed input pools every run draws from, and the seeded order.

Each workload replays a fixed pool of inputs in whole cycles; the
workload seed picks the order of each cycle (and the warm-up prefix and
the checked sample).  Two reasons:

* the recorded match digests (``digests/``, made on the seed commit by
  ``make_digests.py``) cover every input any seed can produce;
* every run holds the same multiset of sessions, so two seeds differ
  only in order and cache history, not in which queries they happened
  to draw, and the run-to-run spread stays inside the bounds.

Each pool holds a hundred or more distinct sessions, so one cycle already
gives every reported percentile its samples, and a p90 falls inside a
spread of per-query costs instead of on the edge between the clusters
of a few repeated queries.
"""

from __future__ import annotations

import random

#: Label-region seeds of the query instances (paper_query_set's
#: ``seed * 37 + 11`` spacing): 20 seeds x 6 templates = 120 sessions,
#: 1040 actions.
EXPENSIVE_SEEDS = tuple(11 + 37 * k for k in range(20))
TEMPLATES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
#: Soak-schedule seed and size of the dblp-service pool: 150 scripts,
#: 138 of them completed, 12 abandoned, 45 with a ModifyBounds, 1299
#: actions.  More than the ~100 sessions the percentiles need: over the
#: wire the ``run`` round trip varies with what the other connection is
#: doing at that moment, so the median of one cycle's runs carries
#: sampling noise (its spread across seeds read 0.16-0.25 with 109 runs,
#: 0.13-0.23 with 138).
SOAK_POOL_SEED = 5
SOAK_POOL_SESSIONS = 150
#: Plain instances per template (paper_query_set label seeds), and the
#: churn rounds they are dealt into, twelve sessions per round.
PLAIN_SEEDS_PER_TEMPLATE = 20
CHURN_ROUNDS = 10
#: Per round: inserts and deletes alternate as I, I, I, D.
CHURN_PATTERN = ("insert", "insert", "insert", "delete")


def expensive_pool(graph):
    """Exp-3 instances (e1 joins the two largest label classes at upper 5)."""
    from repro.experiments.exp3_strategies import exp3_instance

    return [
        (f"{name}#{seed}", exp3_instance("wordnet", name, graph, seed=seed))
        for seed in EXPENSIVE_SEEDS
        for name in TEMPLATES
    ]


def plain_pool(graph):
    """Plain Q1-Q6 instances with default bounds, two label seeds each."""
    from repro.workload.generator import paper_query_set

    instances = paper_query_set(graph, "wordnet", PLAIN_SEEDS_PER_TEMPLATE)
    return [(inst.name, inst) for inst in instances]


def soak_pool(graph):
    """Orion-style session scripts: region-sampled default bounds,
    ~30% mid-formulation ModifyBounds, ~10% abandoned sessions."""
    from repro.workload.traffic import SoakWorkloadConfig, generate_soak_schedule

    config = SoakWorkloadConfig(seed=SOAK_POOL_SEED, sessions=SOAK_POOL_SESSIONS)
    return generate_soak_schedule(graph, config)


def churn_round(graph, round_id: int, sessions: int):
    """Steps ``(kind, u, v, session_index)`` of one churn round.

    Round ``r`` deals its own slice of the ``sessions`` plain instances
    in a shuffled order.  Inserts join two random non-adjacent vertices;
    each delete removes an edge this round inserted earlier and has not
    yet deleted.
    """
    rng = random.Random(1000 + round_id)
    per_round = sessions // CHURN_ROUNDS
    order = [i for i in range(sessions) if i % CHURN_ROUNDS == round_id][:per_round]
    rng.shuffle(order)
    inserted: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    steps = []
    n = graph.num_vertices
    for step, index in enumerate(order):
        kind = CHURN_PATTERN[step % len(CHURN_PATTERN)]
        if kind == "insert":
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                key = (min(u, v), max(u, v))
                if u != v and key not in present and not graph.has_edge(u, v):
                    break
            present.add(key)
            inserted.append(key)
        else:
            key = rng.choice([e for e in inserted if e in present])
            present.discard(key)
        steps.append((kind, key[0], key[1], index))
    return steps


def cycle(n: int, rng: random.Random) -> list[int]:
    """One seeded permutation of ``range(n)``."""
    order = list(range(n))
    rng.shuffle(order)
    return order
