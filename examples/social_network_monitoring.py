"""Monitor influence and communities over an evolving social network.

The scenario the paper's introduction motivates: a social graph receives a
continuous stream of follows/unfollows, and two standing queries must stay
fresh — influence scores (incremental PageRank) and community structure
(Connected Components). Both run on the same stream; PageRank demonstrates
the accumulative deletion flow (negative events), CC the selective one
(delete tags + request events).

Run: ``python examples/social_network_monitoring.py``
"""

import numpy as np

from repro import DynamicGraph, JetStreamEngine, make_algorithm
from repro.graph import generators
from repro.sim.timing import AcceleratorTimingModel
from repro.streams import StreamGenerator


def build_social_graph(n: int = 2000, m: int = 12000, seed: int = 7):
    """RMAT follower graph (directed) and its symmetric friendship view."""
    edges = generators.rmat(n, m, seed=seed)
    directed = DynamicGraph.from_edges(edges, n)
    seen, friendships = set(), []
    for u, v, w in edges:
        if (u, v) not in seen and (v, u) not in seen:
            seen.add((u, v))
            friendships.append((u, v, w))
    symmetric = DynamicGraph.from_edges(friendships, n, symmetric=True)
    return directed, symmetric


def main() -> None:
    directed, symmetric = build_social_graph()
    print(f"Social graph: {directed.num_vertices} users, "
          f"{directed.num_edges} follow edges")

    influence = JetStreamEngine(directed, make_algorithm("pagerank", tolerance=1e-5))
    communities = JetStreamEngine(symmetric, make_algorithm("cc"))
    influence.initial_compute()
    communities.initial_compute()

    timing = AcceleratorTimingModel()
    # Two independent streams: follows/unfollows arrive on the directed
    # graph; friendship changes on the symmetric one.
    follow_stream = StreamGenerator(directed, seed=13, insertion_ratio=0.7)
    friend_stream = StreamGenerator(symmetric, seed=14, insertion_ratio=0.7)

    for tick in range(1, 6):
        follows = follow_stream.next_batch(40)
        friends = friend_stream.next_batch(40)
        r_inf = influence.apply_batch(follows)
        r_com = communities.apply_batch(friends)

        ranks = r_inf.states
        top = np.argsort(-ranks)[:3]
        labels = r_com.states
        num_communities = len(np.unique(labels))
        inf_us = timing.run_time(r_inf.metrics, stream_records=follows.size).time_us
        com_us = timing.run_time(r_com.metrics, stream_records=friends.size).time_us
        print(
            f"tick {tick}: top influencers {[int(v) for v in top]} "
            f"(rank {ranks[top[0]]:.2f}), {num_communities} communities, "
            f"resets {r_com.vertices_reset:4d}, "
            f"accel time {inf_us:.1f}us + {com_us:.1f}us"
        )

    print("\nDone: both standing queries stayed fresh across 5 update ticks.")


if __name__ == "__main__":
    main()
