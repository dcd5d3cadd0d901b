"""Run a decoded DAG against an HTTP endpoint.

Remote mode sends each node's role-specific prompt plus its predecessors'
responses to the endpoint; the bundled stub simply echoes the prompt back,
which makes the wire format easy to inspect. Swap the endpoint for a real
model server and nothing else changes.
"""
from __future__ import annotations

import numpy as np

from dagswarm import Assignment, RemoteEvaluator, RngFactory, StubServer, decode_dag, execute


def main() -> None:
    server = StubServer().start()
    try:
        gen = RngFactory(seed=8).stream("decode", 0, 0)
        dag = decode_dag(gen.uniform(0, 1, (3, 3)), 0.8, gen)
        print(f"decoded: topo {dag.topo_order}, end {dag.end_node}, edges {sorted(dag.edges)}")

        evaluator = RemoteEvaluator(server.endpoint)
        out = execute(
            dag,
            Assignment.identity(3),
            [np.zeros(1)] * 3,  # parameters are not transmitted in remote mode
            "What is 6 times 7?",
            evaluator,
        )

        for request in server.requests:
            print(f"\nnode {request['node']} ({request['role']}), prior from "
                  f"{[p['node'] for p in request['prior']]}:")
            print("  " + request["prompt"].replace("\n\n", "\n  | "))
        print(f"\nend-node reply starts: {out.splitlines()[0]!r}")
        print(f"evaluator calls recorded: {evaluator.calls}")
    finally:
        server.stop()


if __name__ == "__main__":
    main()
