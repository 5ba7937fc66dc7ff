"""End-to-end pipeline: observations -> models -> assignment -> state machine.

Reads the 7x7 reference trace shared with the tests, fits one regression
model per (resource, workload) pair, builds the predicted-cost matrix at a
chosen demand level, solves the minimum-cost matching, and then queries the
resulting allocation state.
"""

from pathlib import Path

from wrmap.cli import render_assignment
from wrmap.core import find, map_query
from wrmap.matcher import assign, build_cost_matrix, matrix_to_state
from wrmap.regression import fit
from wrmap.trace_io import parse_observations, write_state

data_dir = Path(__file__).parent.parent / "tests" / "data"
datasets = parse_observations((data_dir / "reference7.csv").read_text())

models = {pair: fit(data) for pair, data in datasets.items()}
resources = [f"R{i}" for i in range(1, 8)]
workloads = [f"W{j}" for j in range(1, 8)]

costs = build_cost_matrix(models, resources, workloads, w_query=0.5)
assignment = assign(costs)

print(render_assignment(assignment))
print("total predicted cost:", costs.total(assignment.marks))

state = matrix_to_state(assignment)
print("R4 runs:", find(state, "R4").payload)
print("who runs W2:", sorted(map_query(state, "W2").payload))
print("snapshot:", write_state(state), end="")
