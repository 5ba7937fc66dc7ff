"""Workload-resource mapping toolkit, on the standard library alone.

`import wrmap` loads nothing; each name is imported from its module, as
in `from wrmap.regression import fit`:

- `wrmap.core`: the allocation state machine and its three-valued reports;
- `wrmap.regression`: closed-form simple linear regression;
- `wrmap.matcher`: predicted-cost matrices and minimum-cost assignment;
- `wrmap.trace_io`: observation CSV, replay scripts and state snapshots;
- `wrmap.cli`: the `wrmap` command, which wires them together.
"""
