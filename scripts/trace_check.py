#!/usr/bin/env python3
"""Structural gate on a `repro --trace` artifact of the default run.

    python3 scripts/trace_check.py trace.json

Two facts about a five-preset run that byte-comparing two traces cannot
catch, because a regression would change both the same way:

* the extractions are shuffled once: exactly 1 claims build
  (`fuse.claims_builds`); the presets span two provenance granularities,
  so the claims are projected into exactly 2 claim graphs and 3 presets
  reuse one (`fuse.graph_builds`, `fuse.graph_reuses`) — all
  process-level counters;
* fusion rounds are kernels over the claim graph: no `round` span has a
  `shuffle` descendant (the grouping job's shuffle sits under
  `fuse/group`, the diagnosis job's under `diagnose`).

Exits 1 naming every violated fact.
"""

import json
import sys

EXPECTED = {"fuse.claims_builds": 1, "fuse.graph_builds": 2, "fuse.graph_reuses": 3}


def shuffling_rounds(node, path="", in_round=False):
    """Paths of `shuffle` spans that sit below a `round` span."""
    path = f"{path}/{node['name']}" if path else node["name"]
    if in_round and node["name"] == "shuffle":
        yield path
    in_round = in_round or node["name"] == "round"
    for child in node.get("children", []):
        yield from shuffling_rounds(child, path, in_round)


def check(trace):
    """Violations found in a parsed trace.json, as messages."""
    run = trace["run"]["deterministic"]
    counters = {c["name"]: c["value"] for c in run["counters"]}
    errors = [
        f"{name} = {counters.get(name)}, expected {want}"
        for name, want in EXPECTED.items()
        if counters.get(name) != want
    ]
    errors += [f"a fusion round shuffles: {p}" for p in shuffling_rounds(run["spans"])]
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        errors = check(json.load(f))
    for error in errors:
        print(f"TRACE CHECK FAILED: {error}", file=sys.stderr)
    if not errors:
        print("trace check: 1 claims build, 2 graph projections, 3 reuses, no round shuffles")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
