"""Ledger of outputs and work counts for five small seeded runs.

Each config runs through ``cli.run``.  The test compares a hash of its
replication rows (every field but ``wall_clock``), the number of oracle
walks of both kinds (``walks``: per-pair ``discovery._reachable`` calls;
``all_target_walks``: ``reach_all`` calls from ``discovery`` and ``ci``)
and each replication's ``ci_tests`` with the values stored in
``ledger.json``.  A change that should not alter outputs leaves that file
alone; one that alters them on purpose rewrites it with
``PYTHONPATH=src python tests/test_ledger.py`` and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from magorder import ci, cli, discovery

LEDGER = Path(__file__).with_name("ledger.json")

# Together: all three searchers, both testers, latents and orientation.
CONFIGS = {
    "oracle-hc-er40": {
        "graph": {"kind": "er", "n": 40, "p": 0.08}, "replications": 3},
    "oracle-vi-er12-latent2": {
        "graph": {"kind": "er", "n": 12, "p": 0.25}, "latent": {"count": 2},
        "searcher": {"kind": "vi"}, "replications": 3},
    "oracle-pg-asia": {
        "graph": {"kind": "bundled", "name": "asia"},
        "searcher": {"kind": "pg", "episodes": 40}, "replications": 2},
    "fisherz-insurance-latent3": {
        "graph": {"kind": "bundled", "name": "insurance"},
        "latent": {"count": 3},
        "tester": {"kind": "fisher_z", "alpha": 0.025, "num_samples": 1350,
                   "standardize": True},
        "searcher": {"kind": "hc", "initializer": "mb_recursive"},
        "max_sep_size": 2, "replications": 3},
    "fisherz-vi-sachs": {
        "graph": {"kind": "bundled", "name": "sachs"},
        "tester": {"kind": "fisher_z", "num_samples": 500},
        "searcher": {"kind": "vi"}, "replications": 2},
}


def measure(raw):
    """The ledger entry of one config: row hash, walks and CI tests."""
    counts = {"walks": 0, "all_target_walks": 0}

    def counted(field, walk):
        def wrapper(*args, **kwargs):
            counts[field] += 1
            return walk(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discovery, "_reachable",
                      counted("walks", discovery._reachable))
        for module in (discovery, ci):
            patch.setattr(module, "reach_all",
                          counted("all_target_walks", module.reach_all))
        rows = cli.run(cli.ExperimentConfig.from_dict(raw)).rows
    fixed = [{k: v for k, v in row.items() if k != "wall_clock"}
             for row in rows]
    digest = hashlib.sha256(json.dumps(fixed, sort_keys=True).encode())
    return {"rows_sha256": digest.hexdigest(), **counts,
            "ci_tests": [row["ci_tests"] for row in rows]}


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_and_work_counts_match_ledger(name):
    assert measure(CONFIGS[name]) == json.loads(LEDGER.read_text())[name]


if __name__ == "__main__":
    LEDGER.write_text(json.dumps({name: measure(raw)
                                  for name, raw in CONFIGS.items()},
                                 indent=2) + "\n")
