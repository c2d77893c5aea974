"""Pinned corpus path: oracle probes and final checks explore exactly as
recorded.

``corpus_path_counts.json`` holds, for every corpus module with a
model-checking client, what the whole user path produced:
``compile_source`` → ``port_module`` at the AtoMig level with static
fence repair and ``optimize=True`` → ``check_module`` under wmm with
the robustness pre-pass.  Per module it records

- the final check's outcome, verdict source and explored states, plus
  its exploration counters (visited states, transitions, macro/ample
  steps, sleep/loop prunes, dedup hits, peak frontier);
- the weakener's oracle work (checks run, cache and robustness hits,
  oracle states) and result (accesses weakened, fences deleted);
- the optimized port's armv8 barrier cost.

Oracle probes and the final checks dominate the time of this path, so
a change to the explorer, its state digest or the oracle that alters
which states are explored or deduplicated moves a count here.  A
deliberate change must regenerate the file::

    PYTHONPATH=src python tests/integration/test_corpus_path_counts.py --write
"""

import json
import os
import sys

import pytest

from repro.api import check_module, compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import AtoMigConfig, PortingLevel
from repro.vm.costs import cost_model_for, estimate_cost

PATH = os.path.join(os.path.dirname(__file__), "corpus_path_counts.json")
STATS = ("states_visited", "transitions", "macro_steps", "ample_steps",
         "sleep_prunes", "loop_prunes", "dedup_hits", "peak_frontier")
ORACLE = ("checks_run", "cache_hits", "robustness_hits", "oracle_states",
          "accesses_weakened", "fences_deleted")
MODULES = sorted(name for name, bench in BENCHMARKS.items()
                 if bench.mc_source is not None)


def counts(name):
    """The pinned record of one module's trip down the corpus path."""
    module = compile_source(BENCHMARKS[name].mc_source(), name, cache=False)
    ported, report = port_module(module, PortingLevel.ATOMIG,
                                 config=AtoMigConfig(repair_mode=True),
                                 optimize=True)
    result = check_module(ported, model="wmm", robustness=True)
    stats = result.stats.to_dict()
    return {
        "outcome": result.outcome,
        "verdict_source": result.verdict_source,
        "states_explored": result.states_explored,
        "stats": {key: stats[key] for key in STATS},
        "oracle": {key: report.optimization[key] for key in ORACLE},
        "barrier_cost_armv8": estimate_cost(
            ported, cost_model_for("armv8")).barriers,
    }


def _pinned():
    with open(PATH) as handle:
        return json.load(handle)


def test_pinned_modules_cover_the_corpus():
    """Every corpus module with an mc client is pinned, and no stale one."""
    assert sorted(_pinned()) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_corpus_path_counts_unchanged(name):
    assert counts(name) == _pinned()[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {name: counts(name) for name in MODULES}
    with open(PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
