"""A seed census of acceptance criteria 6 and 7 (slow tier).

The acceptance suite checks criterion 6 at seed 11 and criterion 7 at seed
42.  This test runs the same conditions (test_acceptance's functions) over
fixed seed lists and fails when a pass count falls below the count recorded
in tests/data/criteria_census.json:

- criterion_6: the three 30-step runs at each of seeds 0-99;
- criterion_7_step_0: the step-0 condition of one-step runs at seeds 0-99;
- criterion_7: every condition of the 2000-step run at seeds 0-9.

A change to the trajectory rewrites the file's counts in that change and
lists old -> new; the seed lists stay fixed whatever the counts read.  The
runs go to two worker processes, the longest first.
"""
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from test_acceptance import (criterion_6_failures, criterion_6_runs, criterion_7_failures,
                             criterion_7_step_0_holds, enigma_run_dir, steps_rows)

CENSUS = Path(__file__).resolve().parent / "data" / "criteria_census.json"


def census_passes(job) -> bool:
    """Whether seed passes the named census entry; out is a fresh directory."""
    name, seed, out = job
    if name == "criterion_6":
        return not criterion_6_failures(*criterion_6_runs(seed))
    out = Path(out)
    out.mkdir()
    if name == "criterion_7_step_0":
        return criterion_7_step_0_holds(steps_rows(enigma_run_dir(out, seed, 1)))
    return not criterion_7_failures(steps_rows(enigma_run_dir(out, seed, 2000)))


@pytest.mark.slow
def test_criteria_census(tmp_path):
    recorded = json.loads(CENSUS.read_text())
    jobs = [(name, seed, str(tmp_path / f"{name}_{seed}"))
            for name in ("criterion_7", "criterion_6", "criterion_7_step_0")
            for seed in range(recorded[name]["seeds"])]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        outcomes = list(pool.map(census_passes, jobs))
    passing = {name: [seed for (job_name, seed, _), ok in zip(jobs, outcomes)
                      if job_name == name and ok]
               for name in recorded}
    for name, seeds in passing.items():
        print(f"\nCENSUS {name}: {len(seeds)} of seeds 0-{recorded[name]['seeds'] - 1} "
              f"pass (recorded {recorded[name]['passes']}): {seeds}")
    fallen = {name: f"{len(passing[name])} < {entry['passes']}"
              for name, entry in recorded.items() if len(passing[name]) < entry["passes"]}
    assert fallen == {}
