"""Every output check fails on a tampered output.

The workload tests run one small round for real, confirm the check
passes, then tamper with one output and confirm the check fails.
"""

import copy
import types

from perfbench import checks
from perfbench.workloads import FieldTest, Fleet, Rank, Samples, Serve
from repro.db import eq
from repro.experiments import TABLE1_EXPECTED, TABLE2_EXPECTED


class SmallServe(Serve):
    phones = 24


class SmallFleet(Fleet):
    phones = 24


class SmallRank(Rank):
    places = 6
    refreshes = 2
    profile_pool = 8
    warm_repeats = 2


def _round(workload):
    state = workload.setup(warmup=False)
    workload.run(state, Samples(), None)
    return state


def test_session_check_flags_each_tampered_count():
    ok = dict(phones=3, completed=3, error_replies=0, replay_mismatches=0)
    assert checks.session_problems(**ok) == []
    for key, value in (("completed", 2), ("error_replies", 1), ("replay_mismatches", 1)):
        assert checks.session_problems(**{**ok, key: value})


def test_serve_round_passes_and_fails_on_a_bad_pull_or_a_lost_task(tmp_path):
    workload = SmallServe(seed=3, scratch=tmp_path)
    state = _round(workload)
    try:
        assert workload.check(state) == []
        state.log.mismatches += 1
        assert any("pulls differ" in p for p in workload.check(state))
        state.log.mismatches -= 1
        state.server.database.table("tasks").delete(eq("task_id", state.log.acked_tasks[0]))
        assert any("missing on the primary" in p for p in workload.check(state))
    finally:
        workload.teardown(state)


def test_fleet_round_passes_and_fails_on_a_task_lost_by_a_replica(tmp_path):
    workload = SmallFleet(seed=3, scratch=tmp_path)
    state = _round(workload)
    try:
        assert workload.check(state) == []
        task_id = state.log.acked_tasks[0]
        shard = state.cluster.shards[task_id.rsplit(":task-", 1)[0]]
        shard.replicas[0].database.table("tasks").delete(eq("task_id", task_id))
        problems = workload.check(state)
        assert any("caught-up replicas" in p for p in problems)
        assert not any("primaries" in p for p in problems)
    finally:
        workload.teardown(state)


def test_rank_round_passes_and_fails_on_a_tampered_cold_reply(tmp_path):
    workload = SmallRank(seed=3, scratch=tmp_path)
    state = _round(workload)
    try:
        assert workload.check(state) == []
        tampered = copy.deepcopy(state.last_cold[0])
        places = tampered["rankings"][0]["places"]
        places[0], places[1] = places[1], places[0]
        state.last_cold[0] = tampered
        assert any("differs from uncached" in p for p in workload.check(state))
    finally:
        workload.teardown(state)


def test_footrule_bound_check_fails_outside_the_diaconis_graham_band():
    def reply(footrule, kemeny):
        return {"rankings": [{"profile": "p", "weighted_footrule": footrule,
                              "weighted_kemeny": kemeny}]}

    assert checks.footrule_bound_problems(reply(6.0, 4.0)) == []
    assert checks.footrule_bound_problems(reply(9.0, 4.0))
    assert checks.footrule_bound_problems(reply(3.0, 4.0))


def test_reference_check_fails_on_a_changed_score_or_profile_set():
    report = types.SimpleNamespace(
        ranking=types.SimpleNamespace(items=("a", "b")),
        weighted_footrule=2.0,
        weighted_kemeny=1.0,
    )
    served = {"rankings": [{"profile": "p", "places": ["a", "b"],
                            "weighted_footrule": 2.0, "weighted_kemeny": 1.0}]}
    assert checks.reference_problems(served, {"p": report}) == []
    changed = copy.deepcopy(served)
    changed["rankings"][0]["weighted_footrule"] = 2.5
    assert checks.reference_problems(changed, {"p": report})
    assert checks.reference_problems(served, {"q": report})


def test_fieldtest_check_fails_on_a_ranking_that_differs_from_the_tables(tmp_path):
    workload = FieldTest(seed=42, scratch=tmp_path)
    state = types.SimpleNamespace(
        failed_sends=0,
        warmup=False,
        rankings={"coffee_shop": copy.deepcopy(TABLE2_EXPECTED),
                  "hiking_trail": copy.deepcopy(TABLE1_EXPECTED)},
    )
    assert workload.check(state) == []
    row = state.rankings["hiking_trail"]["Alice"]
    row[0], row[2] = row[2], row[0]
    assert any("Table I Alice" in p for p in workload.check(state))
    state.rankings["hiking_trail"] = copy.deepcopy(TABLE1_EXPECTED)
    state.failed_sends = 1
    assert workload.check(state) == ["1 failed sends"]
