"""Workload identity: the digest follows the seed and nothing else."""

import pytest

from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_equal_seeds_give_equal_digests_and_new_seeds_new_ones(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload(seed=5, scratch=tmp_path / "a").digest()
    assert workload(seed=5, scratch=tmp_path / "b").digest() == first
    assert workload(seed=6, scratch=tmp_path / "a").digest() != first


def test_digest_leaves_out_execution_shape(tmp_path):
    serve = WORKLOADS["serve"]

    class Rechecked(serve):
        checkpoint_every_records = 7

    assert Rechecked(seed=5, scratch=tmp_path).digest() == serve(
        seed=5, scratch=tmp_path
    ).digest()


def test_workloads_differ_from_each_other(tmp_path):
    digests = {WORKLOADS[name](seed=5, scratch=tmp_path).digest() for name in WORKLOADS}
    assert len(digests) == len(WORKLOADS)
