"""The benchmark's output checks must count a corrupted result as failed.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_checks.py``.
"""

import dataclasses
import random

import pytest

from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators

from checks import FindChecker, Tally, check_answer


@pytest.fixture(scope="module")
def planted_find():
    graph, planted = generators.planted_near_clique(
        n=80, clique_fraction=0.4, epsilon=0.008, background_p=0.05, seed=3
    )
    runner = DistNearCliqueRunner(
        epsilon=0.2, sample_probability=6 / 80, max_sample_size=None, rng=random.Random(2)
    )
    result = runner.run(graph)
    assert result.labelled_nodes, "the fixture must label some nodes"
    return graph, planted, result


def flip_one_label(result):
    """The same result with one labelled node's label dropped."""
    node = min(result.labelled_nodes)
    return dataclasses.replace(result, labels={**result.labels, node: None})


def test_correct_find_passes(planted_find):
    graph, planted, result = planted_find
    checker = FindChecker(graph, 0.2, planted=(planted.size, 0.4))
    tally = Tally()
    tally.add(checker.check(result))
    assert tally.attempted == 1 and tally.failures == []


def test_find_with_flipped_label_counts_as_failed(planted_find):
    graph, planted, result = planted_find
    checker = FindChecker(graph, 0.2, planted=(planted.size, 0.4))
    tally = Tally()
    tally.add(checker.check(flip_one_label(result)))
    assert tally.attempted == 1 and len(tally.failures) == 1
    assert "centralized finder" in tally.failures[0]


def test_aborted_find_counts_as_failed(planted_find):
    graph, _, result = planted_find
    aborted = dataclasses.replace(result, aborted=True, abort_reason="sample size")
    assert FindChecker(graph, 0.2).check(aborted) is not None


def test_service_answer_with_flipped_label_counts_as_failed(planted_find):
    _, _, result = planted_find
    assert check_answer(result, result) is None
    assert check_answer(flip_one_label(result), result) is not None
