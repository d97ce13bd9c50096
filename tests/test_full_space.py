"""The full design space and noise-robust exploration."""

import random

from repro.bench import Wayfinder
from repro.explore import (
    Evaluator,
    ExplorationRequest,
    Measurement,
    ProfileEvaluator,
    explore,
)
from repro.explore.configspace import generate_fig6_space, generate_full_space
from repro.explore.formal import certify
from repro.explore.poset import ConfigPoset

EVALUATOR = ProfileEvaluator(app="redis")


def run(layouts, evaluator=EVALUATOR, budget=500_000):
    return explore(ExplorationRequest(
        layouts=layouts, evaluator=evaluator, budget=budget,
    ))


class TestFullSpace:
    def test_224_configurations(self):
        """14 partitions of 4 components into <= 3 groups, x 2^4."""
        layouts = generate_full_space()
        assert len(layouts) == 224

    def test_names_unique(self):
        layouts = generate_full_space()
        names = [layout.name for layout in layouts]
        assert len(set(names)) == len(names)

    def test_fig6_space_is_a_subset_structurally(self):
        """Every Fig. 6 partition appears in the full space."""
        full_partitions = {
            tuple(sorted(tuple(sorted(g)) for g in layout.partition))
            for layout in generate_full_space()
        }
        for layout in generate_fig6_space():
            key = tuple(sorted(tuple(sorted(g)) for g in layout.partition))
            assert key in full_partitions

    def test_poset_over_full_space(self):
        poset = ConfigPoset(generate_full_space())
        assert len(poset) == 224
        assert poset.check_invariants()

    def test_exploration_scales_and_certifies(self):
        layouts = generate_full_space()
        result = run(layouts)
        assert result.evaluations < len(layouts) / 2  # pruning bites
        assert certify(result).valid

    def test_full_space_finds_at_least_as_safe_answers(self):
        """A superset space can only improve (or match) the answer."""
        fig6 = run(generate_fig6_space())
        full = run(generate_full_space())
        assert len(full.passing) >= len(fig6.passing)


class NoisyEvaluator(Evaluator):
    """Wayfinder's repetition+median in front of a noisy measurement.

    Draws from a live RNG, so it can be neither cached nor pooled.
    """

    name = "noisy-redis"  # deliberately not registered
    parallel_safe = False
    cacheable = False

    def __init__(self, rng):
        self.rng = rng
        self.wayfinder = Wayfinder()

    def __call__(self, layout):
        sweep = self.wayfinder.sweep([layout],
                                     lambda l: EVALUATOR(l).value,
                                     repetitions=5, noise=self.rng)
        return Measurement(sweep.value_of(layout.name))


class TestNoisyExploration:
    def test_noisy_measurements_still_certify(self):
        """With Wayfinder's repetition+median in front of a noisy
        measurement, the explorer's answer remains certifiable."""
        result = run(generate_fig6_space(),
                     evaluator=NoisyEvaluator(random.Random(7)))
        assert certify(result).valid
        # The answer matches the noise-free one up to budget-line churn.
        clean = run(generate_fig6_space())
        overlap = set(result.recommended) & set(clean.recommended)
        assert overlap  # the core of the recommendation set is stable
