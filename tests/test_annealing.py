"""Edge-case tests for the annealing engine."""


from repro.place.annealing import AnnealingSchedule, anneal
from repro.utils.rng import make_rng


class _NullProblem:
    """No legal moves at all: the engine must terminate cleanly."""

    def initial_cost(self):
        return 10.0

    def size(self):
        return 4

    def n_nets(self):
        return 2

    def max_rlim(self):
        return 3

    def propose(self, rlim, rng):
        return None

    def delta_cost(self, move):  # pragma: no cover
        raise AssertionError("must not be called")

    def commit(self, move):  # pragma: no cover
        raise AssertionError("must not be called")


class _ZeroCostProblem:
    """Cost hits zero: the engine must stop early, not loop."""

    def __init__(self):
        self.cost = 4.0

    def initial_cost(self):
        return self.cost

    def size(self):
        return 2

    def n_nets(self):
        return 1

    def max_rlim(self):
        return 2

    def propose(self, rlim, rng):
        return "down"

    def delta_cost(self, move):
        return -1.0 if self.cost > 0 else 0.0

    def commit(self, move):
        self.cost = max(0.0, self.cost - 1.0)


class TestAnnealingEdgeCases:
    def test_no_moves_terminates(self):
        stats = anneal(
            _NullProblem(), make_rng(0),
            AnnealingSchedule(inner_num=0.5, max_temperatures=5),
        )
        assert stats.final_cost == stats.initial_cost
        assert stats.n_accepted == 0

    def test_zero_cost_exits(self):
        stats = anneal(
            _ZeroCostProblem(), make_rng(0),
            AnnealingSchedule(inner_num=1.0, max_temperatures=50),
        )
        assert stats.final_cost <= 0.0

    def test_max_temperatures_bounds_runtime(self):
        class Jitter(_ZeroCostProblem):
            def delta_cost(self, move):
                return 0.5

            def commit(self, move):
                self.cost += 0.5

        stats = anneal(
            Jitter(), make_rng(1),
            AnnealingSchedule(
                inner_num=0.5, max_temperatures=3, min_moves=4,
            ),
        )
        assert stats.n_temperatures <= 3

    def test_refining_probe_commits_nothing(self):
        """The temperature probe of a refining run only measures its
        moves; a hot start commits every one of them."""
        class Counting(_ZeroCostProblem):
            def __init__(self):
                super().__init__()
                self.commits = 0

            def delta_cost(self, move):
                return 1.0

            def commit(self, move):
                self.commits += 1
                self.cost += 1.0

        schedule = AnnealingSchedule(max_temperatures=0)
        cold = Counting()
        stats = anneal(cold, make_rng(0), schedule, refine=True)
        assert cold.commits == 0
        assert stats.final_cost == stats.initial_cost

        hot = Counting()
        stats = anneal(hot, make_rng(0), schedule)
        assert hot.commits == hot.size()
        assert stats.final_cost == stats.initial_cost + hot.size()

    def test_schedule_defaults(self):
        schedule = AnnealingSchedule()
        assert schedule.inner_num == 1.0
        assert 0 < schedule.exit_ratio < 1
