import hypothesis
import numpy as np
import pytest

from netsaddle import build_topology, make_bilinear_quadratic, metropolis_weights

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")

# The benchmark setup shared across the suite: 16-node ring, zero-sum
# bilinear-quadratic instance (problem seed 7), normal start (seed 8).
PROBLEM_SEED = 7
INIT_SEED = 8
MU = 0.1


@pytest.fixture(scope="session")
def ring16_problem():
    return make_bilinear_quadratic(16, 2, 2, MU, seed=PROBLEM_SEED,
                                   zero_sum_centers=True)


@pytest.fixture(scope="session")
def ring16_W():
    return metropolis_weights(build_topology("ring", 16))


@pytest.fixture(scope="session")
def z0_16():
    return np.random.default_rng(INIT_SEED).standard_normal((16, 4))


@pytest.fixture(scope="session")
def random1024():
    """The benchmark's random1024-dogt setup at workload seed 0: problem,
    Metropolis weights of the random graph (which gather), start."""
    problem = make_bilinear_quadratic(1024, 2, 2, MU, seed=PROBLEM_SEED,
                                      zero_sum_centers=True)
    W = metropolis_weights(build_topology("random", 1024, seed=1000, edge_probability=0.01))
    return problem, W, np.random.default_rng(INIT_SEED).standard_normal((1024, 4))


@pytest.fixture()
def batch_sizes(monkeypatch):
    """The number of states in each ``metric_record`` call of run(), filled as
    it runs.  A call gets recorded states only, up to a batch of them
    gathered across batches: at record_every 1, those of one batch."""
    from netsaddle import metrics
    sizes = []
    record = metrics.metric_record

    def counted(rows, stack, *args):
        sizes.append(len(stack.iteration))
        return record(rows, stack, *args)

    monkeypatch.setattr(metrics, "metric_record", counted)
    return sizes
