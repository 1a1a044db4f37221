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


@pytest.fixture()
def batch_sizes(monkeypatch):
    """The number of states in each batch that run() evaluates, filled as it runs."""
    from netsaddle import metrics
    sizes = []
    record = metrics.metric_record

    def counted(stack, terms, residuals):
        sizes.append(len(stack.iteration))
        return record(stack, terms, residuals)

    monkeypatch.setattr(metrics, "metric_record", counted)
    return sizes
