import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from redar import (
    ClosedLoop,
    Controller,
    Dims,
    InnovationModel,
    random_closed_loop,
    simulate,
)

settings.register_profile(
    "redar",
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("redar")

# Acceptance tests record one line each; echoed after the run so the
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def acceptance_report():
    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


@pytest.fixture(scope="session")
def mild_loop():
    """Scalar plant under pure excitation feedthrough (u = v).

    Deliberately tame: xi = 1 and a small noise gain keep the bound
    constants moderate, so validity thresholds land at reachable sample
    sizes.
    """
    plant = InnovationModel(a=[[0.3]], b=[[0.2]], c=[[0.3]], k=[[0.2]], psi=[[1.0]])
    controller = Controller(
        af=[[0.0]], b1f=[[0.0]], b2f=[[0.0]], cf=[[0.0]], d1f=[[0.0]], d2f=[[1.0]]
    )
    return ClosedLoop(plant, controller)


@pytest.fixture(scope="session")
def static_loop():
    """Memoryless loop: y = e and u = v, so z is white."""
    plant = InnovationModel(a=[[0.0]], b=[[0.0]], c=[[0.0]], k=[[0.0]], psi=[[1.0]])
    controller = Controller(
        af=[[0.0]], b1f=[[0.0]], b2f=[[0.0]], cf=[[0.0]], d1f=[[0.0]], d2f=[[1.0]]
    )
    return ClosedLoop(plant, controller)


@pytest.fixture(scope="session")
def dynamic_loop():
    """Generic multivariable loop from the standard generator."""
    return random_closed_loop(Dims(3, 2, 2), 0.7, seed=np.random.SeedSequence([1000, 0]))


@pytest.fixture(scope="session")
def siso_loop():
    return random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([7, 0]))


@pytest.fixture(scope="session")
def long_dynamic_traj(dynamic_loop):
    """One long trajectory shared by every Monte Carlo agreement check."""
    return simulate(dynamic_loop, 1_000_000, seed=np.random.SeedSequence([1000, 9]))


@pytest.fixture(scope="session")
def long_static_traj(static_loop):
    return simulate(static_loop, 400_000, seed=np.random.SeedSequence([2000, 9]))
