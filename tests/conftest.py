import csv

import numpy as np
import pytest

from sspaceform import synth
from sspaceform.curve import frenet_apparatus
from sspaceform.manifold import ModelParams
from sspaceform.slant import contact_angles


@pytest.fixture(scope="session")
def params22():
    return ModelParams(m=2, s=2)


@pytest.fixture(scope="session")
def params11():
    return ModelParams(m=1, s=1)


@pytest.fixture(scope="session")
def catenary(params22):
    return synth.legendre_catenary(params22, window=(-2.0, 2.0), n=4001)


@pytest.fixture(scope="session")
def catenary_fd(catenary):
    return frenet_apparatus(catenary)


@pytest.fixture(scope="session")
def circle(params22):
    return synth.flat_circle_trace(params22, radius=2.0)


@pytest.fixture(scope="session")
def geodesic(params22):
    return synth.geodesic_trace(params22)


@pytest.fixture(scope="session")
def case2_curve():
    return synth.case2_order3_curve(window=(-2.0, 2.0), step=1e-3)


@pytest.fixture(scope="session")
def case2_fd(case2_curve):
    return frenet_apparatus(case2_curve)


@pytest.fixture(scope="session")
def case2_profile(case2_curve):
    return contact_angles(case2_curve)


@pytest.fixture(scope="session")
def r6_config():
    return synth.builtin_example_r6()


@pytest.fixture(scope="session")
def r6_steered(r6_config):
    return r6_config.steering_trace(step=1e-3, branch=+1)


@pytest.fixture(scope="session")
def r6_steered_fd(r6_steered):
    return frenet_apparatus(r6_steered, max_order=4)


def k1_case2(ts):
    """k1 = 1/(2+t^2) with analytic derivatives."""
    ts = np.asarray(ts, dtype=float)
    u = 2.0 + ts ** 2
    return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 4.0) / u ** 3


def k1_catenary(ts):
    """k1 = 1/(1+t^2) with analytic derivatives."""
    ts = np.asarray(ts, dtype=float)
    u = 1.0 + ts ** 2
    return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 2.0) / u ** 3


def csv_writer_bytes(path, header, rows) -> bytes:
    """Bytes of csv.writer rows, the reference for the row-format writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()
