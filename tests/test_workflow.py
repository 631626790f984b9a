"""CI runs one job: every Python and the numpy floor are configurations of
its matrix, so each step is written once.

PyYAML is not among the test dependencies, so without it these tests skip.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

#: (python-version, numpy requirement) of each configuration
CONFIGURATIONS = {
    ("3.10", "numpy"), ("3.11", "numpy"), ("3.12", "numpy"), ("3.13", "numpy"),
    ("3.10", "numpy==1.23.*"),
}


@pytest.fixture(scope="module")
def jobs():
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]


def test_one_job_whose_matrix_is_the_five_configurations(jobs):
    assert list(jobs) == ["tests"]
    strategy = jobs["tests"]["strategy"]
    # an include-only matrix expands to its entries, one configuration each
    assert list(strategy["matrix"]) == ["include"]
    entries = strategy["matrix"]["include"]
    assert all(set(e) == {"python-version", "numpy"} for e in entries), entries
    pairs = [(e["python-version"], e["numpy"]) for e in entries]
    assert len(pairs) == len(set(pairs)) and set(pairs) == CONFIGURATIONS
    # a failing configuration must not cancel the others
    assert strategy["fail-fast"] is False


def test_the_install_step_takes_numpy_from_the_matrix(jobs):
    installs = [s["run"] for s in jobs["tests"]["steps"] if "pip install" in s.get("run", "")]
    assert installs == ['python -m pip install "${{ matrix.numpy }}" pytest hypothesis']


def test_no_two_steps_share_a_script(jobs):
    runs = [s["run"] for job in jobs.values() for s in job["steps"] if "run" in s]
    assert len(runs) == len(set(runs))
