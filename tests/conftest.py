"""Shared fixtures: the bundled dataset is generated once per session."""

from pathlib import Path

import pytest

from gridstudy.synthdata import generate_dataset

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("dataset")
    generate_dataset(target)
    return target


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


def config_path(scenario: int) -> Path:
    return CONFIG_DIR / f"scenario{scenario}.ini"


@pytest.fixture
def failing_warm_phase(monkeypatch):
    """Every warm-started LP solve ends its warm phase non-optimal, after its pivots.

    Returns how each failed warm phase started ("hint" or "dual"), one entry
    per hinted solve whose hint was not dropped for phase 1 at once.
    """
    from gridstudy import lp

    starts = []
    phase2 = lp._phase2

    def failing_when_warm(program, tab, start):
        sol = phase2(program, tab, start)
        if start == "cold":
            return sol
        starts.append(start)
        return lp.LpSolution("numerical", None, None, sol.iterations, start)

    monkeypatch.setattr(lp, "_phase2", failing_when_warm)
    return starts
