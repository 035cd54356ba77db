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

    Returns the list of ``start_from_hint`` outcomes, one per hinted solve.
    """
    from gridstudy.lp import _Tableau

    accepted = []
    start, run = _Tableau.start_from_hint, _Tableau.run

    def start_and_mark(self, hint):
        self.warm = start(self, hint)
        accepted.append(self.warm)
        return self.warm

    def run_and_fail_warm(self, cost):
        status = run(self, cost)
        return "numerical" if getattr(self, "warm", False) else status

    monkeypatch.setattr(_Tableau, "start_from_hint", start_and_mark)
    monkeypatch.setattr(_Tableau, "run", run_and_fail_warm)
    return accepted
