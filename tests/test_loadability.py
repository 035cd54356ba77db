"""Load-scaling collapse search on analytic and bundled networks."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridstudy
from gridstudy import loadability, powerflow
from gridstudy.loadability import LoadabilityError, average_loadability, compute_loadability
from gridstudy.powerflow import Branch, Bus, BusNetwork
from gridstudy.synthdata import study_network
from oracles import (
    reference_sweep,
    solve_power_flow,
    stressed_network,
    three_bus_case,
    two_bus_case,
    verify_bracket,
    with_loads,
)


def points(net, loads, injections=None):
    """Sweep arrays for hours given as ``{bus: (MW, MVAr)}`` load overrides
    and ``{bus: MW}`` injections; other buses keep their base loads."""
    col = {b.bus_id: i for i, b in enumerate(net.buses)}
    load_mw = np.tile([b.p_load_mw for b in net.buses], (len(loads), 1))
    load_mvar = np.tile([b.q_load_mvar for b in net.buses], (len(loads), 1))
    injection_mw = np.zeros_like(load_mw)
    for h, hour in enumerate(loads):
        for bid, (p, q) in hour.items():
            load_mw[h, col[bid]], load_mvar[h, col[bid]] = p, q
    for h, hour in enumerate(injections or ()):
        for bid, p in hour.items():
            injection_mw[h, col[bid]] = p
    return load_mw, load_mvar, injection_mw


RESULT_ARRAYS = ("lambda_star", "served_load_mw", "region_load_mw", "min_voltage_pu")

#: (network, loadability region, participation factors) of each test network.
CASES = (
    lambda: (two_bus_case(), "LOAD", {"source": 1.0}),
    lambda: (three_bus_case(), "B", {"gen": 0.6, "slack": 0.4}),
    lambda: (study_network(), "QLD", {"qld_gen": 0.5, "qld_csp": 0.5}),
)


def study_hours(net, loads_scale, rng):
    """Study-network hours: every load scaled per hour, and up to a fifth of
    each hour's load injected at the PV buses."""
    load_mw = loads_scale * [b.p_load_mw for b in net.buses]
    load_mvar = loads_scale * [b.q_load_mvar for b in net.buses]
    share = rng.uniform(0.0, 0.2, (len(load_mw), 1)) * load_mw.sum(axis=1, keepdims=True)
    injection_mw = np.where([b.kind == "pv" for b in net.buses], share, 0.0)
    return load_mw, load_mvar, injection_mw


class TestTwoBusAnalytic:
    def test_limit_within_one_step_of_closed_form(self):
        net = two_bus_case()
        res = compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=0.005)
        assert not res.degenerate[0]
        # analytic maximum: V1^2 / (2x) = 5.0 p.u. = 500 MW at base load 100 MW
        assert abs(res.served_load_mw[0] - 500.0) <= 0.005 * 500.0 + 1e-9

    def test_bracketing_invariant_by_resolve(self):
        net = two_bus_case()
        res = compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=0.005)
        at, above = verify_bracket(net, "LOAD", {"source": 1.0}, None,
                                   float(res.lambda_star[0]), 0.005)
        assert at and not above

    def test_no_headroom_when_base_is_the_limit(self):
        net = with_loads(two_bus_case(), {"load": (500.0, 0.0)})
        res = compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=0.005)
        assert res.lambda_star[0] == 1.0

    def test_degenerate_hour_reported(self):
        net = with_loads(two_bus_case(), {"load": (600.0, 0.0)})
        res = compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=0.01)
        assert res.degenerate[0]
        assert np.isnan(res.lambda_star[0])
        with pytest.raises(LoadabilityError, match="degenerate"):
            average_loadability(res)


class TestRefinement:
    def test_halving_step_never_decreases_lambda(self):
        net = study_network()
        op = points(net, [{"qld_load": (6000.0, 1972.0)}], [{"qld_gen": 5000.0}])
        part = {"qld_gen": 0.5, "qld_csp": 0.5}
        coarse = compute_loadability(net, "QLD", part, step=0.04, hours=op)
        fine = compute_loadability(net, "QLD", part, step=0.02, hours=op)
        assert fine.lambda_star[0] >= coarse.lambda_star[0] - 1e-12
        assert fine.lambda_star[0] - coarse.lambda_star[0] <= 0.04 + 1e-12


class TestBatchedSweep:
    def test_batch_equals_per_hour_scan(self):
        net = two_bus_case()
        rng = np.random.default_rng(7)
        loads = rng.uniform(60, 320, 10)
        hours = points(net, [{"load": (float(p), 0.0)} for p in loads])
        batch = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        for i, p in enumerate(loads):
            alone = with_loads(net, {"load": (float(p), 0.0)})
            single = compute_loadability(alone, "LOAD", {"source": 1.0}, points(alone, [{}]),
                                         step=0.02)
            assert batch.lambda_star[i] == single.lambda_star[0]
            assert batch.served_load_mw[i] == single.served_load_mw[0]
            assert batch.min_voltage_pu[i] == single.min_voltage_pu[0]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_split_into_chunks_gives_the_same_bits(self, data):
        """A sweep of two-bus, three-bus or study-network hours equals, bit for
        bit, the flat one-step-per-batch scan and the sweeps of any contiguous
        chunks of the hours, one-hour chunks included."""
        net, region, part = data.draw(st.sampled_from(CASES), label="case")()
        nh = data.draw(st.integers(1, 6), label="hours")
        cuts = sorted(data.draw(st.sets(st.integers(1, nh - 1)), label="cuts")) if nh > 1 else []
        step = data.draw(st.sampled_from([0.01, 0.03, 0.1, 0.25]), label="step")
        lambda_max = data.draw(st.sampled_from([1.0, 1.07, 3.0, 6.0]), label="lambda_max")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        hours = study_hours(net, rng.uniform(0.4, 1.6, (nh, len(net.buses))), rng)

        def sweep(rows):
            return compute_loadability(net, region, part, step=step, lambda_max=lambda_max,
                                       hours=tuple(a[rows] for a in hours))

        whole = sweep(slice(None))
        want = reference_sweep(net, region, part, step, hours, lambda_max)
        bounds = [0, *cuts, nh]
        chunks = [sweep(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        for name, ref in zip(RESULT_ARRAYS, want):
            joined = np.concatenate([getattr(c, name) for c in chunks])
            assert getattr(whole, name).tobytes() == ref.tobytes(), name
            assert joined.tobytes() == ref.tobytes(), name

    def test_bracket_holds_on_array_rows(self):
        net = two_bus_case()
        hours = points(net, [{"load": (p, 0.0)} for p in (90.0, 150.0, 240.0)])
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        for h in range(3):
            at, above = verify_bracket(net, "LOAD", {"source": 1.0},
                                       tuple(a[h] for a in hours),
                                       float(res.lambda_star[h]), 0.02)
            assert at and not above, h

    def test_monotone_stress_depresses_voltage(self):
        """The minimum voltage at lambda* is no higher than in the hour's base case."""
        net = study_network()
        ops = points(net, [{"qld_load": (5200.0, 1709.0)}, {"qld_load": (6800.0, 2235.0)}],
                     [{"qld_gen": 4500.0}, {"qld_gen": 6000.0}])
        part = {"qld_gen": 0.5, "qld_csp": 0.5}
        res = compute_loadability(net, "QLD", part, step=0.02, hours=ops)
        for h in range(2):
            base = solve_power_flow(*stressed_network(net, "QLD", part,
                                                      tuple(a[h] for a in ops), 1.0))
            assert base.converged and res.min_voltage_pu[h] <= base.min_voltage_pu + 1e-12, h


class TestPooledScan:
    """One Newton pool carries one probe of each hour still searching its grid."""

    @staticmethod
    def mixed_hours(net):
        """Two-bus hours whose limits (lambda* = 500 MW / load) spread over the
        grid, one degenerate hour (600 MW) and light hours that reach the cap."""
        loads = [600.0, *np.random.default_rng(11).uniform(60, 330, 20), 40.0, 45.0]
        return points(net, [{"load": (float(p), 0.0)} for p in loads])

    @pytest.mark.parametrize("lambda_max", [6.0, 3.01])  # on the 0.02 grid and off it
    def test_same_bits_as_one_step_per_call(self, lambda_max):
        net = two_bus_case()
        hours = self.mixed_hours(net)
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours,
                                  lambda_max=lambda_max)
        want = reference_sweep(net, "LOAD", {"source": 1.0}, 0.02, hours, lambda_max)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name
        lam = res.lambda_star
        assert res.degenerate[0]
        top = lam[np.isfinite(lam)].max()
        assert top <= lambda_max < top + 0.02 and (lam == top).sum() >= 2  # capped hours
        assert np.unique(lam[np.isfinite(lam) & (lam < top)]).size >= 10  # fail at many steps

    def test_same_bits_as_one_step_per_call_on_study_network(self):
        net = study_network()
        rng = np.random.default_rng(3)
        hours = study_hours(net, rng.uniform(0.3, 2.2, (40, len(net.buses))), rng)
        part = {"qld_gen": 0.5, "qld_csp": 0.5}
        res = compute_loadability(net, "QLD", part, step=0.05, hours=hours, lambda_max=4.0)
        want = reference_sweep(net, "QLD", part, 0.05, hours, 4.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name

    def test_empty_horizon(self):
        net = two_bus_case()
        hours = tuple(np.zeros((0, 2)) for _ in range(3))
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        want = reference_sweep(net, "LOAD", {"source": 1.0}, 0.02, hours, 10.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).shape == (0,)
            assert getattr(res, name).tobytes() == ref.tobytes(), name

    @staticmethod
    def counted_sweep(monkeypatch, net, hours, **scan):
        """The sweep in one process, with the rows of each Newton iteration and
        the probes of each hour."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        sizes, probes = [], np.zeros(len(hours[0]), dtype=int)

        class CountingPool(powerflow._NewtonPool):
            def add(self, tag, *args, **kwargs):
                np.add.at(probes, tag, 1)
                return super().add(tag, *args, **kwargs)

            def iterate(self):
                sizes.append(len(self))
                return super().iterate()

        monkeypatch.setattr(loadability, "_NewtonPool", CountingPool)
        return compute_loadability(net, "LOAD", {"source": 1.0}, hours=hours, **scan), sizes, probes

    @pytest.mark.parametrize("nh", [23, 300])
    def test_pool_holds_one_probe_per_hour(self, monkeypatch, nh):
        """No Newton iteration holds more rows than there are hours, and an hour
        takes at most 2 log2(top + 4) probes, where top is the last grid index
        at or below lambda_max: about log2(top) to gallop and as many to bisect."""
        net = two_bus_case()
        if nh == 23:
            hours = self.mixed_hours(net)
        else:
            loads = np.random.default_rng(12).uniform(60, 480, nh)
            hours = points(net, [{"load": (float(p), 0.0)} for p in loads])
        res, sizes, probes = self.counted_sweep(monkeypatch, net, hours, step=0.02,
                                                lambda_max=6.0)
        top = 250  # 1 + 250 * 0.02 == 6.0
        assert sizes[0] == nh and max(sizes) <= nh
        assert probes.min() >= 1 and probes.max() <= 2 * math.log2(top + 4)
        assert probes[np.isnan(res.lambda_star)].tolist() == [1] * int(res.degenerate.sum())

    def test_sweep_capped_at_the_base_case(self, monkeypatch):
        """At lambda_max = 1 each hour solves its base case alone, and every hour
        that converges there reports lambda* = 1, as the flat scan does."""
        net = two_bus_case()
        hours = self.mixed_hours(net)
        res, sizes, probes = self.counted_sweep(monkeypatch, net, hours, step=0.02,
                                                lambda_max=1.0)
        want = reference_sweep(net, "LOAD", {"source": 1.0}, 0.02, hours, 1.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name
        assert np.all(probes == 1) and res.degenerate.tolist() == [True] + [False] * 22
        assert np.all(res.lambda_star[1:] == 1.0)

    def test_hours_that_stop_among_their_first_steps(self):
        """An hour whose limit lies below the first probe above its base case
        (grid index 4), or between two probes, reports its last converged step,
        as the flat scan does: on mixed hours and on one base-load hour at the
        default step."""
        net = two_bus_case()
        # 600 MW is degenerate; 500 MW ends at lambda* = 1 and 480 MW at 1.04,
        # both below index 4; the others fail between probes (lambda* = 500 MW / load).
        loads = [600.0, 500.0, 480.0, 430.0, 380.0, 330.0, 100.0, 45.0]
        hours = points(net, [{"load": (p, 0.0)} for p in loads])
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        want = reference_sweep(net, "LOAD", {"source": 1.0}, 0.02, hours, 10.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name
        assert res.degenerate[0] and np.all(res.lambda_star[1:3] < 1.0 + 4 * 0.02)

        default = compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]))
        want = reference_sweep(net, "LOAD", {"source": 1.0}, loadability.DEFAULT_STEP,
                               points(net, [{}]), loadability.DEFAULT_LAMBDA_MAX)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(default, name).tobytes() == ref.tobytes(), name


class TestFlatStartResolve:
    """The re-solve of each hour's lambda* from a flat start must converge: a
    failure names the hour, where the minimum voltage of a failed iterate
    would otherwise be reported."""

    @staticmethod
    def fail_row(monkeypatch, row, parent=None):
        """Row ``row`` of every ``loadability._nr_batch`` call ends in a voltage
        collapse (cause 2); only in forked children if ``parent`` is given."""
        real = loadability._nr_batch

        def failing(grid, p_sched, q_sched):
            out = [a.copy() for a in real(grid, p_sched, q_sched)]
            if parent is None or os.getpid() != parent:
                out[2][row], out[5][row] = False, 2
            return tuple(out)

        monkeypatch.setattr(loadability, "_nr_batch", failing)

    def test_failed_resolve_names_its_hour(self, monkeypatch):
        net = two_bus_case()
        # Hour 0 (600 MW) is degenerate, so the re-solve's row 1 is hour 2.
        hours = points(net, [{"load": (p, 0.0)} for p in (600.0, 430.0, 380.0, 100.0)])
        self.fail_row(monkeypatch, 1)
        with pytest.raises(LoadabilityError, match=r"^hour 2: the flat-start re-solve at lambda\* "
                                                   r"1\.\d+ did not converge \(cause 2\)$"):
            compute_loadability(net, "LOAD", {"source": 1.0}, hours, step=0.02)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs and two hours per worker at least; returns the pids of
    the children that ``os.fork`` starts."""
    monkeypatch.setattr(loadability, "MIN_WORKER_HOURS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


class TestWorkers:
    PART = {"qld_gen": 0.5, "qld_csp": 0.5}

    @staticmethod
    def hours(net):
        """Seven study-network hours: three workers of the ``forks`` fixture, with
        shares of 3, 2 and 2 hours."""
        rng = np.random.default_rng(31)
        return study_hours(net, rng.uniform(0.4, 1.6, (7, len(net.buses))), rng)

    def sweep(self):
        net = study_network()
        return compute_loadability(net, "QLD", self.PART, self.hours(net), step=0.1,
                                   lambda_max=3.0)

    def test_forked_sweep_has_the_bits_of_one_process(self, forks, monkeypatch):
        forked = self.sweep()
        assert len(forks) == 2
        assert_no_child_left()
        monkeypatch.setattr(loadability, "MIN_WORKER_HOURS", 8)
        alone = self.sweep()
        assert len(forks) == 2
        for name in RESULT_ARRAYS:
            assert getattr(forked, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_worker_exception_reaches_the_caller(self, forks, monkeypatch):
        """With its type and message, and the worker's traceback as its cause."""
        parent, sweep = os.getpid(), loadability._sweep

        def fail_in_workers(grid, region_mask, pickup, base_p, *rest):
            if os.getpid() != parent:
                raise ZeroDivisionError(f"share of {len(base_p)} hours")
            return sweep(grid, region_mask, pickup, base_p, *rest)

        monkeypatch.setattr(loadability, "_sweep", fail_in_workers)
        with pytest.raises(ZeroDivisionError, match="share of 2 hours") as err:
            self.sweep()
        assert len(forks) == 2
        assert "fail_in_workers" in str(err.value.__cause__)
        assert_no_child_left()

    def test_failed_resolve_in_a_worker_names_its_hour(self, forks, monkeypatch):
        """The first worker sweeps hours 1 and 4; its re-solve's row 1 is hour 4."""
        TestFlatStartResolve.fail_row(monkeypatch, 1, parent=os.getpid())
        with pytest.raises(LoadabilityError, match=r"^hour 4: .* \(cause 2\)$"):
            self.sweep()
        assert len(forks) == 2
        assert_no_child_left()

    def test_shares_larger_than_a_pipe_buffer_come_back_in_place(self, forks, monkeypatch):
        """Each worker's share of 4,096 hours is 128 kB of results, twice a pipe's
        64 kB buffer; hour h's row says h wherever it was swept."""
        def hour_numbers(grid, region_mask, pickup, base_p, *rest):
            return np.tile(base_p[:, 1], (4, 1))

        monkeypatch.setattr(loadability, "_sweep", hour_numbers)
        net = two_bus_case()
        nh = 3 * 4096
        res = compute_loadability(net, "LOAD", {"source": 1.0},
                                  points(net, [{"load": (h, 0.0)} for h in range(nh)]))
        assert len(forks) == 2
        for name in RESULT_ARRAYS:
            assert np.array_equal(getattr(res, name), np.arange(nh)), name
        assert_no_child_left()

    def test_no_child_outlives_a_failing_parent_share(self, forks, monkeypatch):
        """The parent's own share fails while the first worker is blocked writing
        a share larger than a pipe's buffer and the second is still sweeping: the
        call raises at once, and leaves no child behind."""
        parent = os.getpid()

        def fail_in_parent(grid, region_mask, pickup, base_p, *rest):
            if os.getpid() != parent:
                if forks:  # the second worker, forked after the first
                    time.sleep(60)
                return np.zeros((4, len(base_p)))
            time.sleep(0.2)
            assert os.waitpid(forks[0], os.WNOHANG) == (0, 0), "first worker not blocked"
            raise KeyError("parent share")

        monkeypatch.setattr(loadability, "_sweep", fail_in_parent)
        net = two_bus_case()
        start = time.monotonic()
        with pytest.raises(KeyError, match="parent share"):
            compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}] * 3 * 4096))
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_no_worker_outlives_a_killed_caller(self):
        """A caller killed by SIGKILL mid-sweep takes its workers with it: in a
        fresh interpreter whose workers would sleep for a minute, each is gone
        (or a zombie awaiting its new parent) within seconds of the kill."""
        code = (
            "import os, sys, time\n"
            "from gridstudy import loadability\n"
            "from gridstudy.synthdata import study_network\n"
            "loadability.MIN_WORKER_HOURS = 2\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "fork = os.fork\n"
            "def announced_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = announced_fork\n"
            "def sleep(grid, region_mask, pickup, base_p, *rest):\n"
            "    if len(base_p) == 3:  # the caller's share\n"
            "        print('swept', flush=True)\n"
            "    time.sleep(60)\n"
            "net = study_network()\n"
            "loadability._sweep = sleep\n"
            "hours = [[[b.p_load_mw for b in net.buses]] * 7] * 3\n"
            "loadability.compute_loadability(net, 'QLD', {'qld_gen': 0.5, 'qld_csp': 0.5}, hours)\n")
        src = str(Path(gridstudy.__file__).resolve().parent.parent)
        caller = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
        workers = []
        try:
            for line in caller.stdout:
                if line.strip() == "swept":
                    break
                workers.append(int(line))
            assert len(workers) == 2
            caller.kill()
            caller.wait(timeout=30)
            deadline = time.monotonic() + 20
            while (alive := [pid for pid in workers if running(pid)]) and (
                    time.monotonic() < deadline):
                time.sleep(0.05)
            assert alive == []
        finally:
            caller.kill()
            caller.wait(timeout=30)
            caller.stdout.close()
            for pid in workers:
                if running(pid):
                    os.kill(pid, 9)

    @pytest.mark.parametrize("platform", ["one CPU in the affinity mask", "one CPU counted",
                                          "no os.fork"])
    def test_one_process_without_a_second_cpu_or_fork(self, forks, monkeypatch, platform):
        if platform == "one CPU in the affinity mask":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif platform == "one CPU counted":
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.delattr(os, "fork")
        res = self.sweep()
        assert forks == []
        net = study_network()
        want = reference_sweep(net, "QLD", self.PART, 0.1, self.hours(net), 3.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name

    def test_bits_do_not_depend_on_openblas_threads(self):
        """The sweep's results, in a fresh interpreter with ``OPENBLAS_NUM_THREADS``
        at 1 and at 2 before numpy loads, have the same bytes.  4,096 hours are
        swept in one process with the gemm left in one block, so at least ten
        iterations multiply 2,048 rows or more, which OpenBLAS splits across
        its threads (from about 1,536 rows)."""
        code = (
            "import hashlib, numpy as np\n"
            "from gridstudy import loadability, powerflow\n"
            "from gridstudy.synthdata import study_network\n"
            "powerflow.GEMM_ROWS = 1 << 20\n"
            "loadability.MIN_WORKER_HOURS = 1 << 20\n"
            "sizes = []\n"
            "class Pool(powerflow._NewtonPool):\n"
            "    def iterate(self):\n"
            "        sizes.append(len(self))\n"
            "        return super().iterate()\n"
            "loadability._NewtonPool = Pool\n"
            "net = study_network()\n"
            "rng = np.random.default_rng(5)\n"
            "scale = rng.uniform(0.4, 1.6, (4096, len(net.buses)))\n"
            "hours = (scale * [b.p_load_mw for b in net.buses],\n"
            "         scale * [b.q_load_mvar for b in net.buses], np.zeros_like(scale))\n"
            "res = loadability.compute_loadability(net, 'QLD', {'qld_gen': 0.5, 'qld_csp': 0.5},\n"
            "                                      hours, step=0.01, lambda_max=4.0)\n"
            "assert sum(size >= 2048 for size in sizes) >= 10, sizes\n"
            "print(hashlib.sha256(b''.join(getattr(res, name).tobytes() for name in\n"
            "      ('lambda_star', 'served_load_mw', 'region_load_mw', 'min_voltage_pu')))"
            ".hexdigest())\n")
        src = str(Path(gridstudy.__file__).resolve().parent.parent)
        digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, timeout=300,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert len(digests[0]) == 65 and digests[0] == digests[1]


class TestValidation:
    @pytest.mark.parametrize("share", [0.7, float("nan")])
    def test_participation_must_sum_to_one(self, share):
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match="sum to"):
            compute_loadability(net, "LOAD", {"source": share}, points(net, [{}]), step=0.01)

    def test_participation_rejects_load_bus(self):
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match="load bus"):
            compute_loadability(net, "LOAD", {"load": 1.0}, points(net, [{}]), step=0.01)

    def test_negative_factor_rejected(self):
        net = BusNetwork((
            Bus("s", "slack"), Bus("g", "pv", v_set_pu=1.01, region="G"),
            Bus("l", "pq", 50.0, 10.0, region="L"),
        ), (Branch("s", "g", 0.01, 0.1), Branch("g", "l", 0.01, 0.1)))
        with pytest.raises(LoadabilityError, match="negative"):
            compute_loadability(net, "L", {"g": 2.0, "s": -1.0}, points(net, [{}]), step=0.01)

    @pytest.mark.parametrize("step", [0.0, float("nan")])
    def test_bad_step(self, step):
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match="positive"):
            compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=step)

    @pytest.mark.parametrize("lambda_max", [0.5, float("nan")])
    def test_lambda_max_below_one_rejected(self, lambda_max):
        """Without this check no hour is scanned and every hour reads as degenerate."""
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match="lambda_max must be >= 1"):
            compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=0.01,
                                lambda_max=lambda_max)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["step", "lambda_max"])
    def test_non_finite_scan_rejected(self, name, value):
        """An infinite step made every factor above 1 NaN; an infinite lambda_max
        let an hour that never collapses scan forever."""
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match=f"^{name} must be"):
            compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]),
                                **{name: value})

    @pytest.mark.parametrize("step,lambda_max", [(1e-17, 10.0), (5e-324, 10.0), (5e-324, 1.0),
                                                 (1e-10, 1e300), (0.005, 1e300)])
    def test_grid_too_fine_rejected(self, step, lambda_max):
        """A step that leaves 1 + step at 1 scanned a grid of 9e17 steps whose
        first factors were all 1; a grid of more than 2**62 steps, an infinite
        count of them included, has a last index that int64 cannot hold."""
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match=f"^step must .*, got {step}$"):
            compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=step,
                                lambda_max=lambda_max)

    @pytest.mark.parametrize("shapes", [((3, 2), (3, 2), (2, 2)), ((3, 3), (3, 3), (3, 3)),
                                        ((2,), (2,), (2,))])
    def test_operating_point_shapes_checked(self, shapes):
        hours = tuple(np.zeros(shape) for shape in shapes)
        with pytest.raises(LoadabilityError, match=r"\(hours, 2\) arrays"):
            compute_loadability(two_bus_case(), "LOAD", {"source": 1.0}, step=0.01, hours=hours)


class TestAverage:
    def test_table_shaped_single_hour(self):
        from gridstudy.loadability import LoadabilityResult
        res = LoadabilityResult(
            lambda_star=np.array([1.35]), served_load_mw=np.array([25530.0]),
            region_load_mw=np.array([8000.0]), min_voltage_pu=np.array([0.8]))
        assert average_loadability(res) == pytest.approx(25.53)

    def test_mean_of_two_hours(self):
        net = two_bus_case()
        hours = points(net, [{"load": (100.0, 0.0)}, {"load": (200.0, 0.0)}])
        # lambda capped at 1: served loads are the base loads themselves
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.01,
                                  hours=hours, lambda_max=1.0)
        assert average_loadability(res) == pytest.approx(0.15)

    def test_matches_external_mean_from_emitted_values(self):
        net = two_bus_case()
        rng = np.random.default_rng(9)
        hours = points(net, [{"load": (float(p), 0.0)} for p in rng.uniform(80, 300, 12)])
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        good = ~res.degenerate
        assert average_loadability(res) == pytest.approx(
            float(np.mean(res.served_load_mw[good])) / 1000.0, rel=1e-12)
