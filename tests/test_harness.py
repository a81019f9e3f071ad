import functools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptgeo import bounds, cli, harness, serialize, states, workers
from pptgeo.bipartite import (
    PPT_TOL,
    BipartiteSplit,
    is_ppt,
    partial_transpose,
    pt_spectrum_analytic,
    schmidt,
)
from pptgeo.harness import (
    VERDICT_CONSISTENT,
    VERDICT_COUNTEREXAMPLE,
    bisect_decreasing,
    claim_check,
    claim_report_to_dict,
    load_claim_report,
    sample_pure,
    shell_scan,
    shells_to_csv,
    spectrum_check,
    sweep_to_csv,
    verify_claim_report,
    werner_sweep,
)
from pptgeo.linalg import hs_distance
from pptgeo.states import PureState, WernerParams, maximally_mixed, shell_chunk, werner

from conftest import reference_min_pt_eigenvalue, reference_shell_attempt, werner_min_pt_oracle


# --- bisection ---------------------------------------------------------------

def test_bisection_brackets_every_step():
    calls = []

    def f(x):
        value = 0.25 - x  # root at 1/4
        calls.append((x, value))
        return value

    root = bisect_decreasing(f, 0.0, 1.0, tol=1e-12)
    assert abs(root - 0.25) <= 1e-12
    positives = [x for x, v in calls if v > 0]
    negatives = [x for x, v in calls if v <= 0]
    assert max(positives) < min(negatives)


@pytest.mark.parametrize("tol", [0.0, 1e-20])
def test_bisection_ends_when_no_float_lies_inside_the_bracket(tol):
    # Below the float spacing at the root the bracket cannot shrink to
    # `tol`; it stops at two adjacent floats around 1/4.
    root = bisect_decreasing(lambda x: 0.25 - x, 0.0, 1.0, tol=tol)
    assert root in (np.nextafter(0.25, 0.0), 0.25)


def test_bisection_requires_bracket():
    with pytest.raises(ValueError):
        bisect_decreasing(lambda x: x + 1.0, 0.0, 1.0)


# --- werner sweep ------------------------------------------------------------

def test_sweep_qubits_threshold():
    report = werner_sweep(2)
    assert abs(report.p_star - 1 / 3) <= 1e-9
    assert report.paper_pm == pytest.approx(1 / 3, abs=1e-15)
    assert report.oracle_pm == pytest.approx(1 / 3, abs=1e-15)


def test_sweep_qutrits_threshold_disagrees_with_claim():
    report = werner_sweep(3)
    assert abs(report.p_star - 0.25) <= 1e-9
    assert report.paper_pm == pytest.approx(0.3443904913137139, abs=1e-12)
    # numeric truth sits well below the claimed threshold
    assert report.paper_pm - report.p_star > 0.09


def test_sweep_d4_threshold():
    assert abs(werner_sweep(4).p_star - 0.2) <= 1e-9


def test_sweep_rows_ordered_and_strictly_decreasing():
    report = werner_sweep(3, grid_points=15)
    ps = [row.p for row in report.rows]
    assert ps == sorted(ps)
    floors = [row.min_pt_eig for row in report.rows]
    assert all(b < a for a, b in zip(floors, floors[1:]))
    for row in report.rows:
        assert row.min_pt_eig == pytest.approx(werner_min_pt_oracle(3, row.p), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_werner_bisection_solves_the_stored_matrix_without_validating_it(monkeypatch, d):
    # The bisection's PT floor, and the distance and floor of the sweep rows
    # and the probe, are those of the validated Werner state, bit for bit.
    split = BipartiteSplit(d, d)
    grid = [float(p) for p in np.linspace(0.0, 1.0, 41)]
    eye = maximally_mixed(d * d).matrix
    family = [werner(WernerParams(d, p)) for p in grid]
    want = [(hs_distance(w.matrix, eye), is_ppt(w, split).min_pt_eigenvalue) for w in family]

    def no_validation(self):
        raise AssertionError("a DensityMatrix was validated in the bisection")

    monkeypatch.setattr(states.DensityMatrix, "__post_init__", no_validation)
    floors = [harness._werner_floor(d, p)[1] for p in grid]
    got = [harness._werner_point(d, p) for p in grid]
    assert np.array(floors).tobytes() == np.array([f for _, f in want]).tobytes()
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        werner_sweep(9)
    with pytest.raises(ValueError):
        werner_sweep(2, grid_points=1)


def test_sweep_csv_shape():
    text = sweep_to_csv(werner_sweep(2, grid_points=5))
    lines = text.strip().split("\n")
    header_lines = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# tool_version=") for l in header_lines)
    assert "p,distance,min_pt_eig,ppt" in lines
    assert len(lines) == len(header_lines) + 1 + 5


# --- shell scan --------------------------------------------------------------

def test_shells_inside_guarantee_all_ppt():
    split = BipartiteSplit(2, 2)
    report = shell_scan(4, split, [0.1, 0.2, 1 / math.sqrt(12)],
                        samples_per_shell=300, base_seed=3)
    for row in report.rows:
        assert row.accepted == row.samples
        assert row.ppt_fraction == 1.0


def test_shells_n9_small_radius_all_ppt():
    report = shell_scan(9, BipartiteSplit(3, 3), [0.10], samples_per_shell=300,
                        base_seed=1)
    assert report.rows[0].ppt_fraction == 1.0


def test_shells_n9_larger_radius_reports_without_asserting():
    report = shell_scan(9, BipartiteSplit(3, 3), [0.30], samples_per_shell=200,
                        base_seed=2)
    row = report.rows[0]
    assert 0.0 <= row.ppt_fraction <= 1.0
    assert row.accepted <= row.samples
    print(f"N=9 shell r=0.30: ppt_fraction={row.ppt_fraction}, min_pt={row.min_pt_eig}")


def test_shells_unreachable_surface_as_zero_accepted():
    report = shell_scan(4, BipartiteSplit(2, 2), [0.1, 0.86], samples_per_shell=40,
                        base_seed=0)
    assert report.rows[1].accepted == 0
    assert report.rows[1].ppt_fraction == 0.0
    assert math.isnan(report.rows[1].min_pt_eig)


def test_shells_validate_radii():
    split = BipartiteSplit(2, 2)
    with pytest.raises(ValueError):
        shell_scan(4, split, [0.2, 0.1], samples_per_shell=10)
    with pytest.raises(ValueError):
        shell_scan(4, split, [0.2, 0.9], samples_per_shell=10)  # beyond sqrt(3/4)
    with pytest.raises(ValueError, match=r"radii must lie in \(0, 0.866025\)"):
        shell_scan(4, split, [0.0], samples_per_shell=10)


def test_shell_csv_deterministic():
    split = BipartiteSplit(3, 3)
    a = shells_to_csv(shell_scan(9, split, [0.1, 0.3], samples_per_shell=100, base_seed=9))
    b = shells_to_csv(shell_scan(9, split, [0.1, 0.3], samples_per_shell=100, base_seed=9))
    assert a == b
    assert "# generator=pcg64+box-muller" in a


def test_shell_scan_rejects_empty_radii_and_negative_seed():
    split = BipartiteSplit(2, 2)
    with pytest.raises(ValueError, match="radii must not be empty"):
        shell_scan(4, split, [], samples_per_shell=10)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        shell_scan(4, split, [0.1, 0.2], samples_per_shell=10, base_seed=-1)


# --- shells split across helper processes ----------------------------------

def _report_fields(report):
    # repr, since a shell no sample reaches has min_pt_eig nan, and nan != nan.
    return shells_to_csv(report), repr(report.rows)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made by this process."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def test_advanced_stream_matches_rows_of_one_draw():
    # A part starting at sample `first` advances the generator by 2 N^2
    # steps per earlier sample: one PCG64 step per float64 uniform.
    for dim in (4, 6, 9, 16):
        full = np.random.default_rng(11).random((60, 2, dim * dim))
        for first, stop in ((0, 60), (1, 60), (17, 33), (59, 60)):
            rng = np.random.default_rng(11)
            rng.bit_generator.advance(first * 2 * dim * dim)
            part = rng.random((stop - first, 2, dim * dim))
            assert part.tobytes() == full[first:stop].tobytes()


def _landscape_radii(total):
    """Inside the spectral floor, just inside and outside the typical HS
    distance r_hs(N) of a random state, halfway from r_hs to the outer
    radius (the screen drops whole chunks) and at 0.99 of the outer radius,
    which no sample reaches."""
    typical = math.sqrt(2 * total / (total * total + 1) - 1 / total)
    outer = math.sqrt((total - 1) / total)
    return (0.9 / math.sqrt(total * (total - 1)), 0.95 * typical, 1.05 * typical,
            (typical + outer) / 2, 0.99 * outer)


@pytest.mark.parametrize("factors", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_split_scan_matches_in_process_scan(monkeypatch, fresh_helpers, factors):
    split = BipartiteSplit(*factors)
    chunk = shell_chunk(split.dim)
    radii = _landscape_radii(split.dim)
    for samples in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        kwargs = dict(samples_per_shell=samples, base_seed=samples)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        expected = _report_fields(shell_scan(split.dim, split, radii, **kwargs))
        for cpus in (2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            assert _report_fields(shell_scan(split.dim, split, radii, **kwargs)) == expected
    report = shell_scan(split.dim, split, radii, samples_per_shell=3 * chunk + 7)
    assert report.rows[0].ppt_count == report.rows[0].samples
    assert report.rows[-1].accepted == 0
    # Three CPUs, four chunks: two helpers, forked once for the whole test.
    assert len(workers._POOL.helpers) == 2


# N = 9 stacks 202 samples a chunk and N = 4 stacks 1,024, so 450 and 2,100
# samples are three chunks each.  The radii run past r_hs(N), where the
# screen drops most rows, and at N = 4 to a shell that no sample reaches.
PARITY_CASES = [((3, 3), (0.05, 0.15, 0.3, 0.45, 0.8), 450),
                ((2, 2), (0.1, 0.3, 0.5, 0.7, 0.86), 2100),
                ((2, 3), (0.1, 0.25, 0.4, 0.55, 0.7), 1)]


@pytest.mark.parametrize("factors, radii, samples", PARITY_CASES)
def test_forked_scan_matches_in_process_scan(monkeypatch, fresh_helpers, forks, factors, radii,
                                             samples):
    split = BipartiteSplit(*factors)
    chunks = -(-samples // shell_chunk(split.dim))
    assert samples % shell_chunk(split.dim) != 0
    for count in range(1, len(radii) + 1):
        args = (split.dim, split, radii[:count])
        kwargs = dict(samples_per_shell=samples, base_seed=count)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        expected = _report_fields(shell_scan(*args, **kwargs))
        for cpus in (2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            assert _report_fields(shell_scan(*args, **kwargs)) == expected
    # Helpers persist: one per part beyond the first, forked once.  A shell
    # has min(CPUs, chunks) parts: two helpers for 450 and 2,100 samples.
    assert forks[0] == min(3, chunks) - 1


@pytest.mark.parametrize("cpus", [2, 3])
def test_parts_differ_by_at_most_one_sample(monkeypatch, fresh_helpers, cpus):
    # 605 samples are three chunks at N = 9 (202, 202 and 201): an odd count,
    # which whole chunks would deal out 202 / 403 to two CPUs.
    samples = 3 * shell_chunk(9) - 1
    kwargs = dict(samples_per_shell=samples, base_seed=4)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    expected = _report_fields(shell_scan(*ERROR_SCAN, **kwargs))
    ranges = []
    pool_map = harness.pool_map

    def recorded(fn, batches):
        ranges.extend({job[4:] for job in batch} for batch in batches)
        return pool_map(fn, batches)

    monkeypatch.setattr(harness, "pool_map", recorded)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    assert _report_fields(shell_scan(*ERROR_SCAN, **kwargs)) == expected
    assert all(len(shells) == 1 for shells in ranges)  # every shell is cut alike
    cuts = [first for [(first, _)] in ranges] + [samples]
    assert [stop for [(_, stop)] in ranges] == cuts[1:] and cuts[0] == 0
    sizes = [stop - first for first, stop in zip(cuts, cuts[1:])]
    assert len(sizes) == cpus and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("factors, samples, helpers", [((5, 8), 13, 1), ((6, 7), 13, 0)])
def test_shells_from_the_one_part_dimension_fork_no_helper(monkeypatch, fresh_helpers, forks,
                                                            factors, samples, helpers):
    # 13 samples are two chunks at N = 40 and at N = 42.  From ONE_PART_DIM
    # on, a shell is scanned as one part in this process.
    split = BipartiteSplit(*factors)
    assert (split.dim >= harness.ONE_PART_DIM) == (helpers == 0)
    kwargs = dict(samples_per_shell=samples, base_seed=2)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    expected = _report_fields(shell_scan(split.dim, split, [0.1], **kwargs))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert _report_fields(shell_scan(split.dim, split, [0.1], **kwargs)) == expected
    assert forks[0] == helpers and len(workers._POOL.helpers) == helpers


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tied_shell_minima_keep_the_earlier_shell(monkeypatch, fresh_helpers, cpus):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)

    @functools.wraps(harness._scan_part)  # pickles by name, so helpers run it too
    def tied(total_dim, split, radius, seed, first, stop):
        # Every shell ties, and so do all parts after the first.
        return stop - first, 0, -0.05 if first == 0 else -0.1

    monkeypatch.setattr(harness, "_scan_part", tied)
    workers._POOL.close()  # helpers run the code as loaded when forked
    # 3,000 samples are three chunks at N = 4: with 3 CPUs parts start at 0,
    # 1,000 and 2,000.
    report = shell_scan(4, BipartiteSplit(2, 2), [0.1, 0.2, 0.3], samples_per_shell=3000,
                        base_seed=0)
    assert [row.min_pt_eig for row in report.rows] == [-0.05 if cpus == 1 else -0.1] * 3
    assert [row.accepted for row in report.rows] == [3000] * 3
    assert len(workers._POOL.helpers) == cpus - 1


def _fail_in(monkeypatch, where, failing_seed, make=None):
    """Make the shell with seed `failing_seed` raise in the caller's part or
    in a helper's (`make()`, or a LinAlgError naming the shell)."""
    caller = os.getpid()
    scan = harness._scan_part

    @functools.wraps(scan)  # pickles by name, so helpers forked from now on run it
    def scan_or_fail(total_dim, split, radius, seed, first, stop):
        if seed == failing_seed and (os.getpid() == caller) == (where == "parent"):
            if make is not None:
                raise make()
            raise np.linalg.LinAlgError(f"no convergence on shell r={radius} (seed {seed})")
        return scan(total_dim, split, radius, seed, first, stop)

    monkeypatch.setattr(harness, "_scan_part", scan_or_fail)
    workers._POOL.close()  # helpers run the code as loaded when forked


# 600 samples are three chunks at N = 9, so with 3 CPUs each has a part of every shell.
ERROR_SCAN = (9, BipartiteSplit(3, 3), [0.1, 0.2, 0.3, 0.4, 0.5])


@pytest.mark.parametrize("cpus, where, failing_seed", [
    (2, "child", 1), (3, "child", 2), (3, "child", 1), (2, "parent", 0), (3, "parent", 3),
])
def test_worker_error_is_raised_and_every_child_reaped(monkeypatch, fresh_helpers, forks, cpus,
                                                       where, failing_seed):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    _fail_in(monkeypatch, where, failing_seed)
    radii = ERROR_SCAN[2]
    with pytest.raises(np.linalg.LinAlgError) as info:
        shell_scan(*ERROR_SCAN, samples_per_shell=600)
    assert str(info.value) == (f"no convergence on shell r={radii[failing_seed]} "
                               f"(seed {failing_seed})")
    assert forks[0] == cpus - 1
    # No reply of the failed scan is left to be read: the next scan (seeds
    # 10-14, none failing) matches the same scan in this process alone.
    kwargs = dict(samples_per_shell=600, base_seed=10)
    got = _report_fields(shell_scan(*ERROR_SCAN, **kwargs))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert got == _report_fields(shell_scan(*ERROR_SCAN, **kwargs))
    workers._POOL.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _TwoArgError(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


@pytest.mark.parametrize("make, message", [
    (lambda: ValueError("bad", lambda: 0), r"^ValueError: \('bad', <function "),
    (lambda: _TwoArgError("a", "b"), r"^_TwoArgError: a and b$"),
])
def test_errors_that_cannot_cross_the_pipe_name_their_type(monkeypatch, capsys, fresh_helpers,
                                                           make, message):
    # The first cannot be pickled, the second cannot be rebuilt from its args.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    _fail_in(monkeypatch, "child", 0, make)
    with pytest.raises(ChildProcessError, match=message):
        shell_scan(*ERROR_SCAN, samples_per_shell=600)
    assert cli.main(["shell-scan", "--N", "9", "--split", "3x3", "--radii", "0.1",
                     "--samples", "600"]) == 2
    assert re.match(message, capsys.readouterr().err.removeprefix("error: "))
    kwargs = dict(samples_per_shell=600, base_seed=1)
    got = _report_fields(shell_scan(*ERROR_SCAN, **kwargs))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert got == _report_fields(shell_scan(*ERROR_SCAN, **kwargs))


def test_killed_helper_raises_then_respawns(monkeypatch, fresh_helpers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    expected = _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600))
    [(pid, _, _)] = workers._POOL.helpers
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(ChildProcessError, match=f"helper process {pid} ended without a result"):
        shell_scan(*ERROR_SCAN, samples_per_shell=600)
    assert workers._POOL.helpers == []
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # reaped
    assert _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600)) == expected
    [(respawned, _, _)] = workers._POOL.helpers
    assert respawned != pid


def test_threads_scanning_at_once_get_correct_bytes(monkeypatch, fresh_helpers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    seeds = (1, 2, 3)  # more threads than helpers and callers can take at once
    # Forks the helper while this is the only thread.
    expected = {seed: _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600,
                                                base_seed=seed)) for seed in seeds}
    barrier = threading.Barrier(len(seeds))
    got = {seed: [] for seed in seeds}

    def scan(seed):
        barrier.wait()
        for _ in range(4):
            got[seed].append(_report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600,
                                                       base_seed=seed)))

    threads = [threading.Thread(target=scan, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {seed: [expected[seed]] * 4 for seed in seeds}
    assert len(workers._POOL.helpers) == 1


def test_scan_stays_in_process_while_other_threads_run(monkeypatch, fresh_helpers, forks):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks[0] == 0 and workers._POOL.helpers == []
    assert _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600)) == got
    assert forks[0] == 1


def test_forked_child_never_dispatches_to_parent_helpers(monkeypatch, fresh_helpers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    expected = _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600))
    pool = workers._POOL
    [(helper, jobs_out, results_in)] = pool.helpers
    pid = os.fork()
    if pid == 0:  # leave only by os._exit, with the verdict as exit code
        ok = False
        try:
            ok = (jobs_out.closed and results_in.closed
                  and _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600)) == expected
                  and workers._POOL is not pool
                  and [h[0] for h in workers._POOL.helpers] not in ([], [helper]))
            workers._POOL.close()
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    # The parent's helper is still in step with it.
    assert _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=600)) == expected
    assert workers._POOL is pool and pool.helpers[0][0] == helper


DROP_AND_EXIT = """
import gc, os, sys
from pptgeo import harness, workers
from pptgeo.bipartite import BipartiteSplit
def scan():
    harness._usable_cpus = lambda: 3
    harness.shell_scan(9, BipartiteSplit(3, 3), [0.2], samples_per_shell=600)
    return [h[0] for h in workers._POOL.helpers]
first = scan()
for name in [n for n in sys.modules if n == "pptgeo" or n.startswith("pptgeo.")]:
    del sys.modules[name]
del harness, workers, BipartiteSplit
gc.collect()
for pid in first:
    try:
        os.waitpid(pid, os.WNOHANG)
        print("not reaped", pid)
    except ChildProcessError:
        pass
from pptgeo import harness, workers
from pptgeo.bipartite import BipartiteSplit
print(*scan())
"""


def test_helpers_are_reaped_when_the_module_is_dropped_and_at_exit():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", DROP_AND_EXIT], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        # Neither running nor a zombie: reaped before the interpreter exited.
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _worst_pt_floor(total_dim, radius):
    """f(r) = 1/N - r sqrt((N-1)/N): no state at HS distance r from I/N has a
    partial transpose with a lower eigenvalue (the partial transpose is an HS
    isometry fixing I/N)."""
    return 1 / total_dim - radius * math.sqrt((total_dim - 1) / total_dim)


@settings(max_examples=25, deadline=None)
@given(factors=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
       fractions=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=5, unique=True),
       samples=st.integers(1, 80),
       seed=st.integers(0, 2**16))
def test_no_shell_row_lies_below_the_worst_pt_floor(factors, fractions, samples, seed):
    split = BipartiteSplit(*factors)
    outer = math.sqrt((split.dim - 1) / split.dim)
    radii = sorted({outer * x for x in fractions})
    with mock.patch.object(harness, "_usable_cpus", lambda: 2):
        report = shell_scan(split.dim, split, radii, samples_per_shell=samples, base_seed=seed)
    for row in report.rows:
        assert not row.min_pt_eig < _worst_pt_floor(split.dim, row.radius) - 1e-12


# --- certified shell tallies ---------------------------------------------------

def _tally_of_every_row(states_, split):
    """The tally (see harness._merge) of a stack with every PT floor
    eigen-solved."""
    floors = np.linalg.eigvalsh(partial_transpose(states_, split))[:, 0]
    return len(states_), int(np.count_nonzero(floors >= -PPT_TOL)), float(floors.min())


def _reference_scan_part(total_dim, split, radius, seed, first, stop):
    """harness._scan_part with every accepted row's PT floor eigen-solved."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(first * 2 * total_dim**2)
    chunk = shell_chunk(total_dim)
    tally = (0, 0, np.inf)
    for start in range(first, stop, chunk):
        u = states.shell_uniforms(rng, total_dim, min(chunk, stop - start))
        batch = states.shell_states(u, total_dim, radius)
        if len(batch):
            tally = harness._merge(tally, _tally_of_every_row(batch, split))
    return tally


def _tally_bytes(tally):
    accepted, ppt_count, low = tally
    return accepted, ppt_count, np.float64(low).tobytes()


@settings(max_examples=60, deadline=None)
@given(factors=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (4, 4)]),
       fraction=st.floats(0.0, 0.99),
       first=st.integers(0, 40),
       samples=st.integers(1, 600),
       seed=st.integers(0, 2**16))
def test_certified_tally_equals_eigen_solving_every_row(factors, fraction, first, samples, seed):
    # Radii from the spectral floor to the ball, denser near the floor.
    split = BipartiteSplit(*factors)
    floor = 1 / math.sqrt(split.dim * (split.dim - 1))
    radius = floor + fraction**2 * (math.sqrt((split.dim - 1) / split.dim) - floor)
    job = (split.dim, split, radius, seed, first, first + samples)
    assert _tally_bytes(harness._scan_part(*job)) == _tally_bytes(_reference_scan_part(*job))


# Parts of three chunks, whose chunks share one ShellWork: at 0.9 r_hs(9)
# ragged last chunks (57 and 2 of 202 rows) after chunks that accept rows,
# and at 1.1 r_hs(9) and 1.05 r_hs(16) a last chunk of 3 rows whose screen
# accepts none after chunks that accept some.  No chunk may read rows that
# an earlier one left in the buffers.
REUSE_CASES = [((3, 3), 0.9, 3, 2 * 202 + 57, True), ((3, 3), 0.9, 3, 2 * 202 + 2, True),
               ((3, 3), 1.1, 0, 2 * 202 + 3, False), ((4, 4), 1.05, 0, 2 * 64 + 3, False)]


@pytest.mark.parametrize("factors, fraction, seed, samples, last_accepts", REUSE_CASES)
def test_reused_chunk_buffers_carry_nothing_over(monkeypatch, factors, fraction, seed, samples,
                                                 last_accepts):
    split = BipartiteSplit(*factors)
    dim = split.dim
    radius = fraction * math.sqrt(2 * dim / (dim * dim + 1) - 1 / dim)
    chunks = []
    shell_screen = harness.shell_screen

    def recorded(u, dim, radius, work):
        screen = shell_screen(u, dim, radius, work)
        chunks.append((len(u), int(np.count_nonzero(screen.accepted))))
        return screen

    monkeypatch.setattr(harness, "shell_screen", recorded)
    job = (dim, split, radius, seed, 0, samples)
    assert _tally_bytes(harness._scan_part(*job)) == _tally_bytes(_reference_scan_part(*job))
    sizes, accepted = zip(*chunks)
    assert sizes == (shell_chunk(dim),) * 2 + (samples - 2 * shell_chunk(dim),)
    assert min(accepted[:2]) > 0 and (accepted[2] > 0) == last_accepts


# Splits of N = 4, 6, 8, 9, 16 and 25 with one or two chunks of samples each
# (REUSE_CASES and the property test above span more).
SCREEN_PARITY_CASES = [((2, 2), 600), ((2, 3), 300), ((2, 4), 200), ((3, 3), 160), ((4, 4), 60),
                       ((5, 5), 40)]


@pytest.mark.parametrize("factors, samples", SCREEN_PARITY_CASES)
def test_screened_tally_equals_per_sample_reference(monkeypatch, factors, samples):
    # Every shell tally equals drawing, accepting and eigen-solving one
    # sample at a time, from half the spectral floor to 0.99 of the outer
    # radius; some rows are settled by the single-precision screen and some
    # by the float64 path.
    split = BipartiteSplit(*factors)
    dim = split.dim
    sent = []
    shell_states = harness.shell_states

    def counted(u, dim, radius):
        sent.append(len(u))
        return shell_states(u, dim, radius)

    monkeypatch.setattr(harness, "shell_states", counted)
    floor, outer = 1 / math.sqrt(dim * (dim - 1)), math.sqrt((dim - 1) / dim)
    radii = np.linspace(0.5 * floor, 0.99 * outer, 7)
    for index, radius in enumerate(radii):
        rng = np.random.default_rng([dim, index])
        attempts = [reference_shell_attempt(rng, dim, radius) for _ in range(samples)]
        floors = [reference_min_pt_eigenvalue(a, *factors) for a in attempts if a is not None]
        want = len(floors), sum(f >= -PPT_TOL for f in floors), min(floors, default=np.inf)
        got = harness._scan_part(dim, split, radius, [dim, index], 0, samples)
        assert _tally_bytes(got) == _tally_bytes(want), radius
    assert 0 < sum(sent) < len(radii) * samples


def _npt_shell_states(split, count, seed, floors=1.3):
    """Accepted states of a shell `floors` spectral floors out, beyond the PPT
    floor, where PPT and NPT rows mix (at 1.3 floors only at d = 2)."""
    radius = floors / math.sqrt(split.dim * (split.dim - 1))
    u = states.shell_uniforms(np.random.default_rng(seed), split.dim, count)
    return states.shell_states(u, split.dim, radius)


def _largest_distance(stack):
    """The largest HS distance from I/N of the states in a stack."""
    dim = stack.shape[-1]
    return float(np.linalg.norm(stack - np.eye(dim) / dim, axis=(1, 2)).max())


def _werner_at_pt_floor(d, target):
    """Werner state of local dimension d whose PT floor, (1 - p)/d^2 - p/d,
    is `target`."""
    p = (1 / d**2 - target) / (1 / d**2 + 1 / d)
    return werner(WernerParams(d, p)).matrix


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_later_row_lower_by_less_than_the_margin_wins(monkeypatch, d):
    # Werner rows whose PT floors lie 1e-13 apart, below the margin
    # (3.6e-13 at N = 4): a certificate cannot order them, the eigen-solve
    # must, within a stack and across stacks, and among more than 64 NPT
    # rows, where the bisection for the lowest starts on a sample of them.
    split = BipartiteSplit(d, d)
    rows = np.stack([_werner_at_pt_floor(d, -0.01 - k * 1e-13) for k in (0, 1)])
    floors = np.linalg.eigvalsh(partial_transpose(rows, split))[:, 0]
    assert floors[1] < floors[0]
    assert floors[0] - floors[1] < harness.cholesky_margin(split.dim)
    radius = _largest_distance(rows)
    got = harness._exact_tally(rows, split, radius, np.inf)
    assert _tally_bytes(got) == _tally_bytes(_tally_of_every_row(rows, split))
    first = harness._exact_tally(rows[:1], split, radius, np.inf)
    merged = harness._merge(first, harness._exact_tally(rows[1:], split, radius, first[2]))
    assert _tally_bytes(merged) == _tally_bytes(got)

    # Shells where some NPT floors lie above the Werner rows'.
    shell = _npt_shell_states(split, 1000, d, {2: 1.3, 3: 1.75, 4: 2.8}[d])
    shell_floors = np.linalg.eigvalsh(partial_transpose(shell, split))[:, 0]
    npt = shell[(shell_floors < -PPT_TOL) & (shell_floors > floors[0])][:70]
    assert len(npt) == 70
    stack = np.concatenate([npt[:35], rows, npt[35:]])
    bisected = []
    likely_lowest = harness._likely_lowest

    def recorded(pt, rows, top, margin, scratch, bottom):
        bisected.append((rows.size, margin))
        return likely_lowest(pt, rows, top, margin, scratch, bottom)

    monkeypatch.setattr(harness, "_likely_lowest", recorded)
    got = harness._exact_tally(stack, split, _largest_distance(stack), np.inf)
    assert _tally_bytes(got) == _tally_bytes(_tally_of_every_row(stack, split))
    assert got[2] == floors[1]
    assert bisected[0] == (72, harness.cholesky_margin(split.dim)) and len(bisected) == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_werner_rows_next_to_the_ppt_threshold_get_the_eigensolve_verdict(monkeypatch, d):
    # PT floors at -PPT_TOL (1 +- 1e-3), 1e-12 from the threshold: inside
    # the certificate's margin at N = 9 and 16 (2.7e-12, 1.1e-11), so those
    # rows must be eigen-solved; at N = 4 (margin 3.6e-13) the certificate
    # may settle them.  Either way ppt_count is the eigen-solve's.
    split = BipartiteSplit(d, d)
    near = np.stack([_werner_at_pt_floor(d, -PPT_TOL * (1 + sign * 1e-3))
                     for sign in (1, -1, 1, -1)])
    floors = np.linalg.eigvalsh(partial_transpose(near, split))[:, 0]
    assert ((floors >= -PPT_TOL) == [False, True, False, True]).all()
    batch = _npt_shell_states(split, 10, d)
    stack = np.concatenate([batch[:5], near, batch[5:]])
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solved.extend(x.tobytes() for x in np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = harness._exact_tally(stack, split, _largest_distance(stack), np.inf)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert _tally_bytes(got) == _tally_bytes(_tally_of_every_row(stack, split))
    if harness.cholesky_margin(split.dim) > 1e-12:
        for pt in partial_transpose(near, split):
            assert pt.tobytes() in solved


@pytest.mark.parametrize("d", [3, 4])
def test_claim_shell_scan_eigen_solves_at_most_2_percent_of_accepted_rows(monkeypatch, d):
    # Counted while the shell scan runs, in this process: the PSD and PT
    # eigen-solves of the sampler and the tally.  Eigen-solving every
    # accepted row would be 100%.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    solved = []
    eigvalsh, scan = np.linalg.eigvalsh, harness.shell_scan

    def counted(a, *args, **kwargs):
        solved.append(1 if np.ndim(a) == 2 else len(a))
        return eigvalsh(a, *args, **kwargs)

    def counted_scan(*args, **kwargs):
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        try:
            return scan(*args, **kwargs)
        finally:
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)

    monkeypatch.setattr(harness, "shell_scan", counted_scan)
    report = claim_check(d, samples=300)
    accepted = sum(row.accepted for row in report.shells.rows)
    assert accepted > 900
    assert 0 < sum(solved) <= 0.02 * accepted


# --- spectrum check ----------------------------------------------------------

def test_spectrum_check_2x2():
    report = spectrum_check(BipartiteSplit(2, 2), trials=100, seed=0)
    assert report.passed
    assert report.max_deviation <= 1e-9


def test_spectrum_check_3x4_with_zero_multiplicity():
    split = BipartiteSplit(3, 4)
    report = spectrum_check(split, trials=100, seed=1)
    assert report.passed
    # random pure states have full Schmidt rank 3: zero multiplicity
    # 3*1 + 9 - 9 = 3
    psi = sample_pure(np.random.default_rng(5), 12)
    sd = schmidt(psi, split)
    assert sd.rank == 3
    spectrum = pt_spectrum_analytic(sd, split)
    assert int(np.sum(spectrum == 0.0)) == 3


def test_spectrum_check_degenerate_product_state():
    split = BipartiteSplit(2, 3)
    psi = PureState(dim=6, amplitudes=np.eye(6)[0])
    spectrum = pt_spectrum_analytic(schmidt(psi, split), split)
    np.testing.assert_allclose(spectrum, [0, 0, 0, 0, 0, 1], atol=1e-12)


# --- claim check -------------------------------------------------------------

def test_claim_check_qubits_consistent():
    report = claim_check(2, samples=400, base_seed=7)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.counterexample is None
    assert report.spectrum.passed
    for row in report.shells.rows:
        assert row.ppt_fraction == 1.0


def test_claim_check_qutrits_finds_counterexample():
    report = claim_check(3, samples=400, base_seed=7)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    ce = report.counterexample
    assert ce is not None and ce.source == "werner-probe"
    assert ce.distance <= report.table.ppt_radius
    assert ce.min_pt_eig <= -1e-3
    # probe values against the closed-form Werner oracle
    probe = report.probe
    assert probe.min_pt_eig == pytest.approx(werner_min_pt_oracle(3, probe.p), abs=1e-12)


def test_claim_check_d4_counterexample_expected():
    report = claim_check(4, samples=100, base_seed=3)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    probe = report.probe
    assert probe is not None
    assert abs(report.sweep.p_star - 0.2) <= 1e-9
    assert probe.min_pt_eig == pytest.approx(werner_min_pt_oracle(4, probe.p), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_claim_check_validates_at_most_two_states(monkeypatch, d):
    # The Werner rows, bisection and probe are evaluated on unvalidated
    # matrices, and the shell scan keeps no state: the one state validated
    # is the Werner-probe counterexample, which d = 2 does not have.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    validated = []
    validate = states.DensityMatrix.__post_init__

    def counted(self):
        validated.append(self.dim)
        validate(self)

    monkeypatch.setattr(states.DensityMatrix, "__post_init__", counted)
    claim_check(d, samples=300, base_seed=0)
    assert validated == ([] if d == 2 else [d * d])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_the_werner_probe_decides_every_claim_verdict(d):
    # No shell row can refute the claim where the probe does not: at d = 2
    # there is no probe, and the claimed radius is the spectral floor, so
    # every shell state is PPT; at d >= 3 the probe refutes it.
    report = claim_check(d, samples=50, base_seed=d)
    claimed = report.table.ppt_radius
    if d == 2:
        assert report.probe is None and report.verdict == VERDICT_CONSISTENT
        assert all(row.ppt_fraction == 1.0 for row in report.shells.rows)
    else:
        assert report.probe.min_pt_eig < -1e-3 and report.probe.distance < claimed
        assert report.verdict == VERDICT_COUNTEREXAMPLE
        assert report.counterexample.source == "werner-probe"


def test_claim_check_validates_domain():
    with pytest.raises(ValueError):
        claim_check(7)
    for samples in (0, harness.MAX_SAMPLES_PER_SHELL + 1):
        with pytest.raises(ValueError, match=f"samples must lie in 1..1000000, got {samples}"):
            claim_check(2, samples=samples)


@pytest.mark.parametrize("samples", [20.0, True, "20", None])
def test_sample_counts_must_be_integers(samples):
    with pytest.raises(ValueError, match=re.escape(f"samples must be an integer, got {samples!r}")):
        claim_check(2, samples=samples)
    with pytest.raises(ValueError, match=re.escape(f"samples_per_shell must be an integer, got {samples!r}")):
        shell_scan(4, BipartiteSplit(2, 2), [0.1], samples_per_shell=samples)
    # numpy integers are integers too, recorded as Python ones.
    report = claim_check(2, samples=np.int64(3))
    assert [type(row.samples) for row in report.shells.rows] == [int] * 4
    assert report.shells.samples_per_shell == 3 and type(report.shells.samples_per_shell) is int


@pytest.mark.parametrize("seed", [1.5, True, "1", None])
def test_seeds_must_be_integers(monkeypatch, seed):
    # Refused before any work: no shell is scanned, here or in a helper.
    def no_scan(fn, batches):
        raise AssertionError("a shell was scanned")

    monkeypatch.setattr(harness, "pool_map", no_scan)
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        claim_check(2, samples=20, base_seed=seed)
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        shell_scan(4, BipartiteSplit(2, 2), [0.1], samples_per_shell=20, base_seed=seed)


def test_claim_report_roundtrip_and_reverification(tmp_path):
    report = claim_check(3, samples=100, base_seed=1)
    obj = claim_report_to_dict(report, timestamp="fixed")
    path = tmp_path / "claim.json"
    serialize.save_json(obj, path)
    loaded = load_claim_report(path)
    assert loaded["verdict"] == VERDICT_COUNTEREXAMPLE
    assert loaded["counterexample"]["state"]["factors"] == [3, 3]

    # tampering with the attached state must break re-verification
    bad = json.loads(json.dumps(obj))
    eye9 = np.eye(9) / 9
    bad["counterexample"]["state"]["data"] = [
        [float(eye9[i, j]), 0.0] for i in range(9) for j in range(9)
    ]
    with pytest.raises(ValueError):
        verify_claim_report(bad)

    # a counterexample verdict without a state is invalid
    bad2 = json.loads(json.dumps(obj))
    bad2["counterexample"] = None
    with pytest.raises(ValueError):
        verify_claim_report(bad2)


def test_claim_report_with_a_forged_radius_fails_verification():
    # A d = 3 report whose recorded PPT radius is raised to 0.9, with a
    # Werner state at p = 0.9 (distance 0.849, NPT) as its counterexample:
    # the state lies inside the recorded radius but not the claimed 0.3247.
    obj = claim_report_to_dict(claim_check(3, samples=20, base_seed=1), timestamp="t")
    obj["bounds"]["ppt_radius"] = 0.9
    obj["counterexample"]["state"] = serialize.matrix_to_json(
        werner(WernerParams(3, 0.9)).matrix, factors=(3, 3))
    with pytest.raises(ValueError, match="'bounds' 'ppt_radius' must be 0.32469446904545857, got 0.9"):
        verify_claim_report(obj)


def test_forged_consistent_verdict_fails_verification():
    # A d = 3 report edited to CONSISTENT, without its counterexample: the
    # recomputed report differs first in the Werner probe, whatever floor
    # the probe records and whether it is there at all.  An unknown verdict
    # on an otherwise genuine report is refused by name.
    genuine = claim_report_to_dict(claim_check(3, samples=20, base_seed=1), timestamp="t")
    obj = json.loads(json.dumps(genuine))
    assert obj["verdict"] == VERDICT_COUNTEREXAMPLE
    obj["verdict"], obj["counterexample"] = VERDICT_CONSISTENT, None
    obj["werner_probe"]["min_pt_eigenvalue"] = 0.0
    with pytest.raises(ValueError, match=re.escape(
            "'werner_probe' 'min_pt_eigenvalue' must be -0.0209756647299134, got 0.0")):
        verify_claim_report(obj)
    obj["werner_probe"] = None
    with pytest.raises(ValueError, match=re.escape(
            "'werner_probe' must be {\"p\": 0.29719524564230504, \"distance\": 0.280198364706767 ..., got null")):
        verify_claim_report(obj)
    genuine["verdict"] = "PLAUSIBLE"
    with pytest.raises(ValueError, match=re.escape(
            "'verdict' must be \"COUNTEREXAMPLE_FOUND\", got \"PLAUSIBLE\"")):
        verify_claim_report(genuine)


@pytest.mark.parametrize("field, value, message", [
    ("qudit_dim", 3000, "'qudit_dim' must be an integer in 2..6, got 3000"),
    ("qudit_dim", 3.5, "'qudit_dim' must be an integer in 2..6, got 3.5"),
    ("qudit_dim", True, "'qudit_dim' must be an integer in 2..6, got True"),
    pytest.param("p", "0.3", "'werner_probe' must be null, got {\"p\": \"0.3\", \"distance\": 0.0, "
                 "\"min_pt_eigenvalue\": 0.0}",
                 id="p-0.3-'werner_probe' 'p' forged"),
    pytest.param("p", 1.5, "'werner_probe' must be null, got {\"p\": 1.5, \"distance\": 0.0, "
                 "\"min_pt_eigenvalue\": 0.0}",
                 id="p-1.5-'werner_probe' 'p' forged"),
    pytest.param("p", float("nan"), "'werner_probe' must be null, got {\"p\": NaN, \"distance\": 0.0, "
                 "\"min_pt_eigenvalue\": 0.0}",
                 id="p-nan-'werner_probe' 'p' forged"),
    pytest.param("row", ["0.1", 500, 0.0], "'shell_scan' 'rows' 0 must be [0.14433756729740646, 20, "
                 "20, 20, 1.0, 0.13488649341420036], got [\"0.1\", 500, 0.0]",
                 id="row-value6-'shell_scan' row 0 forged"),
    pytest.param("row", [0.1, 500, None], "'shell_scan' 'rows' 0 must be [0.14433756729740646, 20, "
                 "20, 20, 1.0, 0.13488649341420036], got [0.1, 500, null]",
                 id="row-value7-'shell_scan' row 0 forged"),
    pytest.param("row", [], "'shell_scan' 'rows' 0 must be [0.14433756729740646, 20, "
                 "20, 20, 1.0, 0.13488649341420036], got []",
                 id="row-value8-'shell_scan' row 0 forged"),
])
def test_forged_consistent_report_fields_raise_value_error(field, value, message):
    # A CONSISTENT report with a forged Werner probe or shell row.  A
    # qudit_dim that would make the recomputation allocate a Werner state at
    # N = 9,000,000, or that has another type, is refused by name before
    # anything is recomputed (it comes with its own claimed radius, so only
    # the domain check stands in the way); the other forgeries are refused
    # at the first field that differs from the recomputed report.
    obj = claim_report_to_dict(claim_check(2, samples=20, base_seed=1), timestamp="t")
    assert obj["verdict"] == VERDICT_CONSISTENT
    obj["werner_probe"] = {"p": 0.3, "distance": 0.0, "min_pt_eigenvalue": 0.0}
    if field == "qudit_dim":
        obj["qudit_dim"] = value
        if not isinstance(value, bool):
            obj["bounds"]["ppt_radius"] = bounds.ppt_radius(value * value)
    elif field == "p":
        obj["werner_probe"]["p"] = value
    else:
        obj["shell_scan"]["rows"][0] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_claim_report(obj)


@functools.lru_cache(maxsize=None)
def _genuine_report(d: int) -> str:
    """A genuine claim report as JSON text: CONSISTENT at d = 2, a Werner-probe
    COUNTEREXAMPLE_FOUND at d = 3."""
    return json.dumps(claim_report_to_dict(claim_check(d, samples=20, base_seed=1), timestamp="t"))


_DELETE = object()


def _forge(obj, path: tuple, value):
    """obj with the value at `path` (keys and list indices) set to `value`,
    or deleted when it is _DELETE; `value` itself when the path is empty."""
    if not path:
        return value
    parent = functools.reduce(lambda o, key: o[key], path[:-1], obj)
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _paths(obj, prefix=()):
    """Every key and list-index path below obj."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("d, path, value, message", [
    (2, ("werner_probe",), _DELETE, "missing field 'werner_probe'"),
    (2, ("werner_probe",), [0.3], "'werner_probe' must be null, got [0.3]"),
    (2, ("shell_scan",), None, "'shell_scan' must be an object, got None"),
    (2, ("bounds",), {}, "missing field 'bounds' 'outer_radius'"),
    (2, ("verdict",), _DELETE, "missing field 'verdict'"),
    (2, (), [], "a claim report must be a JSON object, got list"),
    (3, ("counterexample",), "x", "'counterexample' must be {\"source\": \"werner-probe\", "
                                  "\"distance\": 0.280198364706767 ..., got \"x\""),
    (3, ("counterexample", "state"), _DELETE, "missing field 'counterexample' 'state'"),
    (3, ("bounds",), _DELETE, "missing field 'bounds'"),
    (3, ("qudit_dim",), "three", "'qudit_dim' must be an integer in 2..6, got 'three'"),
    (3, ("qudit_dim",), 4, "'total_dim' must be 16, got 9"),
], ids=["no-probe", "probe-list", "shell-scan-null", "bounds-empty", "no-verdict", "top-level-list",
        "counterexample-string", "no-state", "counterexample-no-bounds", "qudit-dim-string",
        "qudit-dim-relabelled"])
def test_forged_report_structure_raises_value_error_naming_the_field(d, path, value, message):
    obj = _forge(json.loads(_genuine_report(d)), path, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_claim_report(obj)


def test_relabelled_counterexample_report_must_match_its_state_factors():
    # A d = 3 counterexample report relabelled d = 4 together with the d = 4
    # claimed radius: the 3x3 state it carries no longer fits the label.
    obj = json.loads(_genuine_report(3))
    obj["qudit_dim"], obj["bounds"]["ppt_radius"] = 4, bounds.ppt_radius(16)
    with pytest.raises(ValueError, match=re.escape("'total_dim' must be 16, got 9")):
        verify_claim_report(obj)


@pytest.mark.parametrize("path, value, message", [
    (("werner_sweep", "p_star"), 0.9, "'werner_sweep' 'p_star' must be 0.24999999997089617, got 0.9"),
    (("spectrum_check", "passed"), False, "'spectrum_check' 'passed' must be true, got false"),
    (("total_dim",), 16, "'total_dim' must be 9, got 16"),
    (("bounds", "separable_radius"), 0.5,
     "'bounds' 'separable_radius' must be 0.23570226039551584, got 0.5"),
    (("counterexample", "distance"), 123.0,
     "'counterexample' 'distance' must be 0.2801983647067676, got 123.0"),
    (("shell_scan", "samples_per_shell"), 20.0,
     "'shell_scan' 'samples_per_shell' must be an integer in 1..1000000, got 20.0"),
    (("shell_scan", "samples_per_shell"), 10**6 + 1,
     "'shell_scan' 'samples_per_shell' must be an integer in 1..1000000, got 1000001"),
    (("spectrum_check", "passed"), 1, "'spectrum_check' 'passed' must be true, got 1"),
    (("shell_scan", "rows", 0, 2), 20.0, "'shell_scan' 'rows' 0 2 must be 20, got 20.0"),
    (("verdict",), VERDICT_CONSISTENT, "'verdict' must be \"COUNTEREXAMPLE_FOUND\", got \"CONSISTENT\""),
    (("header", "tool_version"), "0.0.9", "'header' 'tool_version' must be \"0.1.0\", got \"0.0.9\""),
    (("header", "seed"), 2,
     "'shell_scan' 'rows' 0 5 must be 0.011970973165005682, got 0.008092810844215283"),
    (("header", "seed"), -1, "'header' 'seed' must be an integer >= 0, got -1"),
    (("header", "timestamp"), None, "'header' 'timestamp' must be a string, got None"),
    (("header", "extra"), 1, "unexpected field 'header' 'extra'"),
], ids=["p-star", "spectrum-failed", "total-dim", "separable-radius", "counterexample-distance",
        "samples-float", "samples-over-cap", "spectrum-passed-int", "accepted-float", "verdict",
        "tool-version", "other-seed", "negative-seed", "timestamp-null", "extra-field"])
def test_every_forged_figure_is_refused_naming_its_path(path, value, message):
    # A genuine d = 3 report with one figure edited: the loader recomputes
    # the report from its recorded d, samples and seed and names the first
    # field that differs, leaves compared by their JSON text.
    obj = _forge(json.loads(_genuine_report(3)), path, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_claim_report(obj)


@pytest.mark.parametrize("d, samples", [(2, harness.DEFAULT_SAMPLES_PER_SHELL),
                                        (3, harness.DEFAULT_SAMPLES_PER_SHELL),
                                        (4, harness.DEFAULT_SAMPLES_PER_SHELL), (5, 200), (6, 200)])
def test_genuine_claim_reports_reverify(tmp_path, d, samples):
    path = tmp_path / "claim.json"
    serialize.save_json(claim_report_to_dict(claim_check(d, samples=samples, base_seed=7)), path)
    assert load_claim_report(path)["qudit_dim"] == d


def test_an_empty_timestamp_is_recorded_and_reverifies():
    obj = claim_report_to_dict(claim_check(2, samples=20, base_seed=1), timestamp="")
    assert obj["header"]["timestamp"] == ""
    verify_claim_report(json.loads(json.dumps(obj)))


@given(data=st.data(), d=st.sampled_from([2, 3]),
       value=st.sampled_from([_DELETE, None, [], "x", True, 10**9]))
@settings(max_examples=300, deadline=None)
def test_one_forged_field_returns_or_raises_value_error(data, d, value):
    # Delete or replace the value at one path of a genuine report: the loader
    # either accepts the report or refuses it with a ValueError, never with
    # another exception.
    obj = json.loads(_genuine_report(d))
    path = data.draw(st.sampled_from(list(_paths(obj))))
    try:
        verify_claim_report(_forge(obj, path, value))
    except ValueError:
        pass


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_genuine_consistent_qubit_reports_load(tmp_path, seed):
    report = claim_check(2, samples=100, base_seed=seed)
    assert report.verdict == VERDICT_CONSISTENT
    path = tmp_path / "claim2.json"
    serialize.save_json(claim_report_to_dict(report), path)
    assert load_claim_report(path)["verdict"] == VERDICT_CONSISTENT


def test_claim_report_deterministic_modulo_timestamp():
    a = claim_report_to_dict(claim_check(2, samples=150, base_seed=4), timestamp="t")
    b = claim_report_to_dict(claim_check(2, samples=150, base_seed=4), timestamp="t")
    assert serialize.dumps(a) == serialize.dumps(b)
