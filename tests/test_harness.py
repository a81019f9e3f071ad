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

from pptgeo import cli, harness, serialize, states, workers
from pptgeo.bipartite import BipartiteSplit, pt_spectrum_analytic, schmidt
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
from pptgeo.states import PureState, ShellUnreachable, shell_chunk

from conftest import werner_min_pt_oracle


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
        shell_scan(4, split, [0.2, 0.9], samples_per_shell=10)


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
    worst = None if report.worst_state is None else report.worst_state.matrix.tobytes()
    # repr, since a shell no sample reaches has min_pt_eig nan, and nan != nan.
    return (shells_to_csv(report), repr(report.rows), report.worst_radius,
            report.worst_min_pt, worst)


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
    """Inside the spectral floor, just inside and outside r_hs(N), halfway
    from r_hs to the outer radius (the screen drops whole chunks) and at
    0.99 of the outer radius, which no sample reaches."""
    typical, outer = states._typical_hs_radius(total), math.sqrt((total - 1) / total)
    return (0.9 / math.sqrt(total * (total - 1)), 0.95 * typical, 1.05 * typical,
            (typical + outer) / 2, 0.99 * outer)


@pytest.mark.parametrize("factors", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_split_scan_matches_in_process_scan(monkeypatch, fresh_helpers, factors):
    split = BipartiteSplit(*factors)
    chunk = shell_chunk(split.dim)
    radii = _landscape_radii(split.dim)
    for samples in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        for capture in (False, True):
            kwargs = dict(samples_per_shell=samples, base_seed=samples, capture_worst=capture)
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
            expected = _report_fields(shell_scan(split.dim, split, radii, **kwargs))
            assert (expected[4] is not None) == capture
            for cpus in (2, 3):
                monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
                assert _report_fields(shell_scan(split.dim, split, radii, **kwargs)) == expected
    report = shell_scan(split.dim, split, radii, samples_per_shell=3 * chunk + 7)
    assert report.rows[0].ppt_count == report.rows[0].samples
    assert report.rows[-1].accepted == 0
    # Three CPUs, four chunks: two helpers, forked once for the whole test.
    assert len(workers._POOL.helpers) == 2


# N = 9 stacks 50 samples a chunk, N = 4 stacks 256.  The radii run past
# r_hs(N), where the screen drops rows, and at N = 4 to a shell that no
# sample reaches.
PARITY_CASES = [((3, 3), (0.05, 0.15, 0.3, 0.45, 0.8), 130),
                ((2, 2), (0.1, 0.3, 0.5, 0.7, 0.86), 300),
                ((2, 3), (0.1, 0.25, 0.4, 0.55, 0.7), 1)]


@pytest.mark.parametrize("factors, radii, samples", PARITY_CASES)
def test_forked_scan_matches_in_process_scan(monkeypatch, fresh_helpers, forks, factors, radii,
                                             samples):
    split = BipartiteSplit(*factors)
    chunks = -(-samples // shell_chunk(split.dim))
    assert samples % shell_chunk(split.dim) != 0
    for count in range(1, len(radii) + 1):
        for capture in (False, True):
            args = (split.dim, split, radii[:count])
            kwargs = dict(samples_per_shell=samples, base_seed=count, capture_worst=capture)
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
            expected = _report_fields(shell_scan(*args, **kwargs))
            assert (expected[4] is not None) == capture
            for cpus in (2, 3):
                monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
                assert _report_fields(shell_scan(*args, **kwargs)) == expected
    # Helpers persist: one per part beyond the first, forked once.
    assert forks[0] == min(3, chunks) - 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tied_shell_minima_keep_the_earlier_shell(monkeypatch, fresh_helpers, cpus):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)

    @functools.wraps(harness._scan_part)  # pickles by name, so helpers run it too
    def tied(total_dim, split, radius, seed, first, stop):
        # Every shell ties, and so do all parts after the first; the state
        # tells which shell and part it came from.
        diagonal = np.array([1.0 + first + 1000 * seed, 1.0, 1.0, 1.0])
        state = np.diag(diagonal / diagonal.sum()).astype(np.complex128)
        return stop - first, 0, -0.05 if first == 0 else -0.1, state

    monkeypatch.setattr(harness, "_scan_part", tied)
    workers._POOL.close()  # helpers run the code as loaded when forked
    # 600 samples are three chunks at N = 4: parts start at 0, 256 and 512.
    report = shell_scan(4, BipartiteSplit(2, 2), [0.1, 0.2, 0.3], samples_per_shell=600,
                        base_seed=0, capture_worst=True)
    first = 0 if cpus == 1 else 256
    diagonal = np.array([1.0 + first, 1.0, 1.0, 1.0])
    assert report.worst_radius == 0.1
    assert report.worst_min_pt == (-0.05 if cpus == 1 else -0.1)
    assert report.worst_state.matrix.tobytes() == np.diag(diagonal / diagonal.sum()).astype(
        np.complex128).tobytes()
    assert [row.accepted for row in report.rows] == [600] * 3
    assert len(workers._POOL.helpers) == cpus - 1


def _fail_in(monkeypatch, where, failing_seed, make=None):
    """Make the shell with seed `failing_seed` raise in the caller's part or
    in a helper's (`make()`, or a ShellUnreachable naming the shell)."""
    caller = os.getpid()
    scan = harness._scan_part

    @functools.wraps(scan)  # pickles by name, so helpers forked from now on run it
    def scan_or_fail(total_dim, split, radius, seed, first, stop):
        if seed == failing_seed and (os.getpid() == caller) == (where == "parent"):
            if make is not None:
                raise make()
            raise ShellUnreachable(f"no PSD state found on shell r={radius} (seed {seed})")
        return scan(total_dim, split, radius, seed, first, stop)

    monkeypatch.setattr(harness, "_scan_part", scan_or_fail)
    workers._POOL.close()  # helpers run the code as loaded when forked


# 150 samples are three chunks at N = 9, so with 3 CPUs each has a part of every shell.
ERROR_SCAN = (9, BipartiteSplit(3, 3), [0.1, 0.2, 0.3, 0.4, 0.5])


@pytest.mark.parametrize("cpus, where, failing_seed", [
    (2, "child", 1), (3, "child", 2), (3, "child", 1), (2, "parent", 0), (3, "parent", 3),
])
def test_worker_error_is_raised_and_every_child_reaped(monkeypatch, fresh_helpers, forks, cpus,
                                                       where, failing_seed):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    _fail_in(monkeypatch, where, failing_seed)
    radii = ERROR_SCAN[2]
    with pytest.raises(ShellUnreachable) as info:
        shell_scan(*ERROR_SCAN, samples_per_shell=150)
    assert str(info.value) == (f"no PSD state found on shell r={radii[failing_seed]} "
                               f"(seed {failing_seed})")
    assert forks[0] == cpus - 1
    # No reply of the failed scan is left to be read: the next scan (seeds
    # 10-14, none failing) matches the same scan in this process alone.
    kwargs = dict(samples_per_shell=150, base_seed=10, capture_worst=True)
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
        shell_scan(*ERROR_SCAN, samples_per_shell=150)
    assert cli.main(["shell-scan", "--N", "9", "--split", "3x3", "--radii", "0.1",
                     "--samples", "150"]) == 2
    assert re.match(message, capsys.readouterr().err.removeprefix("error: "))
    kwargs = dict(samples_per_shell=150, base_seed=1)
    got = _report_fields(shell_scan(*ERROR_SCAN, **kwargs))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert got == _report_fields(shell_scan(*ERROR_SCAN, **kwargs))


def test_killed_helper_raises_then_respawns(monkeypatch, fresh_helpers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    expected = _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150))
    [(pid, _, _)] = workers._POOL.helpers
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(ChildProcessError, match=f"helper process {pid} ended without a result"):
        shell_scan(*ERROR_SCAN, samples_per_shell=150)
    assert workers._POOL.helpers == []
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # reaped
    assert _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150)) == expected
    [(respawned, _, _)] = workers._POOL.helpers
    assert respawned != pid


def test_threads_scanning_at_once_get_correct_bytes(monkeypatch, fresh_helpers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    seeds = (1, 2, 3)  # more threads than helpers and callers can take at once
    # Forks the helper while this is the only thread.
    expected = {seed: _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150,
                                                base_seed=seed)) for seed in seeds}
    barrier = threading.Barrier(len(seeds))
    got = {seed: [] for seed in seeds}

    def scan(seed):
        barrier.wait()
        for _ in range(4):
            got[seed].append(_report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150,
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
        got = _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks[0] == 0 and workers._POOL.helpers == []
    assert _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150)) == got
    assert forks[0] == 1


def test_forked_child_never_dispatches_to_parent_helpers(monkeypatch, fresh_helpers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    expected = _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150))
    pool = workers._POOL
    [(helper, jobs_out, results_in)] = pool.helpers
    pid = os.fork()
    if pid == 0:  # leave only by os._exit, with the verdict as exit code
        ok = False
        try:
            ok = (jobs_out.closed and results_in.closed
                  and _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150)) == expected
                  and workers._POOL is not pool
                  and [h[0] for h in workers._POOL.helpers] not in ([], [helper]))
            workers._POOL.close()
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    # The parent's helper is still in step with it.
    assert _report_fields(shell_scan(*ERROR_SCAN, samples_per_shell=150)) == expected
    assert workers._POOL is pool and pool.helpers[0][0] == helper


DROP_AND_EXIT = """
import gc, os, sys
from pptgeo import harness, workers
from pptgeo.bipartite import BipartiteSplit
def scan():
    harness._usable_cpus = lambda: 3
    harness.shell_scan(9, BipartiteSplit(3, 3), [0.2], samples_per_shell=150)
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
        report = shell_scan(split.dim, split, radii, samples_per_shell=samples,
                            base_seed=seed, capture_worst=True)
    for row in report.rows:
        assert not row.min_pt_eig < _worst_pt_floor(split.dim, row.radius) - 1e-12
    if report.worst_state is not None:
        assert report.worst_min_pt == min(r.min_pt_eig for r in report.rows if r.accepted)


# --- spectrum check ----------------------------------------------------------

def test_spectrum_check_2x2():
    report = spectrum_check([BipartiteSplit(2, 2)], trials=100, seed=0)
    assert report.passed
    assert report.rows[0].max_deviation <= 1e-9


def test_spectrum_check_3x4_with_zero_multiplicity():
    split = BipartiteSplit(3, 4)
    report = spectrum_check([split], trials=100, seed=1)
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


def test_claim_check_validates_domain():
    with pytest.raises(ValueError):
        claim_check(7)


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


def test_claim_report_deterministic_modulo_timestamp():
    a = claim_report_to_dict(claim_check(2, samples=150, base_seed=4), timestamp="t")
    b = claim_report_to_dict(claim_check(2, samples=150, base_seed=4), timestamp="t")
    assert serialize.dumps(a) == serialize.dumps(b)
