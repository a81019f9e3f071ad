"""Per-layer timings of the shell sampler, the claim check and the witness search.

Run from the root of a checkout with pytest-benchmark installed:

    python -m pytest benchmarks --benchmark-json BENCH_<label>.json

Tier-1 (`testpaths = ["tests"]`) does not collect these.  Each stage of one
shell chunk is timed on its own, at d = 3 (N = 9, 50 samples a chunk) on
the shell at 0.99 of the claimed PPT radius, where PPT and NPT samples and
rejects all occur:

- the uniform draw (`shell_uniforms`),
- the single-precision screen (`shell_screen`),
- the float64 path on the rows the screen leaves open (`shell_states`),
- the PT decision on the screened candidates (`_screened_pt`),

and, end to end, one whole chunk (`_chunk_tally`), `claim_check(d)` for
d = 2..6 with 2,000 samples per shell, and one restart of the 3x4 witness
search.
"""

import numpy as np
import pytest

from pptgeo import harness, states
from pptgeo.bipartite import BipartiteSplit, is_ppt
from pptgeo.bounds import ppt_radius
from pptgeo.distill import find_schmidt2_witness

D = 3
SPLIT = BipartiteSplit(D, D)
RADIUS = 0.99 * ppt_radius(D * D)


@pytest.fixture(scope="module")
def chunk():
    """One chunk's uniforms, its screen, the rows it sends to the float64
    path, and the lowest PT floor of the shell's first 1,000 samples (the
    floor a later chunk starts from)."""
    dim = SPLIT.dim
    floor = harness._scan_part(dim, SPLIT, RADIUS, 1, 0, 1000)[2]
    u = states.shell_uniforms(np.random.default_rng(7), dim, states.shell_chunk(dim))
    sent = []
    shell_states = harness.shell_states

    def recorded(rows, *args):
        sent.append(rows)
        return shell_states(rows, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "shell_states", recorded)
        harness._chunk_tally(u, SPLIT, RADIUS, floor)
    return u, states.shell_screen(u, dim, RADIUS), sent[0], floor


@pytest.fixture(autouse=True)
def one_process(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)


def _timed(benchmark, fn, *args, **kwargs):
    # 100 rounds of 10 calls: each round's figure is a mean over 10 calls,
    # and the JSON keeps 100 figures per test rather than thousands.
    benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=100, iterations=10, warmup_rounds=1)


def test_stage_uniform_draw(benchmark):
    rng = np.random.default_rng(7)
    _timed(benchmark, states.shell_uniforms, rng, SPLIT.dim, states.shell_chunk(SPLIT.dim))


def test_stage_float32_screen(benchmark, chunk):
    u, _, _, _ = chunk
    _timed(benchmark, states.shell_screen, u, SPLIT.dim, RADIUS)


def test_stage_float64_path_on_open_rows(benchmark, chunk):
    _, _, sent, _ = chunk
    benchmark.extra_info["rows"] = len(sent)
    _timed(benchmark, states.shell_states, sent, SPLIT.dim, RADIUS)


def test_stage_pt_decision(benchmark, chunk):
    _, screen, _, floor = chunk
    _timed(benchmark, harness._screened_pt, screen.candidates, SPLIT, floor)


def test_whole_chunk(benchmark, chunk):
    u, _, _, floor = chunk
    _timed(benchmark, harness._chunk_tally, u, SPLIT, RADIUS, floor)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_claim_check(benchmark, d):
    benchmark.pedantic(harness.claim_check, args=(d,), kwargs={"base_seed": 1}, rounds=3,
                       warmup_rounds=1 if d < 5 else 0)


def test_witness_restart(benchmark):
    split = BipartiteSplit(3, 4)
    state = states.sample_hs(np.random.default_rng(3), split.dim)
    assert not is_ppt(state, split).ppt
    _timed(benchmark, find_schmidt2_witness, state, split, restarts=1)
