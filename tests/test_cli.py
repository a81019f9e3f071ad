import hashlib
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from pptgeo import cli, distill, serialize
from pptgeo.cli import build_parser, main
from pptgeo.states import WernerParams, max_entangled, werner


@pytest.fixture
def werner26_file(tmp_path):
    path = tmp_path / "werner26.json"
    state = werner(WernerParams(3, 0.26))
    serialize.save_json(serialize.matrix_to_json(state.matrix, factors=(3, 3)), path)
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    serialize.save_json(
        serialize.vector_to_json(max_entangled(2).amplitudes, factors=(2, 2)), path
    )
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bounds_command(capsys):
    code, out = run(["bounds", "--d", "3", "--n", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["total_dim"] == 9
    assert obj["ppt_radius"] == pytest.approx(0.32469446904545857)
    assert obj["header"]["tool_version"] == serialize.TOOL_VERSION


def test_bounds_command_rejects_n3(capsys):
    code, _ = run(["bounds", "--d", "2", "--n", "3"], capsys)
    assert code == 2


def test_classify_command_exit_zero_even_on_contradiction(capsys, werner26_file):
    code, out = run(["classify", "--input", werner26_file, "--split", "3x3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["zone"] == "PPT_BALL_CLAIM"
    assert obj["contradiction_flag"] is True
    assert obj["numeric_ppt"] is False


def test_classify_split_from_file_metadata(capsys, werner26_file):
    code, out = run(["classify", "--input", werner26_file], capsys)
    assert code == 0
    assert json.loads(out)["split"] == "3x3"


def test_pt_spectrum_command(capsys, bell_file):
    code, out = run(["pt-spectrum", "--input", bell_file, "--split", "2x2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["schmidt_rank"] == 2
    assert obj["max_abs_deviation"] <= 1e-9
    np.testing.assert_allclose(obj["analytic_spectrum"], [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_werner_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _ = run(["werner-sweep", "--d", "2", "--grid", "9", "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert "p,distance,min_pt_eig,ppt" in text
    assert "# p_star=" in text


def test_shell_scan_command(tmp_path, capsys):
    out_path = tmp_path / "shells.csv"
    code, _ = run([
        "shell-scan", "--N", "4", "--split", "2x2", "--radii", "0.1,0.2",
        "--samples", "50", "--seed", "5", "--out", str(out_path),
    ], capsys)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[-1].count(",") == 5


def test_distill_witness_command(tmp_path, capsys):
    path = tmp_path / "w.json"
    state = werner(WernerParams(2, 0.8))
    serialize.save_json(serialize.matrix_to_json(state.matrix, factors=(2, 2)), path)
    code, out = run(["distill-witness", "--input", str(path), "--split", "2x2",
                     "--seed", "9"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["witness_schmidt_rank"] <= 2
    assert abs(obj["recomputed_value"] - obj["value"]) <= 1e-10


def _werner_file(tmp_path, d, p, factors=True):
    path = tmp_path / f"werner-{d}-{p}.json"
    state = werner(WernerParams(d, p))
    serialize.save_json(serialize.matrix_to_json(state.matrix,
                                                 factors=(d, d) if factors else None), path)
    return str(path)


def test_distill_witness_command_restart_path(tmp_path, capsys):
    # 3x3 takes the restarted alternating search, not the exact 2xN path.
    code, out = run(["distill-witness", "--input", _werner_file(tmp_path, 3, 0.5)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert abs(obj["value"] - ((1 - 0.5) / 9 - 0.5 / 3)) <= 1e-8
    assert abs(obj["recomputed_value"] - obj["value"]) <= 1e-10
    assert obj["witness_schmidt_rank"] <= 2
    assert obj["restarts_used"] == 64
    assert obj["certified"] is True

    # p = 0.2 < 1/4 is PPT: absence is certified by the PT spectrum, no restarts run.
    code, out = run(["distill-witness", "--input", _werner_file(tmp_path, 3, 0.2)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is False
    assert obj["certified"] is True
    assert obj["restarts_used"] == 0
    assert abs(obj["value"] - ((1 - 0.2) / 9 - 0.2 / 3)) <= 1e-12
    assert obj["witness"] is None


def test_distill_witness_zero_restarts_exits_2(tmp_path, capsys):
    code = main(["distill-witness", "--input", _werner_file(tmp_path, 3, 0.5),
                 "--restarts", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: restarts and iters must be >= 1\n"


@pytest.mark.parametrize("p", [0.2, 0.5])  # PPT (certified, no search) and NPT (searched)
def test_distill_witness_negative_seed_exits_2(tmp_path, capsys, p):
    code = main(["distill-witness", "--input", _werner_file(tmp_path, 3, p), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["classify", "pt-spectrum", "distill-witness"])
def test_missing_split_exits_2(tmp_path, capsys, command):
    path = tmp_path / "nofactors.json"
    if command == "pt-spectrum":
        serialize.save_json(serialize.vector_to_json(max_entangled(2).amplitudes), path)
    else:
        path = _werner_file(tmp_path, 3, 0.5, factors=False)
    code = main([command, "--input", str(path)])
    assert code == 2
    assert capsys.readouterr().err == "error: no split given and none recorded in the input file\n"


def test_claim_check_command(tmp_path, capsys):
    out_path = tmp_path / "claim.json"
    code, _ = run(["claim-check", "--d", "2", "--samples", "100", "--seed", "3",
                   "--out", str(out_path)], capsys)
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["verdict"] == "CONSISTENT"
    assert obj["header"]["seed"] == 3
    assert "timestamp" in obj["header"]


@pytest.mark.parametrize("d", [2, 3])
def test_verify_accepts_a_genuine_claim_report_silently(tmp_path, capsys, d):
    path = tmp_path / "claim.json"
    assert main(["claim-check", "--d", str(d), "--samples", "50", "--seed", "5",
                 "--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr() == ("", "")


def test_verify_names_the_forged_field(tmp_path, capsys):
    path = tmp_path / "claim.json"
    assert main(["claim-check", "--d", "3", "--samples", "50", "--seed", "5",
                 "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["werner_sweep"]["p_star"] = 0.9
    serialize.save_json(obj, path)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: report does not reproduce on this build (tool_version 0.1.0): "
        "'werner_sweep' 'p_star' must be ")


def test_verify_refuses_a_file_that_is_no_claim_report(capsys, werner26_file):
    assert main(["verify", werner26_file]) == 2
    assert capsys.readouterr().err == "error: missing field 'qudit_dim'\n"


@pytest.mark.parametrize("command", [["verify"], ["classify", "--input"]])
def test_a_file_that_is_no_json_is_named(tmp_path, capsys, command):
    path = tmp_path / "g.json"
    path.write_text("garbage")
    assert main(command + [str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n")


def test_claim_check_over_the_sample_cap_exits_2(capsys):
    assert main(["claim-check", "--d", "2", "--samples", "1000001"]) == 2
    assert capsys.readouterr().err == "error: samples must lie in 1..1000000, got 1000001\n"


def test_main_parses_with_one_parser_per_process(capsys):
    parser = build_parser()
    for d in ("3", "4"):
        assert main(["bounds", "--d", d, "--n", "2"]) == 0
    assert build_parser() is parser
    assert build_parser.cache_info().misses <= 1


def test_missing_file_is_an_error(capsys):
    code, _ = run(["classify", "--input", "/nonexistent.json", "--split", "2x2"], capsys)
    assert code == 2


def test_malformed_split_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["shell-scan", "--N", "4", "--split", "bogus", "--radii", "0.1"])


def _strip_timestamp(text):
    obj = json.loads(text)
    obj.get("header", {}).pop("timestamp", None)
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("args, is_json", [
    (["werner-sweep", "--d", "3", "--grid", "7"], False),
    (["shell-scan", "--N", "9", "--split", "3x3", "--radii", "0.1,0.25",
      "--samples", "60", "--seed", "11"], False),
    (["claim-check", "--d", "3", "--samples", "60", "--seed", "11"], True),
    (["bounds", "--d", "4", "--n", "2"], True),
])
def test_repeated_runs_are_byte_identical(tmp_path, capsys, args, is_json):
    first = tmp_path / "a.out"
    second = tmp_path / "b.out"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    a, b = first.read_text(), second.read_text()
    if is_json:
        assert _strip_timestamp(a) == _strip_timestamp(b)
    else:
        assert a == b


# --- golden digests: the same seed pins the output bytes -----------------------

# SHA-256 of each command's output (claim-check with its timestamp blanked).
# The shell samplers are reproducible bit for bit across changes of
# implementation; these digests were taken from the one-sample-at-a-time
# sampler with numpy 2.4 and OpenBLAS 0.3.31 on x86-64.  Another LAPACK or
# BLAS build may round differently.
GOLDEN_DIGESTS = [
    (["shell-scan", "--N", "9", "--split", "3x3", "--radii", "0.1,0.2,0.3",
      "--samples", "500", "--seed", "1"],
     "d9b9bd8e007ef6fea5c77596ef2487bf7e3d355ee45c7fb71fbc23f84e97670e"),
    (["shell-scan", "--N", "6", "--split", "2x3", "--radii", "0.1,0.2,0.3",
      "--samples", "500", "--seed", "2"],
     "d623b85238b0c214d9940c74532e31800fed65aa61e91a8f43d682e3089a7ffc"),
    (["claim-check", "--d", "3", "--samples", "300", "--seed", "0"],
     "378f80722ab8689bdda2f1946bfe6f01ef7937266b726b997fe3252826a820ba"),
    (["claim-check", "--d", "4", "--samples", "300", "--seed", "0"],
     "32c2e653237adde56bc48544f8945e13a3d1db4b5e6b719bc09573af4493e2f4"),
    # Its shells mix PPT and NPT rows, and 0.27 lies past r_hs(16) = 0.249.
    (["shell-scan", "--N", "16", "--split", "4x4", "--radii", "0.12,0.16,0.2,0.24,0.27",
      "--samples", "500", "--seed", "3"],
     "ad7a8814e7937d5f1eb98e60b521da17229045e9903ae04499c2f4a9aa42afa4"),
    # Every radius lies past the typical HS distance r_hs(N) of a random
    # state (0.470 at N = 4, 0.329 at N = 9), where the single-precision
    # screen drops most attempts: from shells that still accept samples to
    # one near the outer radius that accepts none.
    (["shell-scan", "--N", "4", "--split", "2x2", "--radii", "0.48,0.55,0.62,0.69,0.85",
      "--samples", "2000", "--seed", "5"],
     "01e1518be58d3d487d90e38414c19c3cf06c2043ff068dcdb27ca99dc6b2fc88"),
    (["shell-scan", "--N", "9", "--split", "3x3", "--radii", "0.34,0.37,0.4,0.43,0.9",
      "--samples", "2000", "--seed", "6"],
     "701ed264584c857abe4c70c87426fe9c6b5043b57e2186500e9c2906ed137d6a"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_DIGESTS,
                         ids=["shell-scan-3x3", "shell-scan-2x3", "claim-check-d3",
                              "claim-check-d4", "shell-scan-4x4", "shell-scan-2x2-screen",
                              "shell-scan-3x3-screen"])
def test_output_matches_golden_digest(tmp_path, args, digest):
    out = tmp_path / "report.out"
    assert main(args + ["--out", str(out)]) == 0
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --- malformed input and library failures exit 2 with a message ---------------

@pytest.mark.parametrize("obj, message", [
    ({"dim": 2, "data": [1, 0, 0, 1]}, "'data' entry 0 is not a [re, im] pair"),
    ({"dim": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0, 0]]}, "'data' entry 3 is not a [re, im] pair"),
    ({"dim": 2, "data": [[1, 0], [0, 0], [0, 0], ["1", 0]]}, "'data' entry 3 is not a [re, im] pair"),
    ({"dim": 2}, "missing field 'data'"),
    ({"dim": 2, "data": "1,0,0,1"}, "'data' must be a list"),
    ({"data": [[1, 0]]}, "'dim' must be a positive integer"),
    ({"dim": "2", "data": [[1, 0]]}, "'dim' must be a positive integer"),
    ({"dim": 2.0, "data": [[1, 0]]}, "'dim' must be a positive integer"),
    ({"dim": 4, "factors": [4], "data": [[0.25, 0]] * 16}, "'factors' must be an [m, n] pair"),
    ([1, 0, 0, 1], "matrix JSON must be an object"),
])
def test_malformed_matrix_json_exits_2_with_field_name(tmp_path, capsys, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = main(["classify", "--input", str(path), "--split", "2x2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert message in err


def test_shell_scan_failure_exits_2(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli.harness, "shell_scan", diverge)
    code = main(["shell-scan", "--N", "4", "--split", "2x2", "--radii", "0.1"])
    assert code == 2
    assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_amplitudes_exit_2(tmp_path, capsys, value):
    path = tmp_path / "nan.json"
    path.write_text(f'{{"dim": 4, "factors": [2, 2], "data": [[{value}, 0], [0, 0], [0, 0], [0, 0]]}}')
    code = main(["pt-spectrum", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: amplitudes must be finite\n"
    assert captured.out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "shells.csv"
    code = main(["shell-scan", "--N", "4", "--split", "2x2", "--radii", "0.1",
                 "--samples", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("args", [
    ["shell-scan", "--N", "4", "--split", "2x2", "--radii", "0.1,0.2", "--samples", "10"],
    ["claim-check", "--d", "2", "--samples", "10"],
])
def test_negative_seed_exits_2(capsys, args):
    code = main(args + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == ""


def test_empty_radii_exit_2(capsys):
    code = main(["shell-scan", "--N", "4", "--split", "2x2", "--radii", ","])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: radii must not be empty\n"
    assert captured.out == ""


def test_eigensolver_no_convergence_exits_2(monkeypatch, capsys, werner26_file):
    # Only the witness search's own eigen-solves fail, as LAPACK's do: numpy
    # raises LinAlgError.  Loading and validating the input still succeeds.
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    failing_linalg = SimpleNamespace(**{**vars(np.linalg), "eigh": diverge, "eigvalsh": diverge})
    monkeypatch.setattr(distill, "np", SimpleNamespace(**{**vars(np), "linalg": failing_linalg}))
    code = main(["distill-witness", "--input", werner26_file])
    assert code == 2
    assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"
