"""Command-line interface.

Subcommands: bounds, classify, pt-spectrum, werner-sweep, shell-scan,
claim-check, verify, distill-witness.  Tabular reports are CSV, everything
else JSON (`verify` prints nothing); given the same seed, repeated runs
emit byte-identical bodies apart from the claim-check timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import harness, serialize
from .bipartite import BipartiteSplit, pt_spectrum_analytic, pure_pt_spectra, schmidt
from .bounds import bounds_table, classify
from .distill import DEFAULT_RESTARTS, find_schmidt2_witness, witness_expectation
from .states import DensityMatrix, PureState


def _parse_split(text: str) -> BipartiteSplit:
    try:
        m, n = text.lower().split("x")
        return BipartiteSplit(int(m), int(n))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"split must look like 3x3, got {text!r}") from exc


def _parse_radii(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"radii must be comma-separated floats, got {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _load_state(path: str, ndim: int):
    """The density matrix (ndim 2) or state vector (ndim 1) stored at `path`,
    with the factors it records."""
    arr, factors = serialize.array_from_json(serialize.load_json(path))
    if arr.ndim != ndim:
        held, wanted = (("a vector", "a density matrix") if ndim == 2
                        else ("a matrix", "a state vector"))
        raise ValueError(f"{path} holds {held}; {wanted} is required")
    if ndim == 2:
        return DensityMatrix(dim=arr.shape[0], matrix=arr), factors
    return PureState(dim=arr.size, amplitudes=arr), factors


def _resolve_split(split: BipartiteSplit | None,
                   factors: tuple[int, int] | None) -> BipartiteSplit:
    """The --split argument, else the factors recorded in the input file."""
    if split is not None:
        return split
    if factors:
        return BipartiteSplit(*factors)
    raise ValueError("no split given and none recorded in the input file")


def _cmd_bounds(args) -> str:
    table = bounds_table(args.d, args.n)
    header = serialize.report_header(generator=None)
    return serialize.dumps({"header": header, **dataclasses.asdict(table)})


def _cmd_classify(args) -> str:
    state, factors = _load_state(args.input, 2)
    split = _resolve_split(args.split, factors)
    d = split.m
    if split.m != split.n:
        raise ValueError("bounds tables need a symmetric d x d split")
    table = bounds_table(d)
    result = classify(state, split, table)
    obj = {
        "header": serialize.report_header(generator=None),
        "split": f"{split.m}x{split.n}",
        "distance": result.distance,
        "zone": result.zone.value,
        "numeric_ppt": result.numeric_ppt,
        "min_pt_eigenvalue": result.min_pt_eigenvalue,
        "contradiction_flag": result.contradiction_flag,
        "thresholds": {
            "separable_radius": table.separable_radius,
            "ppt_radius": table.ppt_radius,
        },
    }
    return serialize.dumps(obj)


def _cmd_pt_spectrum(args) -> str:
    psi, factors = _load_state(args.input, 1)
    split = _resolve_split(args.split, factors)
    sd = schmidt(psi, split)
    analytic = pt_spectrum_analytic(sd, split)
    numeric = pure_pt_spectra(psi.amplitudes[None], split)[0]
    obj = {
        "header": serialize.report_header(generator=None),
        "split": f"{split.m}x{split.n}",
        "schmidt_rank": sd.rank,
        "schmidt_coefficients": [float(a) for a in sd.coefficients],
        "zero_multiplicity": int(np.sum(analytic == 0.0)),
        "analytic_spectrum": [float(x) for x in analytic],
        "numeric_spectrum": [float(x) for x in numeric],
        "max_abs_deviation": float(np.max(np.abs(analytic - numeric))),
    }
    return serialize.dumps(obj)


def _cmd_werner_sweep(args) -> str:
    report = harness.werner_sweep(args.d, grid_points=args.grid)
    return harness.sweep_to_csv(report)


def _cmd_shell_scan(args) -> str:
    report = harness.shell_scan(args.N, args.split, args.radii,
                                samples_per_shell=args.samples, base_seed=args.seed)
    return harness.shells_to_csv(report)


def _cmd_claim_check(args) -> str:
    report = harness.claim_check(args.d, samples=args.samples, base_seed=args.seed)
    return serialize.dumps(harness.claim_report_to_dict(report))


def _cmd_verify(args) -> None:
    harness.load_claim_report(args.file)


def _cmd_distill_witness(args) -> str:
    state, factors = _load_state(args.input, 2)
    split = _resolve_split(args.split, factors)
    result = find_schmidt2_witness(state, split, restarts=args.restarts, seed=args.seed)
    obj = {
        "header": serialize.report_header(seed=args.seed),
        "split": f"{split.m}x{split.n}",
        "found": result.found,
        "certified": result.certified,
        "value": result.value,
        "restarts_used": result.restarts_used,
        "witness": None,
    }
    if result.witness is not None:
        obj["witness"] = serialize.vector_to_json(result.witness.amplitudes,
                                                  factors=(split.m, split.n))
        obj["recomputed_value"] = witness_expectation(state, split, result.witness)
        obj["witness_schmidt_rank"] = schmidt(result.witness, split).rank
    return serialize.dumps(obj)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `main` parses every
    argv with it."""
    parser = argparse.ArgumentParser(
        prog="pptgeo",
        description="Hilbert-Schmidt geometry of density matrices: radii, PPT tests, claim checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    command = functools.partial(sub.add_parser, parents=[out])

    p = command("bounds", help="print the radius table for d qudits")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_bounds)

    p = command("classify", help="distance zone and PPT verdict for a state")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--split", type=_parse_split)
    p.set_defaults(run=_cmd_classify)

    p = command("pt-spectrum", help="analytic vs numeric PT spectrum of a pure state")
    p.add_argument("--input", required=True, help="state-vector JSON file")
    p.add_argument("--split", type=_parse_split)
    p.set_defaults(run=_cmd_pt_spectrum)

    p = command("werner-sweep", help="Werner family sweep with threshold bisection")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--grid", type=int, default=21)
    p.set_defaults(run=_cmd_werner_sweep)

    p = command("shell-scan", help="PPT fractions on HS-distance shells")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--split", type=_parse_split, required=True)
    p.add_argument("--radii", type=_parse_radii, required=True)
    p.add_argument("--samples", type=int, default=harness.DEFAULT_SAMPLES_PER_SHELL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_shell_scan)

    p = command("claim-check", help="adjudicate the claimed PPT radius for d x d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, default=harness.DEFAULT_SAMPLES_PER_SHELL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_claim_check)

    p = sub.add_parser("verify", help="re-verify a claim-check report by recomputing it")
    p.add_argument("file", help="claim-check report JSON file")
    p.set_defaults(run=_cmd_verify)

    p = command("distill-witness", help="search for a Schmidt-rank-2 PT witness")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--split", type=_parse_split)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_distill_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if (text := args.run(args)) is not None:
            _emit(text, args.out)
    except (ValueError, OSError, KeyError) as exc:
        # ValueError also covers numpy's LinAlgError from a failed eigen-solve.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
